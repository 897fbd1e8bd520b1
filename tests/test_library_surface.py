"""Tripwire against library code that only tests use.

Every module-level function and class in ``src/logk3`` must be named
somewhere in the program or in the benchmark (``perfbench/``) besides its
own definition line.  A name that only a test calls is dead weight for the
command line; delete it and move its test onto the path that remains.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "logk3"

# independent oracles the correctness checks rest on, kept although only
# tests call them
ALLOWED = {"bounded_class_search"}


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path, node.name


def test_every_library_name_has_a_caller():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    texts = [path.read_text(encoding="utf-8") for path in sources]
    unused = []
    for path, name in _definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        # the definition itself accounts for one mention
        mentions = sum(len(word.findall(text)) for text in texts)
        if mentions < 2 and name not in ALLOWED:
            unused.append(f"{path.stem}.{name}")
    assert unused == []


def test_the_allowlist_is_current():
    defined = {name for _, name in _definitions()}
    assert ALLOWED <= defined
