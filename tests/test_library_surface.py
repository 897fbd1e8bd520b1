"""Tripwire against library code that only tests use.

Every module-level function and class in ``src/logk3`` must be named
somewhere in the program or in the benchmark (``perfbench/``) outside its
own definition.  The package's re-export list in ``__init__.py`` and a
function's calls to itself do not count.  A name that only a test calls is
dead weight for the command line; delete it and move its test onto the
path that remains.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "logk3"

# kept although only tests call them: the independent oracle the line
# checks rest on, and the paper's prime bound, whose formula the
# acceptance test checks
ALLOWED = {"bounded_class_search", "merel_prime_bound"}


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path, node


def test_every_library_name_has_a_caller():
    sources = [
        path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
    ] + sorted((ROOT / "perfbench").rglob("*.py"))
    texts = {path: path.read_text(encoding="utf-8") for path in sources}
    unused = []
    for path, node in _definitions():
        word = re.compile(rf"\b{re.escape(node.name)}\b")
        mentions = 0
        for source, text in texts.items():
            if source == path:
                # the definition, self-calls included, is not a use
                lines = text.splitlines()
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                text = "\n".join(lines[: start - 1] + lines[node.end_lineno :])
            mentions += len(word.findall(text))
        if mentions == 0 and node.name not in ALLOWED:
            unused.append(f"{path.stem}.{node.name}")
    assert unused == []


def test_the_allowlist_is_current():
    defined = {node.name for _, node in _definitions()}
    assert ALLOWED <= defined
