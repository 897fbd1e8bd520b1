"""Content-addressed JSON cache for computed groups, classes and tables.

Keys hash the schema version, an algorithm version, the payload kind and
the identifying parts (degree, tier, generator digest), so any change to
the computation invalidates old entries instead of shadowing them.  Writes
go through a temp file and an atomic rename; a failed or concurrent write
can therefore never leave a torn entry behind.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from hashlib import blake2b
from pathlib import Path

from .digits import decimal_str

SCHEMA_VERSION = 1
# bump when enumeration or cohomology output changes shape or meaning
ALGORITHM_VERSION = 1

ENV_VAR = "LOGK3_CACHE_DIR"


def default_cache_dir() -> Path:
    override = os.environ.get(ENV_VAR)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "logk3"


class ExactInt:
    """A non-negative int that ``canonical_json`` prints as bare digits
    through ``decimal_str``, for values too long for the quadratic ``str``."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


# what json.dumps writes for the string standing in for an ExactInt
_EXACT_MARK = "\0exact"
_EXACT_TOKEN = json.dumps(_EXACT_MARK)


def canonical_json(payload) -> str:
    """Sorted keys, no whitespace; ``ExactInt`` values print as plain ints."""
    exact: list[int] = []

    def stand_in(obj):
        if not isinstance(obj, ExactInt):
            name = type(obj).__name__
            raise TypeError(f"Object of type {name} is not JSON serializable")
        exact.append(obj.value)
        return _EXACT_MARK

    text = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=stand_in
    )
    if not exact:
        return text
    pieces = text.split(_EXACT_TOKEN)
    if len(pieces) != len(exact) + 1:
        raise ValueError("a payload string collides with the ExactInt stand-in")
    out = [pieces[0]]
    for value, piece in zip(exact, pieces[1:]):
        out += (decimal_str(value), piece)
    return "".join(out)


class ResultCache:
    """Directory of {key}.json files addressed by content keys."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def key(self, kind: str, **parts) -> str:
        blob = canonical_json(
            {
                "schema": SCHEMA_VERSION,
                "algorithm": ALGORITHM_VERSION,
                "kind": kind,
                "parts": parts,
            }
        )
        return blake2b(blob.encode(), digest_size=12).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str):
        """The stored payload, or None on miss, version skew or corruption."""
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if entry.get("schema_version") != SCHEMA_VERSION:
            return None
        if entry.get("algorithm_version") != ALGORITHM_VERSION:
            return None
        return entry.get("payload")

    def put(self, key: str, kind: str, payload) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema_version": SCHEMA_VERSION,
            "algorithm_version": ALGORITHM_VERSION,
            "kind": kind,
            "written": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "payload": payload,
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def ls(self) -> list[dict]:
        if not self.root.is_dir():
            return []
        out = []
        for path in sorted(self.root.glob("*.json")):
            row = {"key": path.stem, "size": path.stat().st_size}
            try:
                with open(path, encoding="utf-8") as fh:
                    entry = json.load(fh)
                row["kind"] = entry.get("kind")
                row["written"] = entry.get("written")
            except (OSError, json.JSONDecodeError):
                row["kind"] = "corrupt"
            out.append(row)
        return out

    def clear(self) -> int:
        if not self.root.is_dir():
            return 0
        removed = 0
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


class CacheCheckpoint:
    """load/save adapter feeding enumeration layer snapshots to a cache.

    A snapshot that cannot be written does not stop the enumeration: the
    first such OSError is kept in ``write_error`` for the caller to report.
    """

    def __init__(self, cache: ResultCache, key: str):
        self.cache = cache
        self.key = key
        self.write_error: OSError | None = None

    def load(self):
        return self.cache.get(self.key)

    def save(self, state) -> None:
        try:
            self.cache.put(self.key, "enumeration-checkpoint", state)
        except OSError as err:
            self.write_error = self.write_error or err
