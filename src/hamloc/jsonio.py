"""Canonical JSON and a content-addressed disk cache.

Canonical form is normative for hashing and for byte-identical reports:
sorted keys, compact separators, UTF-8, a single trailing LF.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path

from .errors import InputError


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


def content_key(operation: str, payload, bounds=None, version: str = "") -> str:
    blob = canonical_dumps(
        {"operation": operation, "payload": payload, "bounds": bounds, "version": version}
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def source_digest() -> str:
    """sha256 of the package's module sources, so that a cache key
    changes with the code even when the version does not."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}:{len(data)}\n".encode("utf-8") + data)
    return digest.hexdigest()


def write_canonical(path, obj) -> None:
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def load_json(path):
    """Parse a UTF-8 JSON file; a file that cannot be read or parsed is
    an InputError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: not UTF-8 JSON: {exc}") from exc
    except (OSError, ValueError) as exc:
        # a missing file, a directory, or a NUL byte in the name
        raise InputError(f"cannot read {path}: {exc}") from exc


class DiskCache:
    """Content-addressed cache of canonical JSON outputs.

    Writes are atomic (temp file + rename) so concurrent processes can
    share a cache directory.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str):
        """The stored output, or None on a miss.  An entry that does not
        parse or lacks its output (say, a write cut short) is a miss, and
        the next ``put`` replaces it."""
        try:
            return json.loads(self._path(key).read_text(encoding="utf-8"))["output"]
        except (FileNotFoundError, ValueError, KeyError, TypeError):
            return None

    def put(self, key: str, output, operation: str, version: str) -> None:
        entry = {
            "key": key,
            "operation": operation,
            "tool_version": version,
            "created": time.time(),
            "output": output,
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(canonical_dumps(entry))
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
