"""One content-addressed on-disk store behind every cache in the repo.

The sweep cache, scenario store, verdict cache, AST cache, summary
cache and findings memo are :class:`ContentStore` subclasses that
bind only a file suffix, an optional generation salt and a typed
``get``/``put`` codec.
The semantics they share:

* **layout** — ``<root>[/<generation>]/<key[:2]>/<key><suffix>``.  The
  generation directory exists only for stores that declare
  ``salt_packages``; it is named by the store's version tag, the Python
  minor version and a :func:`~repro.exec.fingerprint.source_digest`
  over those packages, so editing any of them abandons the generation.
* **read** — a missing entry is a miss.  An unreadable or undecodable
  one (truncated, hand-edited, the wrong shape) is a miss that also
  counts in ``corrupt``; the next ``put`` of the key overwrites it.
* **write** — atomic: :func:`tempfile.mkstemp` in the shard directory,
  then ``os.replace``, so readers see the old entry or the new one,
  never a torn one, and concurrent writers of one key (threads or
  processes) each land a whole file.  A failed write unlinks its temp.
* **write failure** — ``put`` is best-effort, because a cache must never
  fail the computation behind it: an ``OSError`` counts in
  ``write_errors`` and ``put`` returns ``None``.  Each store instance
  warns once, on its first failed write.
"""

from __future__ import annotations

import functools
import os
import sys
import tempfile
import threading
import warnings
from collections import Counter
from contextlib import suppress
from pathlib import Path
from typing import Any, Callable, TypeVar

T = TypeVar("T")


@functools.lru_cache(maxsize=None)
def generation_name(version: str, salt_packages: tuple[str, ...]) -> str:
    """``<version>-py<X>.<Y>+<source digest prefix>`` for one store kind."""
    from repro.exec.fingerprint import source_digest

    tag = f"{version}-py{sys.version_info[0]}.{sys.version_info[1]}"
    digest = source_digest(packages=salt_packages)
    return f"{tag}+{digest[:16]}" if digest else tag


def write_atomic(path: Path, payload: bytes) -> None:
    """Land ``payload`` at ``path`` whole, or raise and leave no trace."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


class ContentStore:
    """A directory of key-addressed entries (see the module docstring)."""

    #: File suffix of one entry.
    suffix = ".json"
    #: Generation tag; bump only on a break in the entry format.
    version = ""
    #: Packages whose sources salt the generation directory; empty
    #: keeps entries directly under the root.
    salt_packages: tuple[str, ...] = ()

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.generation = (
            self.root / generation_name(self.version, self.salt_packages)
            if self.salt_packages else self.root
        )
        self.hits = self.misses = self.corrupt = self.write_errors = 0
        # Serve reads and writes from worker threads; ``+=`` on an
        # attribute is not atomic, so counters move under one lock.
        self._lock = threading.Lock()

    def path_for(self, key: str) -> Path:
        """Where ``key``'s entry lives (whether or not it exists)."""
        return self.generation / key[:2] / f"{key}{self.suffix}"

    def read(self, key: str, decode: Callable[[bytes], T]) -> T | None:
        """``decode`` of the stored bytes, or None on a miss."""
        try:
            value = decode(self.path_for(key).read_bytes())
        except (FileNotFoundError, NotADirectoryError):
            self._count("misses")
            return None
        except Exception:
            self._count("corrupt", "misses")
            return None
        self._count("hits")
        return value

    def write(self, key: str, payload: bytes) -> Path | None:
        """Store ``payload`` under ``key``; the entry path, or None."""
        path = self.path_for(key)
        try:
            write_atomic(path, payload)
        except OSError as exc:
            if self._count("write_errors") == 1:
                warnings.warn(f"{type(self).__name__} write failed for "
                              f"{key[:12]} under {self.root}: {exc}",
                              RuntimeWarning, stacklevel=3)
            return None
        return path

    def _count(self, *counters: str) -> int:
        """Bump ``counters`` by one; the last one's new value."""
        with self._lock:
            for name in counters:
                value = getattr(self, name) + 1
                setattr(self, name, value)
        return value

    def invalidate(self, key: str) -> bool:
        """Drop one entry; True if it existed."""
        try:
            self.path_for(key).unlink()
        except (FileNotFoundError, NotADirectoryError):
            return False
        return True

    def _entries(self):
        return self.generation.glob(f"??/*{self.suffix}")

    def shard_counts(self) -> dict[str, int]:
        """Entries per populated shard directory."""
        return dict(Counter(entry.parent.name for entry in self._entries()))

    def clear(self) -> int:
        """Drop every entry; returns how many."""
        entries = list(self._entries())
        for entry in entries:
            entry.unlink()
        return len(entries)

    def stats(self) -> dict[str, Any]:
        """Counters and directory spread, as one JSON-ready document."""
        shards = self.shard_counts()
        return {
            "root": str(self.root), "entries": sum(shards.values()),
            "hits": self.hits, "misses": self.misses,
            "corrupt": self.corrupt, "write_errors": self.write_errors,
            "shards": shards,
        }

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())
