"""One keyed store behind every cache tier, and one atomic file writer.

Finished results, shared prefix snapshots and fleet cohort templates
all want the same thing: ``key -> value`` in memory, optionally mirrored
to a disk tier so a *later* process skips the work too.
:class:`KeyedStore` is that thing, written once;
:class:`~repro.engine.cache.ResultCache` and
:class:`~repro.engine.snapshots.SnapshotStore` differ only in codec and
directory tag.

* **Memory tier** — a dict of decoded values: unbounded by default,
  least-recently-used bounded by ``capacity``, or absent with
  ``capacity=0`` (a disk-only store, for callers whose memory tier
  lives elsewhere — the daemon keeps templates in its resident arena).
* **Disk tier** — one file per key under
  ``<root>/<tag>/<kk>/<key><suffix>``, published by
  :func:`atomic_write`.  The tag carries the format version, so a bump
  invalidates every old entry without touching the files.
  ``root=None`` keeps the store memory-only.

A store must never be able to fail a run it could instead repopulate:
an unreadable, corrupt or mismatched disk entry is a miss, and an
unwritable root degrades to memory-only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import SimulationError

#: Everything reading a disk entry can raise that means "treat it as a
#: miss" (codec errors are ``SimulationError``s).
_MISS = (OSError, ValueError, KeyError, TypeError, AttributeError,
         SimulationError)


def atomic_write(path: "str | os.PathLike", data: "bytes | str", *,
                 fsync: bool = False) -> None:
    """Publish ``data`` at ``path``: a reader sees the old file or the
    complete new one, never a torn write.

    The temp file is removed when the write or the rename fails, and
    the error propagates.  ``fsync`` makes the contents durable before
    the rename — for checkpoints, which a crash must not roll back to
    garbage; cache entries skip it, since a torn entry is only a miss.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class StoreStats:
    """Hit/miss accounting, split by tier."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0


class KeyedStore:
    """Memory (+ optional disk) store of values keyed by content hash.

    Subclasses set ``suffix`` and implement ``_encode``/``_decode``;
    anything in ``_MISS`` raised while reading is a miss, never an
    error, and anything in ``write_errors`` raised while writing leaves
    the value in memory only.
    """

    suffix = ""
    write_errors: tuple = (OSError,)

    def __init__(self, root: "str | os.PathLike | None", tag: str, *,
                 capacity: "int | None" = None):
        self.root = None if root is None else Path(root)
        self.tag = tag
        self.capacity = capacity
        self.stats = StoreStats()
        self._memory: dict[str, Any] = {}

    # ------------------------------------------------------------------
    def get(self, key: str) -> tuple[bool, Any]:
        """Look ``key`` up; returns ``(hit, value)``."""
        if key in self._memory:
            self.stats.memory_hits += 1
            value = self._memory[key]
            if self.capacity is not None:
                self.remember(key, value)  # most recently used last
            return True, value
        if self.root is not None:
            try:
                value = self._decode(key, self._path(key).read_bytes())
            except _MISS:
                pass
            else:
                self.stats.disk_hits += 1
                self.remember(key, value)
                return True, value
        self.stats.misses += 1
        return False, None

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` in both tiers."""
        self.remember(key, value)
        self.stats.stores += 1
        if self.root is None:
            return
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, self._encode(key, value))
        except self.write_errors:
            pass  # a read-only or full disk degrades to memory-only

    def remember(self, key: str, value: Any) -> None:
        """Memory tier only (evicting least-recently-used past
        ``capacity``): for values whose disk copy exists already or
        must not be written by this process."""
        if self.capacity == 0:
            return
        if self.capacity is not None:
            self._memory.pop(key, None)
        self._memory[key] = value
        while self.capacity is not None and len(self._memory) > self.capacity:
            del self._memory[next(iter(self._memory))]

    def __contains__(self, key: str) -> bool:
        return key in self._memory

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / self.tag / key[:2] / f"{key}{self.suffix}"

    def _encode(self, key: str, value: Any) -> "bytes | str":
        raise NotImplementedError

    def _decode(self, key: str, data: bytes) -> Any:
        raise NotImplementedError
