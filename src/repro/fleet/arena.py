"""Shared-memory template arena: one copy of cohort bytes per host.

Without the arena every pool worker reads each cohort template from
disk once and keeps its own heap copy of the bytes — per-host template
cost scales with ``workers x cohorts``.  The arena drives it to one
copy per host: the owner publishes each template into its own
``multiprocessing.shared_memory`` segment, workers attach once per
process, and each template's payload is served as a **zero-copy
memoryview** over the shared pages — the cached
:class:`~repro.sim.snapshot.SystemSnapshot` in every worker points at
the same physical memory.

There is one arena, :class:`ResidentArena`, with two owners: a pool
fleet (``fleet/run.py``) creates one per run and destroys it when the
run ends, and the daemon (``serve/server.py``) keeps one alive across
requests.  Each segment holds a small *meta* blob — ``(format version,
policy name, now_ms, externals)``, pickled with the snapshot pickler —
followed by the raw payload bytes.

Every entry carries the sha256 of its payload, checked once per worker
per template.  The arena is strictly an optimisation under the
fork-equals-fresh contract, so every failure mode — platform without
shared memory, unlinked segment, corrupt bytes, digest mismatch — is a
**miss, never an error**: the caller falls back to the disk store, and
failing that rebuilds the template cold, byte-identically
(``tests/fleet/test_arena.py`` pins all three paths).

Lifecycle: the owner creates and unlinks segments (``destroy()``,
called from a ``finally``).  Workers only ever attach, and attach
**untracked** — attaching must not transfer ownership to
``multiprocessing``'s resource tracker, or the first worker to exit
would reap a segment its siblings (and the owner) still use — and
release their views through an ``atexit`` hook so a clean worker exit
neither leaks ``/dev/shm`` entries nor trips exported-buffer errors.  A
crashed worker leaks nothing either: its mappings die with the
process, and the segment itself still belongs to the owner (whose own
tracker registration reaps it even if the owner dies before
``destroy()``).
"""

from __future__ import annotations

import atexit
import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.sim.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SystemSnapshot,
    dumps,
    loads,
)


# ----------------------------------------------------------------------
# availability
# ----------------------------------------------------------------------
_AVAILABLE: bool | None = None


def arena_available() -> bool:
    """Can this host create (and map) POSIX shared memory at all?"""
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=16)
            probe.close()
            probe.unlink()
            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


# ----------------------------------------------------------------------
# the shared layout
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArenaEntry:
    """One template's segment: ``[meta][payload]``."""

    segment: str
    meta_length: int
    payload_length: int
    digest: str
    """sha256 hex of the payload."""


@dataclass(frozen=True)
class ArenaHandle:
    """Picklable address of a job's templates: key -> entry."""

    entries: dict[str, ArenaEntry]

    def entry(self, key: str) -> ArenaEntry | None:
        return self.entries.get(key)


# ----------------------------------------------------------------------
# worker side: attach once, serve zero-copy views
# ----------------------------------------------------------------------
_ATTACHED: dict[str, object | None] = {}
_VIEWS: list[memoryview] = []
_STATS = {
    "arena_attaches": 0,
    "arena_hits": 0,
    "arena_misses": 0,
    "arena_corrupt": 0,
}
_ATEXIT_REGISTERED = False


def arena_stats() -> dict[str, int]:
    """This process's arena counters (monotonic)."""
    return dict(_STATS)


def _reset_arena_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0


def _detach_all() -> None:
    """Release every view and mapping (at exit; tests call it too)."""
    # Views into a segment must be released before the mappings are
    # torn down, or SharedMemory.__del__ trips "exported pointers exist"
    # during interpreter shutdown.
    for view in _VIEWS:
        try:
            view.release()
        except Exception:
            pass
    _VIEWS.clear()
    for shm in _ATTACHED.values():
        if shm is not None:
            try:
                shm.close()
            except Exception:
                pass
    _ATTACHED.clear()


def _attach(name: str):
    """Map the named segment (memoised per process); ``None`` = miss."""
    global _ATEXIT_REGISTERED
    if name in _ATTACHED:
        return _ATTACHED[name]
    shm = None
    try:
        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:
            # Pre-3.13 SharedMemory has no ``track`` flag and attaching
            # registers the segment with the resource tracker as if the
            # worker owned it.  The tracker's cache is a *set shared by
            # every process on the host*, so neither leaving the
            # registration (first worker to exit unlinks the segment
            # under its siblings) nor unregistering it (erases the
            # coordinator's entry, whose later unlink then logs a
            # KeyError) is sound.  Attaching is not owning: suppress
            # the registration at the source.
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register
        _STATS["arena_attaches"] += 1
    except Exception:
        shm = None
    _ATTACHED[name] = shm
    if not _ATEXIT_REGISTERED:
        atexit.register(_detach_all)
        _ATEXIT_REGISTERED = True
    return shm


def arena_get(handle: "ArenaHandle | None", key: str) -> SystemSnapshot | None:
    """One template out of the arena; ``None`` is always just a miss.

    The snapshot comes back with a zero-copy memoryview payload over
    the shared pages.  Any irregularity — segment gone, key unknown,
    digest mismatch, unreadable meta — counts as a miss
    (``arena_corrupt`` when the bytes were there but wrong) and the
    caller falls back to disk or a cold rebuild.
    """
    if handle is None:
        return None
    entry = handle.entry(key)
    shm = _attach(entry.segment) if entry is not None else None
    if shm is None:
        _STATS["arena_misses"] += 1
        return None
    try:
        payload = memoryview(shm.buf)[
            entry.meta_length:entry.meta_length + entry.payload_length
        ]
        _VIEWS.append(payload)
        if hashlib.sha256(payload).hexdigest() != entry.digest:
            _STATS["arena_corrupt"] += 1
            return None
        version, policy_name, now_ms, externals = loads(
            bytes(shm.buf[:entry.meta_length]))
        if version != SNAPSHOT_FORMAT_VERSION:
            _STATS["arena_corrupt"] += 1
            return None
    except Exception:
        _STATS["arena_corrupt"] += 1
        return None
    _STATS["arena_hits"] += 1
    return SystemSnapshot(payload, externals, policy_name=policy_name,
                          now_ms=now_ms)


# ----------------------------------------------------------------------
# the arena: owner-side, refcounted, evictable
# ----------------------------------------------------------------------
#: Default budget for resident template bytes (segments with zero
#: references beyond this get evicted, least-recently-used first).
DEFAULT_RESIDENT_BUDGET = 256 * 1024 * 1024


@dataclass
class _Resident:
    """One template's segment inside a :class:`ResidentArena`."""

    shm: object
    entry: ArenaEntry
    refs: int = 0
    last_use: int = 0


class ResidentArena:
    """Owner side of the template arena, for batch runs and the daemon.

    The arena keeps **one segment per template**, refcounted by the
    jobs that hold a handle over it, and evicts explicitly: a segment
    is unlinked only when nothing references it and the resident byte
    budget demands room (LRU first), or when the owner is done with
    the whole arena (:meth:`destroy`).  A pool fleet publishes and
    acquires its templates up front and destroys the arena when the run
    ends; the daemon keeps templates warm across requests — the whole
    point of fleet-as-a-service.

    Not thread-safe by design — each owner drives it from one thread.
    No shared memory on the host means :meth:`publish` returns
    ``False`` and jobs fall back to the disk store, byte-identically.
    """

    def __init__(self, budget_bytes: int = DEFAULT_RESIDENT_BUDGET):
        self.budget_bytes = budget_bytes
        self._resident: dict[str, _Resident] = {}
        self._clock = 0
        self.warm_hits = 0
        self.publishes = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    @property
    def resident_bytes(self) -> int:
        return sum(res.shm.size for res in self._resident.values())

    def stats(self) -> dict[str, int]:
        return {
            "resident_templates": len(self._resident),
            "resident_bytes": self.resident_bytes,
            "template_publishes": self.publishes,
            "template_warm_hits": self.warm_hits,
            "template_evictions": self.evictions,
        }

    # ------------------------------------------------------------------
    def warm(self, key: str) -> bool:
        """Touch ``key`` if resident (counts a warm hit); else ``False``.

        The daemon's provisioning check: a ``True`` here means the next
        job reuses the template without any rebuild, disk read, or new
        segment — the reuse the serve benchmark gates on.
        """
        if key not in self._resident:
            return False
        self._touch(key)
        self.warm_hits += 1
        return True

    def publish(self, key: str, snap: SystemSnapshot) -> bool:
        """Make ``key`` resident (no-op if it already is).

        Returns ``True`` when the template is resident afterwards;
        ``False`` when this host has no usable shared memory (callers
        degrade to the disk store).  Re-publishing an existing key
        counts as a warm hit, not a write.

        The budget pass after inserting never evicts ``key`` itself: a
        template larger than the whole budget stays resident until the
        next publish (or release) makes room for a newer one, so the
        job that published it still reads it from shared memory.
        """
        if self.warm(key):
            return True
        meta = dumps((
            SNAPSHOT_FORMAT_VERSION,
            snap.policy_name,
            snap.now_ms,
            snap.externals,
        ))
        payload = bytes(snap.payload)
        digest = hashlib.sha256(payload).hexdigest()
        total = len(meta) + len(payload)
        try:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(create=True, size=max(1, total))
        except Exception:
            return False
        shm.buf[:len(meta)] = meta
        shm.buf[len(meta):total] = payload
        entry = ArenaEntry(shm.name, len(meta), len(payload), digest)
        self._resident[key] = _Resident(shm=shm, entry=entry)
        self._touch(key)
        self.publishes += 1
        self.evict(keep=key)
        return True

    def acquire(self, keys: "Sequence[str]") -> ArenaHandle | None:
        """A handle over ``keys`` with one reference taken on each.

        Every key must be resident (``publish`` first); a job holds the
        handle for its whole run, so none of its templates can be
        evicted underneath it.  Returns ``None`` for an empty key set.
        """
        entries = {}
        for key in keys:
            resident = self._resident[key]
            resident.refs += 1
            self._touch(key)
            entries[key] = resident.entry
        return ArenaHandle(entries) if entries else None

    def release(self, keys: "Sequence[str]") -> None:
        """Drop one reference per key (evicted keys are ignored)."""
        for key in keys:
            resident = self._resident.get(key)
            if resident is not None and resident.refs > 0:
                resident.refs -= 1
        self.evict()

    # ------------------------------------------------------------------
    def evict(self, *, all_idle: bool = False,
              keep: str | None = None) -> int:
        """Unlink unreferenced segments: LRU-first beyond the budget,
        or every idle one when ``all_idle`` is set.  ``keep`` is spared
        either way.  Returns the count.

        A worker mid-restore on an evicted segment keeps its own
        mapping alive (POSIX unlink semantics); a *later* attach simply
        misses and falls back to the disk store — eviction can slow a
        job down, never corrupt it.
        """
        evicted = 0
        idle = sorted(
            (key for key, res in self._resident.items()
             if res.refs == 0 and key != keep),
            key=lambda key: self._resident[key].last_use,
        )
        for key in idle:
            if not all_idle and self.resident_bytes <= self.budget_bytes:
                break
            self._unlink(key)
            evicted += 1
        self.evictions += evicted
        return evicted

    def destroy(self) -> None:
        """Unlink every segment, referenced or not (end of run, daemon
        shutdown); idempotent."""
        for key in list(self._resident):
            self._unlink(key)

    # ------------------------------------------------------------------
    def _touch(self, key: str) -> None:
        self._clock += 1
        self._resident[key].last_use = self._clock

    def _unlink(self, key: str) -> None:
        resident = self._resident.pop(key)
        try:
            resident.shm.close()
        except Exception:
            pass
        try:
            resident.shm.unlink()
        except Exception:
            pass
