"""Shared-memory template arena: one copy of cohort bytes per host.

Before this tier every pool worker read each cohort template from disk
once and kept its own heap copy of the bytes — per-host template cost
scaled with ``workers x cohorts``.  The arena drives it to one copy per
host: the coordinator packs every template into a single
``multiprocessing.shared_memory`` segment, workers attach once per
process, and each template's payload is served as a **zero-copy
memoryview** over the shared pages — the cached
:class:`~repro.sim.snapshot.SystemSnapshot` in every worker points at
the same physical memory.

Layout: each template is stored split, so the payload can stay a view:

* a small *meta* blob — ``(format version, policy name, now_ms,
  externals)``, pickled with the snapshot pickler;
* the raw *payload* blob — either the full payload bytes, or (for the
  non-base policies of an app, whose payloads share most structure with
  the base policy's) an rsync-style :func:`~repro.sim.snapshot.bdiff`
  patch against the base entry's payload.  Delta entries are composed
  at first use and cached as bytes; full entries stay views.

Every entry carries the sha256 of its *resolved* payload, checked once
per worker per template.  The arena is strictly an optimisation under
the fork-equals-fresh contract, so every failure mode — platform
without shared memory, unlinked segment, corrupt bytes, digest
mismatch — is a **miss, never an error**: the caller falls back to the
per-worker disk cache, and failing that rebuilds the template cold,
byte-identically (``tests/fleet/test_arena.py`` pins all three paths).

Lifecycle: the coordinator owns the segment and unlinks it when the
run ends (``destroy()``, called from a ``finally``).  Workers only ever
attach, and attach **untracked** — attaching must not transfer
ownership to ``multiprocessing``'s resource tracker, or the first
worker to exit would reap a segment its siblings (and the coordinator)
still use — and release their views through an ``atexit`` hook so a
clean worker exit neither leaks ``/dev/shm`` entries nor trips
exported-buffer errors.  A crashed worker leaks nothing either: its
mappings die with the process, and the segment itself still belongs to
the coordinator (whose own tracker registration reaps it even if the
coordinator dies before ``destroy()``).
"""

from __future__ import annotations

import atexit
import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.sim.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SystemSnapshot,
    bdiff,
    bpatch,
    dumps,
    loads,
)

#: Fraction of the full payload a sibling-policy delta must beat to be
#: stored as a patch instead of full bytes.
DELTA_WORTHWHILE = 0.8


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
    """Where one template lives inside the segment."""

    meta_offset: int
    meta_length: int
    payload_offset: int
    payload_length: int
    digest: str
    """sha256 hex of the *resolved* (composed, for deltas) payload."""
    base_key: str | None = None
    """Set when the payload blob is a bdiff patch against this entry."""
    segment: str = ""
    """Segment holding this entry; empty = the handle's own segment.

    Batch arenas pack every template into one segment, so their entries
    leave this blank.  The daemon's :class:`ResidentArena` gives each
    template its own refcounted segment and composes per-job handles
    out of them, so its entries carry the segment name explicitly."""


@dataclass(frozen=True)
class ArenaHandle:
    """Picklable address of a published arena: segment name + index."""

    name: str
    entries: tuple[tuple[str, ArenaEntry], ...]

    def entry(self, key: str) -> ArenaEntry | None:
        for entry_key, entry in self.entries:
            if entry_key == key:
                return entry
        return None


class TemplateArena:
    """Coordinator-owned shared segment holding cohort templates."""

    def __init__(self, shm, handle: ArenaHandle):
        self._shm = shm
        self.handle = handle

    # ------------------------------------------------------------------
    @classmethod
    def publish(
        cls,
        snapshots: "dict[str, SystemSnapshot]",
        delta_bases: "dict[str, str] | None" = None,
    ) -> "TemplateArena | None":
        """Pack ``snapshots`` into one fresh segment; ``None`` = no shm.

        ``delta_bases`` maps a key to the key whose payload it should be
        stored as a delta against (base entries must be full).  A delta
        that does not actually shrink the entry is stored full — the
        mapping is advisory.
        """
        if not arena_available():
            return None
        delta_bases = delta_bases or {}
        blobs: list[tuple[str, bytes, bytes, str, str | None]] = []
        for key, snap in snapshots.items():
            meta = dumps((
                SNAPSHOT_FORMAT_VERSION,
                snap.policy_name,
                snap.now_ms,
                snap.externals,
            ))
            payload = bytes(snap.payload)
            digest = hashlib.sha256(payload).hexdigest()
            base_key = delta_bases.get(key)
            if base_key is not None and base_key in snapshots:
                patch = bdiff(bytes(snapshots[base_key].payload), payload)
                if len(patch) < DELTA_WORTHWHILE * len(payload):
                    blobs.append((key, meta, patch, digest, base_key))
                    continue
            blobs.append((key, meta, payload, digest, None))

        total = sum(len(meta) + len(body) for _, meta, body, _, _ in blobs)
        try:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(create=True,
                                             size=max(1, total))
        except Exception:
            return None
        entries: list[tuple[str, ArenaEntry]] = []
        cursor = 0
        for key, meta, body, digest, base_key in blobs:
            shm.buf[cursor:cursor + len(meta)] = meta
            meta_offset = cursor
            cursor += len(meta)
            shm.buf[cursor:cursor + len(body)] = body
            entries.append((key, ArenaEntry(
                meta_offset=meta_offset,
                meta_length=len(meta),
                payload_offset=cursor,
                payload_length=len(body),
                digest=digest,
                base_key=base_key,
            )))
            cursor += len(body)
        return cls(shm, ArenaHandle(shm.name, tuple(entries)))

    # ------------------------------------------------------------------
    def destroy(self) -> None:
        """Unmap and unlink the segment (idempotent)."""
        if self._shm is None:
            return
        try:
            self._shm.close()
        except Exception:
            pass
        try:
            self._shm.unlink()
        except Exception:
            pass
        self._shm = None


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
    """Release every view and mapping now (tests / arena teardown)."""
    _release_at_exit()


def _release_at_exit() -> None:
    # Views into the segment must be released before the mappings are
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
        atexit.register(_release_at_exit)
        _ATEXIT_REGISTERED = True
    return shm


def arena_get(handle: "ArenaHandle | None", key: str) -> SystemSnapshot | None:
    """One template out of the arena; ``None`` is always just a miss.

    Full entries come back with a zero-copy memoryview payload over the
    shared pages; delta entries are composed against their base entry
    (one bytes materialisation, still no disk).  Any irregularity —
    segment gone, key unknown, digest mismatch, unreadable meta —
    counts as a miss (``arena_corrupt`` when the bytes were there but
    wrong) and the caller falls back to disk or a cold rebuild.
    """
    if handle is None:
        return None
    entry = handle.entry(key)
    shm = (_attach(entry.segment or handle.name)
           if entry is not None else None)
    if entry is None or shm is None:
        _STATS["arena_misses"] += 1
        return None
    try:
        payload: "memoryview | bytes"
        if entry.base_key is None:
            view = memoryview(shm.buf)[
                entry.payload_offset:entry.payload_offset
                + entry.payload_length
            ]
            _VIEWS.append(view)
            payload = view
        else:
            base = arena_get(handle, entry.base_key)
            if base is None:
                _STATS["arena_misses"] += 1
                return None
            patch = bytes(shm.buf[
                entry.payload_offset:entry.payload_offset
                + entry.payload_length
            ])
            payload = bpatch(bytes(base.payload), patch)
        if hashlib.sha256(bytes(payload)).hexdigest() != entry.digest:
            _STATS["arena_corrupt"] += 1
            return None
        meta = loads(bytes(shm.buf[
            entry.meta_offset:entry.meta_offset + entry.meta_length
        ]))
        version, policy_name, now_ms, externals = meta
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
# resident arena: daemon-owned, refcounted, evictable
# ----------------------------------------------------------------------
#: Default budget for resident template bytes (segments with zero
#: references beyond this get evicted, least-recently-used first).
DEFAULT_RESIDENT_BUDGET = 256 * 1024 * 1024


@dataclass
class _Resident:
    """One template's segment inside a :class:`ResidentArena`."""

    shm: object
    entry: ArenaEntry
    size: int
    refs: int = 0
    last_use: int = 0


class ResidentArena:
    """Long-lived template arena for the simulation daemon.

    Where :class:`TemplateArena` packs one batch's templates into a
    single segment and unlinks it when the coordinator's run ends, the
    resident arena keeps **one segment per template**, refcounted by
    the jobs that hold a handle over it, and evicts explicitly: a
    segment is unlinked only when nothing references it and the
    resident byte budget demands room (LRU first), or at daemon
    shutdown (:meth:`destroy`).  Templates stay warm across requests —
    the whole point of fleet-as-a-service.

    Only full payloads are stored (no sibling deltas): eviction must
    never be able to strand a delta entry whose base is gone.

    Not thread-safe by design — the daemon drives it from one event
    loop.  Failure modes mirror the batch arena: no shared memory on
    the host means :meth:`publish` returns ``False`` and jobs fall back
    to the disk store, byte-identically.
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
        return sum(res.size for res in self._resident.values())

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
        if key in self._resident:
            self._touch(key)
            self.warm_hits += 1
            return True
        if not arena_available():
            return False
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
        entry = ArenaEntry(
            meta_offset=0,
            meta_length=len(meta),
            payload_offset=len(meta),
            payload_length=len(payload),
            digest=digest,
            segment=shm.name,
        )
        self._resident[key] = _Resident(shm=shm, entry=entry, size=total)
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
        entries = []
        for key in keys:
            resident = self._resident[key]
            resident.refs += 1
            self._touch(key)
            entries.append((key, resident.entry))
        if not entries:
            return None
        return ArenaHandle(name="", entries=tuple(entries))

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
        """Unlink every segment, referenced or not (daemon shutdown)."""
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
