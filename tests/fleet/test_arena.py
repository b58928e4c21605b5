"""Shared-memory template arena: lifecycle, miss semantics, identity.

The arena is strictly an optimisation under the fork-equals-fresh
contract, so the tests here pin two kinds of promise:

* **lifecycle** — segments never outlive the run (normal exit *and*
  crashed workers leave no ``/dev/shm`` entries), and ``destroy()`` is
  idempotent;
* **miss, never error** — unknown keys, unlinked segments, and corrupt
  bytes all degrade to ``None`` so the caller falls back to disk or a
  cold rebuild, and every fallback path produces byte-identical fleet
  reports.
"""

from __future__ import annotations

import glob
import os
import signal

import pytest

from repro.fleet.arena import (
    ResidentArena,
    _detach_all,
    _reset_arena_stats,
    arena_available,
    arena_get,
    arena_stats,
)
from repro.fleet.run import (
    FleetSpec,
    _reset_template_cache,
    capture_template,
    run_fleet,
    template_key,
)

pytestmark = pytest.mark.skipif(
    not arena_available(), reason="no shared memory on this host"
)

SPEC = FleetSpec(devices_per_cell=4, shard_size=2)


@pytest.fixture(autouse=True)
def _clean_arena_state():
    _reset_template_cache()
    yield
    _detach_all()
    _reset_template_cache()


def _shm_entries() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*"))


def _publish(cell_indices=(0,)):
    """Publish and acquire the cells' templates, as a pool fleet does."""
    keys = {ci: template_key(SPEC, ci) for ci in cell_indices}
    snaps = {keys[ci]: capture_template(SPEC, ci) for ci in cell_indices}
    arena = ResidentArena()
    for key, snap in snaps.items():
        assert arena.publish(key, snap)
    return arena, arena.acquire(list(snaps)), keys, snaps


def _segment(arena, key):
    return arena._resident[key].shm.buf


class TestLifecycle:
    def test_destroy_removes_the_segment(self):
        before = _shm_entries()
        arena, _, _, _ = _publish()
        assert len(_shm_entries()) == len(before) + 1
        arena.destroy()
        assert _shm_entries() == before

    def test_destroy_is_idempotent(self):
        arena, _, _, _ = _publish()
        arena.destroy()
        arena.destroy()

    def test_fleet_run_leaves_no_segments(self):
        before = _shm_entries()
        run_fleet(SPEC, jobs=2)
        assert _shm_entries() == before

    def test_crashed_worker_leaks_nothing(self):
        """A worker that dies with views mapped must not take the
        segment down with it, and the coordinator's destroy() still
        cleans up."""
        before = _shm_entries()
        arena, handle, keys, snaps = _publish()
        key = keys[0]
        pid = os.fork()
        if pid == 0:  # the doomed worker: attach, then die hard
            arena_get(handle, key)
            os.kill(os.getpid(), signal.SIGKILL)
        os.waitpid(pid, 0)
        # Segment still alive and readable after the worker's death...
        _detach_all()
        survivor = arena_get(handle, key)
        assert survivor is not None
        assert bytes(survivor.payload) == bytes(snaps[key].payload)
        # ...and gone after the owner destroys it.
        _detach_all()
        arena.destroy()
        assert _shm_entries() == before


class TestMissSemantics:
    def test_unknown_key_is_a_miss(self):
        arena, handle, _, _ = _publish()
        try:
            _reset_arena_stats()
            assert arena_get(handle, "no-such-key") is None
            assert arena_stats()["arena_misses"] == 1
        finally:
            arena.destroy()

    def test_unlinked_segment_is_a_miss(self):
        arena, handle, keys, _ = _publish()
        arena.destroy()
        _reset_arena_stats()
        assert arena_get(handle, keys[0]) is None
        assert arena_stats()["arena_misses"] == 1

    def test_corrupt_payload_is_a_miss_not_an_error(self):
        arena, handle, keys, _ = _publish()
        try:
            entry = handle.entry(keys[0])
            _segment(arena, keys[0])[entry.meta_length] ^= 0xFF
            _reset_arena_stats()
            assert arena_get(handle, keys[0]) is None
            assert arena_stats()["arena_corrupt"] == 1
        finally:
            arena.destroy()

    def test_corrupt_segment_rebuild_is_byte_identical(self, monkeypatch):
        """End to end: zeroing every resident segment of a ``jobs=2``
        run degrades every worker to the disk/cold fallback, and the
        report stays byte-identical (fork-equals-fresh, pinned)."""
        golden = run_fleet(SPEC, jobs=1).report()

        original = ResidentArena.publish

        def corrupting_publish(self, key, snap):
            published = original(self, key, snap)
            if published:
                segment = _segment(self, key)
                segment[:] = bytes(len(segment))
            return published

        monkeypatch.setattr(ResidentArena, "publish", corrupting_publish)
        corrupted = run_fleet(SPEC, jobs=2, collect_stats=True)
        assert {k: v for k, v in corrupted.report().items()
                if k != "cache"} == golden
        # Workers fell back (disk tier still had the templates).
        stats = corrupted.cache_stats
        assert stats["arena_corrupt"] + stats["arena_misses"] > 0
        assert stats["arena_fallbacks"] > 0
        assert stats["arena_hits"] == 0


class TestZeroCopyAndDeltas:
    def test_full_entry_payload_is_a_shared_view(self):
        arena, handle, keys, snaps = _publish()
        try:
            got = arena_get(handle, keys[0])
            assert isinstance(got.payload, memoryview)
            assert bytes(got.payload) == bytes(snaps[keys[0]].payload)
            assert got.policy_name == snaps[keys[0]].policy_name
            assert got.now_ms == snaps[keys[0]].now_ms
        finally:
            _detach_all()
            arena.destroy()

    def test_pool_fleet_reads_every_template_from_the_arena(self):
        golden = run_fleet(SPEC, jobs=1).to_json()
        pooled = run_fleet(SPEC, jobs=2, collect_stats=True)
        stats = pooled.cache_stats
        assert stats["arena_hits"] > 0
        assert stats["arena_fallbacks"] == 0
        assert stats["disk_reads"] == stats["rebuilds"] == 0
        pooled.cache_stats = None
        assert pooled.to_json() == golden

    def test_restored_template_behaves_identically(self):
        arena, handle, keys, snaps = _publish()
        try:
            via_arena = arena_get(handle, keys[0]).restore()
            direct = snaps[keys[0]].restore()
            via_arena.rotate()
            direct.rotate()
            via_arena.run_until_idle()
            direct.run_until_idle()
            assert via_arena.now_ms == direct.now_ms
            assert (via_arena.last_handling_ms()
                    == direct.last_handling_ms())
        finally:
            _detach_all()
            arena.destroy()
