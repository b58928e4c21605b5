"""Resident template arena: refcounts, eviction, identity, lifecycle.

The resident arena is the daemon's warm path, so the promises here are
sharper than the batch arena's: a template acquired by a running job
must never vanish underneath it (refcounts pin segments against both
LRU eviction and ``evict(all_idle=True)``), eviction is observable only
as a later miss, and ``destroy()`` returns ``/dev/shm`` to exactly its
prior state.
"""

from __future__ import annotations

import glob

import pytest

from repro.fleet.arena import (
    ResidentArena,
    _detach_all,
    arena_available,
    arena_get,
)
from repro.fleet.run import (
    FleetSpec,
    _reset_template_cache,
    capture_template,
    template_key,
)

pytestmark = pytest.mark.skipif(
    not arena_available(), reason="no shared memory on this host"
)

SPEC = FleetSpec(devices_per_cell=2, shard_size=2)


@pytest.fixture(autouse=True)
def _clean_state():
    _reset_template_cache()
    yield
    _detach_all()
    _reset_template_cache()


def _shm_entries() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*"))


def _snap(cell_index=0):
    return capture_template(SPEC, cell_index)


def _key(cell_index=0) -> str:
    return template_key(SPEC, cell_index)


def test_publish_then_warm_counts_reuse():
    arena = ResidentArena()
    try:
        assert not arena.warm(_key())
        assert arena.publish(_key(), _snap())
        assert _key() in arena and len(arena) == 1
        assert arena.warm(_key())
        stats = arena.stats()
        assert stats["template_publishes"] == 1
        assert stats["template_warm_hits"] == 1
        assert stats["resident_bytes"] > 0
    finally:
        arena.destroy()


def test_republish_is_a_warm_hit_not_a_new_segment():
    arena = ResidentArena()
    try:
        arena.publish(_key(), _snap())
        before = _shm_entries()
        assert arena.publish(_key(), _snap())
        assert _shm_entries() == before
        assert arena.stats()["template_publishes"] == 1
        assert arena.stats()["template_warm_hits"] == 1
    finally:
        arena.destroy()


def test_acquired_templates_read_back_byte_identical():
    arena = ResidentArena()
    try:
        snap = _snap()
        arena.publish(_key(), snap)
        handle = arena.acquire([_key()])
        restored = arena_get(handle, _key())
        assert restored is not None
        assert bytes(restored.payload) == bytes(snap.payload)
        assert restored.policy_name == snap.policy_name
        assert restored.externals == snap.externals
        arena.release([_key()])
    finally:
        arena.destroy()
        _detach_all()


def test_acquire_empty_key_set_is_none():
    arena = ResidentArena()
    assert arena.acquire([]) is None


def test_refcounts_pin_segments_against_eviction():
    arena = ResidentArena()
    try:
        arena.publish(_key(0), _snap(0))
        arena.publish(_key(1), _snap(1))
        arena.acquire([_key(0)])
        assert arena.evict(all_idle=True) == 1  # only the idle one
        assert _key(0) in arena and _key(1) not in arena
        arena.release([_key(0)])
        assert arena.evict(all_idle=True) == 1
        assert len(arena) == 0
        assert arena.stats()["template_evictions"] == 2
    finally:
        arena.destroy()


def test_budget_eviction_is_lru_first():
    snap = _snap(0)
    # Budget fits one template: publishing a second evicts the idle
    # least-recently-used first.
    arena = ResidentArena(budget_bytes=len(bytes(snap.payload)) + 4096)
    try:
        arena.publish(_key(0), snap)
        arena.publish(_key(1), _snap(1))
        assert len(arena) == 1
        assert _key(1) in arena and _key(0) not in arena
        assert arena.stats()["template_evictions"] == 1
    finally:
        arena.destroy()


def _segment_bytes(cell_index: int) -> int:
    """The resident size of one template, measured, not estimated."""
    arena = ResidentArena()
    try:
        arena.publish(_key(cell_index), _snap(cell_index))
        return arena.resident_bytes
    finally:
        arena.destroy()


def test_over_budget_template_stays_resident_until_the_next_publish():
    size = _segment_bytes(0)
    arena = ResidentArena(budget_bytes=size - 1)
    try:
        assert arena.publish(_key(0), _snap(0))
        assert _key(0) in arena  # publish() returned True: resident
        assert arena.stats()["template_evictions"] == 0
        handle = arena.acquire([_key(0)])
        assert arena_get(handle, _key(0)) is not None
        arena.release([_key(0)])  # the next pass may now reclaim it
        assert _key(0) not in arena
        assert arena.publish(_key(1), _snap(1))
        assert _key(1) in arena
    finally:
        arena.destroy()
        _detach_all()


def test_release_of_evicted_key_is_ignored():
    arena = ResidentArena()
    try:
        arena.publish(_key(), _snap())
        arena.evict(all_idle=True)
        arena.release([_key()])  # gone already; must not raise
    finally:
        arena.destroy()


def test_eviction_makes_later_reads_miss_not_fail():
    arena = ResidentArena()
    try:
        arena.publish(_key(), _snap())
        handle = arena.acquire([_key()])
        arena.release([_key()])
        arena.evict(all_idle=True)
        assert arena_get(handle, _key()) is None  # miss, never an error
    finally:
        arena.destroy()
        _detach_all()


def test_destroy_returns_dev_shm_to_prior_state():
    before = _shm_entries()
    arena = ResidentArena()
    arena.publish(_key(0), _snap(0))
    arena.publish(_key(1), _snap(1))
    arena.acquire([_key(0)])  # even referenced segments go at shutdown
    assert _shm_entries() != before
    arena.destroy()
    assert _shm_entries() == before
    arena.destroy()  # idempotent
