"""The keyed store behind both engine caches: hits, persistence,
invalidation, corruption, capacity, and failed writes.

Each store-contract class runs once against the result cache and once
(through a subclass) against the snapshot store: they are one
implementation with two codecs, so they must keep one contract.
"""

import json
import os

import pytest

from repro.apps.appset27 import build_appset27
from repro.engine.batch import POLICIES, RunRequest, execute_request
from repro.engine.cache import ResultCache
from repro.engine.codec import decode_result, encode_result
from repro.engine.snapshots import SnapshotStore
from repro.engine.store import atomic_write
from repro.sim.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SystemSnapshot,
    dumps,
    loads,
)
from repro.system import AndroidSystem


def _app():
    return build_appset27()[0]


def _result():
    return execute_request(RunRequest.handling("rchdroid", _app()))


def _encoded(result):
    return json.dumps(encode_result(result), sort_keys=True)


class _Results:
    """The result cache: JSON entries under ``v<schema>/``."""

    def make(self, root, version=None):
        if version is None:
            return ResultCache(root=root)
        return ResultCache(root=root, schema_version=version)

    def key(self, version=None):
        return RunRequest.handling("rchdroid", _app()).cache_key(version)

    def value(self):
        return _result()

    def same(self, left, right):
        return _encoded(left) == _encoded(right)

    def mislabel(self, path):
        """Rewrite the entry so its embedded key names another entry."""
        payload = json.loads(path.read_text())
        payload["key"] = "0" * 64
        path.write_text(json.dumps(payload))


class _Snapshots:
    """The snapshot store: pickled snapshots under ``v<fmt>-py<XY>/``."""

    def make(self, root, version=None):
        store = SnapshotStore(root=root)
        if version is not None:  # as if SNAPSHOT_FORMAT_VERSION were it
            store.tag = store.tag.replace(f"v{SNAPSHOT_FORMAT_VERSION}-",
                                          f"v{version}-", 1)
        return store

    def key(self, version=None):
        return f"{version or 0:02d}" + "ab" * 31

    def value(self):
        system = AndroidSystem(policy=POLICIES["rchdroid"](), seed=7)
        system.launch(_app())
        system.run_for(100.0)
        return SystemSnapshot.capture(system)

    def same(self, left, right):
        return bytes(left.payload) == bytes(right.payload)

    def mislabel(self, path):
        """Rewrite the entry so it claims another snapshot format."""
        record = list(loads(path.read_bytes()))
        record[0] = SNAPSHOT_FORMAT_VERSION + 1
        path.write_bytes(dumps(tuple(record)))


class TestCodec:
    def test_handling_round_trips_exactly(self):
        result = _result()
        again = decode_result(encode_result(result))
        assert again == result
        assert again.episodes[0] == result.episodes[0]
        assert isinstance(again.episodes[0], tuple)

    def test_issue_round_trips_exactly(self):
        result = execute_request(RunRequest.issue("android10", _app()))
        again = decode_result(encode_result(result))
        assert again == result
        assert again.issue is result.issue


class TestMemoryTier:
    flavour = _Results()

    def test_miss_then_hit(self, tmp_path):
        cache = self.flavour.make(tmp_path)
        key = self.flavour.key()
        hit, _ = cache.get(key)
        assert not hit
        value = self.flavour.value()
        cache.put(key, value)
        hit, cached = cache.get(key)
        assert hit
        assert cached is value  # tier 1 returns the stored object
        assert cache.stats.memory_hits == 1
        assert cache.stats.misses == 1

    def test_memory_only_mode(self):
        cache = self.flavour.make(None)
        cache.put("k", self.flavour.value())
        hit, _ = cache.get("k")
        assert hit

    def test_capacity_evicts_least_recently_used(self):
        cache = self.flavour.make(None)
        cache.capacity = 2
        value = self.flavour.value()
        cache.put("a", value)
        cache.put("b", value)
        assert cache.get("a")[0]  # "a" is now the most recently used
        cache.put("c", value)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert len(cache) == 2

    def test_zero_capacity_is_disk_only(self, tmp_path):
        cache = self.flavour.make(tmp_path)
        cache.capacity = 0
        key = self.flavour.key()
        value = self.flavour.value()
        cache.put(key, value)
        assert len(cache) == 0
        hit, cached = cache.get(key)
        assert hit and self.flavour.same(cached, value)
        assert len(cache) == 0  # a disk hit is not promoted either
        assert cache.stats.disk_hits == 1


class TestSnapshotMemoryTier(TestMemoryTier):
    flavour = _Snapshots()


class TestDiskTier:
    flavour = _Results()

    def test_persists_across_instances(self, tmp_path):
        key = self.flavour.key()
        value = self.flavour.value()
        self.flavour.make(tmp_path).put(key, value)

        fresh = self.flavour.make(tmp_path)
        hit, cached = fresh.get(key)
        assert hit
        assert fresh.stats.disk_hits == 1
        assert self.flavour.same(cached, value)
        # the hit was promoted to tier 1
        hit, _ = fresh.get(key)
        assert fresh.stats.memory_hits == 1

    def test_schema_version_bump_invalidates(self, tmp_path):
        old = self.flavour.make(tmp_path, version=1)
        old.put(self.flavour.key(1), self.flavour.value())

        new = self.flavour.make(tmp_path, version=2)
        hit, _ = new.get(self.flavour.key(2))
        assert not hit
        # the old entry lives under its own tag, so even a key shared
        # across versions cannot collide
        hit, _ = new.get(self.flavour.key(1))
        assert not hit
        # and the keys themselves differ too
        assert self.flavour.key(1) != self.flavour.key(2)

    def test_corrupt_file_is_a_miss(self, tmp_path):
        key = self.flavour.key()
        cache = self.flavour.make(tmp_path)
        cache.put(key, self.flavour.value())
        path = cache._path(key)
        path.write_text("{ not json")

        fresh = self.flavour.make(tmp_path)
        hit, _ = fresh.get(key)
        assert not hit

    def test_wrong_key_in_payload_is_a_miss(self, tmp_path):
        key = self.flavour.key()
        cache = self.flavour.make(tmp_path)
        cache.put(key, self.flavour.value())
        self.flavour.mislabel(cache._path(key))

        fresh = self.flavour.make(tmp_path)
        hit, _ = fresh.get(key)
        assert not hit

    def test_unwritable_root_degrades_to_memory(self, tmp_path):
        blocker = tmp_path / "flat"
        blocker.write_text("in the way")  # a file where the dir should go
        cache = self.flavour.make(blocker / "sub")
        cache.put("k", self.flavour.value())
        hit, _ = cache.get("k")
        assert hit  # memory tier still served it

    def test_failed_publish_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        key = self.flavour.key()
        cache = self.flavour.make(tmp_path)
        monkeypatch.setattr(os, "replace", refuse)
        cache.put(key, self.flavour.value())
        monkeypatch.undo()
        assert list(tmp_path.rglob("*.tmp*")) == []
        assert not cache._path(key).exists()
        hit, _ = cache.get(key)
        assert hit and cache.stats.memory_hits == 1


class TestSnapshotDiskTier(TestDiskTier):
    flavour = _Snapshots()


class TestAtomicWrite:
    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "f.json"
        atomic_write(path, "old")
        atomic_write(path, b"new", fsync=True)
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]

    def test_failed_write_removes_temp_and_keeps_old(self, tmp_path):
        path = tmp_path / "f.json"
        atomic_write(path, "old")
        with pytest.raises(TypeError):
            atomic_write(path, object())  # not bytes: the write raises
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]
