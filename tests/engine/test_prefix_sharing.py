"""Prefix-snapshot sharing in run_batch: grouping, forking, verification,
and the per-batch cost rule that decides whether a group forks."""

import dataclasses
import json
import os

import pytest

from repro.apps.appset27 import build_appset27
from repro.apps.benchmark import make_benchmark_app
from repro.engine import (
    SCENARIOS,
    ResultCache,
    RunRequest,
    SnapshotStore,
    encode_result,
    run_batch,
)
from repro.engine import batch
from repro.engine.batch import ForkLedger, _execute_unit, _resolve_jobs
from repro.errors import SnapshotError
from repro.hunt.search import HuntSettings, run_hunt
from repro.sim.snapshot import SystemSnapshot
from repro.trace.tracer import TraceSession


def _encoded(results):
    return [json.dumps(encode_result(r), sort_keys=True) for r in results]


def _gc_requests(thresholds=(10.0, 20.0, 30.0)):
    app = make_benchmark_app(4)
    return [
        RunRequest.gc(app, thresh_t_s=t, duration_ms=60_000.0)
        for t in thresholds
    ]


def _probe_requests(delays=(200.0, 1_000.0, 6_000.0)):
    app = make_benchmark_app(4)
    return [
        RunRequest.probe("rchdroid", app, audit_delay_ms=d) for d in delays
    ]


class TestPrefixKey:
    def test_divergent_kwargs_share_a_prefix(self):
        first, second, _ = _gc_requests()
        assert first.prefix_key() == second.prefix_key()
        assert first.cache_key() != second.cache_key()

    def test_seed_splits_the_prefix(self):
        app = make_benchmark_app(4)
        assert (RunRequest.gc(app, seed=1, thresh_t_s=10.0).prefix_key()
                != RunRequest.gc(app, seed=2, thresh_t_s=10.0).prefix_key())

    def test_policy_splits_the_prefix(self):
        app = make_benchmark_app(4)
        assert (RunRequest.probe("android10", app).prefix_key()
                != RunRequest.probe("rchdroid", app).prefix_key())

    def test_prefix_kwargs_split_the_prefix(self):
        app = make_benchmark_app(4)
        assert (RunRequest.probe("rchdroid", app,
                                 storm_rotations=3).prefix_key()
                != RunRequest.probe("rchdroid", app).prefix_key())

    def test_key_is_memoised(self):
        request = _gc_requests()[0]
        assert request.prefix_key() is request.prefix_key()


class TestForkedEqualsFresh:
    @pytest.mark.parametrize("build", [_gc_requests, _probe_requests])
    def test_shared_batch_matches_unshared(self, build):
        requests = build()
        shared = run_batch(requests, snapshots=True)
        fresh = run_batch(requests, snapshots=False)
        assert _encoded(shared) == _encoded(fresh)

    def test_mixed_groups_keep_submission_order(self):
        probe = _probe_requests()
        gc = _gc_requests()
        # Interleave the two groups; results must realign by position.
        requests = [probe[0], gc[0], probe[1], gc[1], probe[2], gc[2]]
        shared = run_batch(requests, snapshots=True)
        fresh = run_batch(requests, snapshots=False)
        assert _encoded(shared) == _encoded(fresh)

    def test_parallel_shared_batch_is_identical(self):
        requests = _probe_requests() + _gc_requests()
        assert (_encoded(run_batch(requests, jobs=2, snapshots=True))
                == _encoded(run_batch(requests, jobs=1, snapshots=False)))

    def test_verify_forks_passes_on_deterministic_scenarios(self):
        requests = _gc_requests()
        verified = run_batch(requests, snapshots=True, verify_forks=True)
        assert _encoded(verified) == _encoded(run_batch(requests,
                                                        snapshots=False))


class TestVerifyForksDetectsMismatch:
    def test_divergent_fresh_path_raises(self, monkeypatch):
        requests = _probe_requests()
        spec = SCENARIOS[requests[0].kind]
        broken = dataclasses.replace(
            spec,
            run=lambda *args, **kwargs: dataclasses.replace(
                spec.run(*args, **kwargs), handling_count=999),
        )
        monkeypatch.setitem(SCENARIOS, requests[0].kind, broken)
        with pytest.raises(SnapshotError):
            run_batch(requests, snapshots=True, verify_forks=True)


class TestStoreWiring:
    def test_singletons_never_touch_the_store(self):
        store = SnapshotStore()
        app = build_appset27()[0]
        _execute_unit([RunRequest.handling("rchdroid", app)], store, False)
        assert len(store) == 0
        assert store.stats.misses == 0

    def test_group_stores_one_snapshot(self):
        store = SnapshotStore()
        results = _execute_unit(_probe_requests(), store, False)
        assert len(results) == 3
        assert len(store) == 1
        assert store.stats.stores == 1

    def test_disk_tier_survives_new_divergent_values(self, tmp_path):
        # First batch populates result + snapshot caches on disk.
        cache = ResultCache(root=tmp_path)
        run_batch(_probe_requests((200.0, 1_000.0)), cache=cache,
                  snapshots=True)
        snap_dir = tmp_path / "snapshots"
        assert any(snap_dir.rglob("*.snap"))
        # A NEW divergent value misses the result cache but forks from
        # the persisted prefix snapshot; the result must stay identical.
        fresh_cache = ResultCache(root=tmp_path)
        novel = _probe_requests((3_000.0,))
        from_disk = run_batch(novel, cache=fresh_cache, snapshots=True)
        assert (_encoded(from_disk)
                == _encoded(run_batch(novel, snapshots=False)))

    def test_corrupt_disk_snapshot_is_a_miss(self, tmp_path):
        store = SnapshotStore(root=tmp_path)
        live_store = SnapshotStore(root=tmp_path)
        _execute_unit(_probe_requests(), live_store, False)
        [path] = list(tmp_path.rglob("*.snap"))
        path.write_bytes(b"not a snapshot")
        assert store.get(next(iter(live_store._memory))) == (False, None)
        assert store.stats.misses == 1


class TestTraceSessionGating:
    def test_session_disables_sharing_but_results_hold(self):
        requests = _probe_requests((200.0, 1_000.0))
        fresh = run_batch(requests, snapshots=False)
        with TraceSession():
            inside = run_batch(requests, snapshots=True)
        assert _encoded(inside) == _encoded(fresh)


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def host_costs(monkeypatch):
    """Replace the batch clock with a fake one that only moves when a
    prepare, capture or restore runs, by the given seconds each; returns
    the list of captured systems."""
    clock = _FakeClock()
    monkeypatch.setattr(batch, "_clock", clock)
    captures = []

    def install(prepare_s, capture_s, restore_s):
        for kind, spec in list(SCENARIOS.items()):
            def prepare(*args, _prepare=spec.prepare, **kwargs):
                clock.now += prepare_s
                return _prepare(*args, **kwargs)
            monkeypatch.setitem(SCENARIOS, kind,
                                dataclasses.replace(spec, prepare=prepare))
        real_capture = SystemSnapshot.capture.__func__
        real_restore = SystemSnapshot.restore

        def capture(cls, system, **kwargs):
            clock.now += capture_s
            captures.append(system)
            return real_capture(cls, system, **kwargs)

        def restore(self):
            clock.now += restore_s
            return real_restore(self)

        monkeypatch.setattr(SystemSnapshot, "capture", classmethod(capture))
        monkeypatch.setattr(SystemSnapshot, "restore", restore)
        return captures

    return install


#: Fake per-operation seconds shaped like the measured hunt groups (a
#: restore costs twice the prepare it replaces) and like the probe
#: sweep (a prepare costs several restores).
CHEAP_PREFIX = (0.2, 1.1, 0.45)
EXPENSIVE_PREFIX = (60.0, 19.0, 8.9)


def _multi_group_requests():
    """Six three-cell probe groups over two (kind, policy) pairs."""
    return [
        RunRequest.probe(policy, make_benchmark_app(views),
                         audit_delay_ms=delay)
        for policy in ("runtimedroid", "rchdroid")
        for views in (4, 6, 8)
        for delay in (200.0, 1_000.0, 6_000.0)
    ]


class TestForkLedger:
    def test_no_estimate_forks(self):
        assert ForkLedger().pays(("probe", "rchdroid"), 2, 0.0)

    def test_needs_both_a_capture_and_a_restore(self):
        ledger = ForkLedger()
        ledger.restored(("probe", "rchdroid"), 5.0)
        assert ledger.pays(("probe", "rchdroid"), 2, 0.0)

    def test_rule_weighs_saved_prepares_against_one_capture(self):
        ledger = ForkLedger()
        key = ("probe", "rchdroid")
        ledger.captured(key, 3.0)
        ledger.restored(key, 1.0)
        ledger.restored(key, 3.0)           # mean restore 2.0
        assert not ledger.pays(key, 2, 5.0)  # 1 * 3.0 == 3.0
        assert ledger.pays(key, 3, 5.0)      # 2 * 3.0 > 3.0
        assert not ledger.pays(key, 50, 2.0)

    def test_estimates_are_per_kind_and_policy(self):
        ledger = ForkLedger()
        ledger.captured(("probe", "rchdroid"), 100.0)
        ledger.restored(("probe", "rchdroid"), 1.0)
        assert not ledger.pays(("probe", "rchdroid"), 3, 2.0)
        assert ledger.pays(("probe", "runtimedroid"), 3, 2.0)
        assert ledger.pays(("gc", "rchdroid"), 3, 2.0)


class TestCostRule:
    def test_cheap_prefix_captures_once_per_kind_and_policy(self,
                                                            host_costs):
        captures = host_costs(*CHEAP_PREFIX)
        requests = _multi_group_requests()
        before = batch.prefix_groups.copy()
        shared = run_batch(requests, jobs=1, snapshots=True)
        assert len(captures) == 2
        counts = batch.prefix_groups - before
        assert counts == {"forked": 2, "fresh": 4}
        assert _encoded(shared) == _encoded(
            run_batch(requests, jobs=1, snapshots=False))

    def test_expensive_prefix_groups_all_fork(self, host_costs):
        captures = host_costs(*EXPENSIVE_PREFIX)
        requests = _multi_group_requests()
        shared = run_batch(requests, jobs=1, snapshots=True)
        assert len(captures) == 6
        assert _encoded(shared) == _encoded(
            run_batch(requests, jobs=1, snapshots=False))

    def test_no_ledger_state_leaks_between_calls(self, host_costs):
        captures = host_costs(*CHEAP_PREFIX)
        requests = _multi_group_requests()
        run_batch(requests, jobs=1, snapshots=True)
        run_batch(requests, jobs=1, snapshots=True)
        # Each call learns its own costs: one capture per pair per call.
        assert len(captures) == 4

    def test_fresh_group_stores_nothing(self, host_costs):
        host_costs(*CHEAP_PREFIX)
        ledger = ForkLedger()
        store = SnapshotStore()
        _execute_unit(_probe_requests(), store, False, ledger)
        assert store.stats.stores == 1
        # Same (kind, policy), another prefix: the ledger now knows a
        # restore costs more than the prepare it would replace.
        second = [dataclasses.replace(request, seed=request.seed + 1)
                  for request in _probe_requests((50.0, 75.0))]
        results = _execute_unit(second, store, True, ledger)
        assert store.stats.stores == 1
        assert _encoded(results) == _encoded(
            run_batch(second, snapshots=False))

    def test_parallel_batch_matches_serial(self, host_costs):
        host_costs(*CHEAP_PREFIX)
        requests = _multi_group_requests()
        assert (_encoded(run_batch(requests, jobs=2, snapshots=True))
                == _encoded(run_batch(requests, jobs=1, snapshots=True)))

    @pytest.mark.parametrize("forced", [True, False])
    def test_hunt_report_is_identical_forced_either_way(self, monkeypatch,
                                                        forced):
        settings = HuntSettings(apps=12, jobs=1, cache=False)
        reference = run_hunt(settings).to_json()
        monkeypatch.setattr(ForkLedger, "pays",
                            lambda self, key, cells, prepare_s: forced)
        before = batch.prefix_groups.copy()
        assert run_hunt(settings).to_json() == reference
        counts = batch.prefix_groups - before
        assert counts["forked" if forced else "fresh"] > 0
        assert counts["fresh" if forced else "forked"] == 0


class TestResolveJobs:
    def test_auto_caps_at_unit_count(self):
        assert _resolve_jobs("auto", 1) == 1

    def test_auto_caps_at_cpu_count(self):
        assert _resolve_jobs("auto", 10_000) == max(1, os.cpu_count() or 1)

    def test_explicit_integer_wins(self):
        assert _resolve_jobs(3, 100) == 3

    def test_floor_is_one(self):
        assert _resolve_jobs(0, 5) == 1
