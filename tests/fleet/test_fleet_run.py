"""Fleet executor: shard planning, determinism across execution shapes,
fault injection, and the per-worker template store."""

import pytest

from repro.engine.snapshots import SnapshotStore
from repro.errors import FleetError
from repro.fleet import (
    FaultPlan,
    FleetSpec,
    NO_FAULTS,
    merge_fleet_results,
    plan_shards,
    run_fleet,
)
from repro.fleet.faults import apply_slow_storage
from repro.fleet.run import (
    _reset_template_cache,
    _run_shard_task,
    capture_template,
    template_cache_stats,
    template_key,
)

SMALL = FleetSpec(devices_per_cell=3, shard_size=2)


class TestFleetSpec:
    def test_cells_are_app_major(self):
        spec = FleetSpec()
        cells = spec.cells()
        assert len(cells) == 9
        assert [policy for _, policy in cells[:3]] == list(spec.policies)
        packages = [app.package for app, _ in cells]
        assert packages[0] == packages[1] == packages[2]

    def test_rejects_unknown_policy(self):
        with pytest.raises(FleetError):
            FleetSpec(policies=("rchdroid", "nope"))

    def test_rejects_empty_cohort(self):
        with pytest.raises(FleetError):
            FleetSpec(devices_per_cell=0)


class TestShardPlan:
    def test_shards_never_span_cells(self):
        spec = FleetSpec(devices_per_cell=5, shard_size=2)
        for shard in plan_shards(spec):
            assert 0 <= shard.start < shard.stop <= spec.devices_per_cell

    def test_plan_covers_every_device_exactly_once(self):
        spec = FleetSpec(devices_per_cell=5, shard_size=2)
        shards = plan_shards(spec)
        per_cell: dict[int, list[int]] = {}
        for shard in shards:
            per_cell.setdefault(shard.cell_index, []).extend(
                range(shard.start, shard.stop))
        for members in per_cell.values():
            assert sorted(members) == list(range(5))

    def test_shard_ids_are_sequential(self):
        shards = plan_shards(FleetSpec(devices_per_cell=5, shard_size=2))
        assert [shard.shard_id for shard in shards] == list(
            range(len(shards)))

    def test_plan_is_independent_of_jobs(self):
        """The plan is a pure function of the spec — there is no jobs
        parameter to pass, which is the point."""
        spec = FleetSpec(devices_per_cell=7, shard_size=3)
        assert plan_shards(spec) == plan_shards(spec)


class TestDeterminism:
    def test_serial_and_sharded_reports_are_byte_identical(self):
        serial = run_fleet(SMALL, jobs=1)
        sharded = run_fleet(SMALL, jobs=4)
        assert serial.to_json() == sharded.to_json()

    def test_resumed_run_merges_byte_identically(self):
        full = run_fleet(SMALL, jobs=1)
        ids = [shard.shard_id for shard in plan_shards(SMALL)]
        half = len(ids) // 2
        first = run_fleet(SMALL, jobs=1, shard_ids=ids[:half])
        second = run_fleet(SMALL, jobs=1, shard_ids=ids[half:])
        merged = merge_fleet_results(first, second)
        assert merged.to_json() == full.to_json()
        # Merge order must not matter either.
        assert merge_fleet_results(second, first).to_json() == full.to_json()

    def test_forked_devices_match_cold_setup(self):
        """The cohort template is a pure optimisation: forking from it
        must be byte-identical to preparing every device from scratch."""
        forked = run_fleet(SMALL, jobs=1)
        cold = run_fleet(SMALL, jobs=1, use_templates=False)
        assert forked.to_json() == cold.to_json()

    def test_different_seeds_differ(self):
        assert (run_fleet(SMALL, jobs=1).to_json()
                != run_fleet(
                    FleetSpec(devices_per_cell=3, shard_size=2, seed=99),
                    jobs=1).to_json())

    def test_result_keeps_no_per_device_data(self):
        result = run_fleet(SMALL, jobs=1)
        assert result.devices == SMALL.total_devices
        for accumulator in result.cohorts:
            assert not hasattr(accumulator, "outcomes")
            assert accumulator.devices == SMALL.devices_per_cell


class TestPartialRuns:
    def test_unknown_shard_ids_are_rejected(self):
        with pytest.raises(FleetError):
            run_fleet(SMALL, jobs=1, shard_ids=[9999])

    def test_overlapping_partials_cannot_merge(self):
        part = run_fleet(SMALL, jobs=1, shard_ids=[0, 1])
        with pytest.raises(FleetError):
            merge_fleet_results(part, part)

    def test_mismatched_specs_cannot_merge(self):
        left = run_fleet(SMALL, jobs=1, shard_ids=[0])
        other_spec = FleetSpec(devices_per_cell=3, shard_size=2, seed=1)
        right = run_fleet(other_spec, jobs=1, shard_ids=[1])
        with pytest.raises(FleetError):
            merge_fleet_results(left, right)


class TestFaults:
    def test_draw_is_deterministic(self):
        plan = FaultPlan.uniform(0.5)
        assert [plan.draw(7, member) for member in range(50)] == [
            plan.draw(7, member) for member in range(50)]

    def test_fraction_zero_and_one(self):
        assert not any(NO_FAULTS.draw(7, member).any
                       for member in range(50))
        everything = FaultPlan.uniform(1.0)
        assert all(everything.draw(7, member).any for member in range(50))

    def test_raising_one_fraction_keeps_other_assignments(self):
        """Unconditional draws: the slow-storage knob must not reshuffle
        which devices get low-memory kills."""
        base = FaultPlan(low_memory_kill_fraction=0.3)
        raised = FaultPlan(low_memory_kill_fraction=0.3,
                           slow_storage_fraction=0.9)
        for member in range(100):
            assert (base.draw(7, member).low_memory_kill
                    == raised.draw(7, member).low_memory_kill)

    def test_slow_storage_multiplies_cost_fields(self):
        from repro.system import AndroidSystem

        system = AndroidSystem()
        base = system.ctx.costs.save_state_base_ms
        apply_slow_storage(system, 4.0)
        assert system.ctx.costs.save_state_base_ms == pytest.approx(4 * base)

    def test_faulted_fleet_differs_and_counts_faulted_devices(self):
        clean = run_fleet(SMALL, jobs=1)
        faulted_spec = FleetSpec(devices_per_cell=3, shard_size=2,
                                 faults=FaultPlan.uniform(0.5))
        faulted = run_fleet(faulted_spec, jobs=1)
        assert faulted.to_json() != clean.to_json()
        assert sum(acc.faulted_devices for acc in faulted.cohorts) > 0
        assert all(acc.faulted_devices == 0 for acc in clean.cohorts)

    def test_fault_assignment_is_shared_across_cells(self):
        """Device i carries the same faults in every cohort, so faulted
        counts agree cell-to-cell."""
        spec = FleetSpec(devices_per_cell=4, shard_size=2,
                         faults=FaultPlan.uniform(0.5))
        result = run_fleet(spec, jobs=1)
        counts = {acc.faulted_devices for acc in result.cohorts}
        assert len(counts) == 1


class TestWorkerTemplateCache:
    def test_template_bytes_are_read_from_disk_once_per_worker(
            self, tmp_path):
        """Satellite: a worker restores a cohort's template from disk
        once, then serves every later shard of that cohort from its
        in-process cache."""
        spec = FleetSpec(devices_per_cell=4, shard_size=2)
        key = template_key(spec, 0)
        SnapshotStore(root=tmp_path).put(key, capture_template(spec, 0))

        _reset_template_cache()
        try:
            shards = [shard for shard in plan_shards(spec)
                      if shard.cell_index == 0]
            assert len(shards) == 2
            for shard in shards:
                _run_shard_task((spec, shard, str(tmp_path), key, None))
            stats = template_cache_stats()
            assert stats["templates_cached"] == 1
            assert stats["disk_reads"] == 1
            assert stats["rebuilds"] == 0
        finally:
            _reset_template_cache()

    def test_missing_template_rebuilds_cold(self, tmp_path):
        """A worker that cannot find its template on disk treats that as
        a cache miss and rebuilds it from scratch, byte-identically."""
        spec = FleetSpec(devices_per_cell=2, shard_size=2)
        shard = plan_shards(spec)[0]
        key = template_key(spec, shard.cell_index)
        SnapshotStore(root=tmp_path).put(
            key, capture_template(spec, shard.cell_index))
        _reset_template_cache()
        try:
            warm = _run_shard_task((spec, shard, str(tmp_path), key, None))
        finally:
            _reset_template_cache()
        try:
            cold = _run_shard_task(
                (spec, shard, str(tmp_path / "empty"), key, None))
            stats = template_cache_stats()
            assert stats["rebuilds"] == 1
            assert stats["disk_reads"] == 0
        finally:
            _reset_template_cache()
        assert cold.cohort.row() == warm.cohort.row()

    def test_truncated_template_rebuilds_byte_identically(self, tmp_path):
        """Satellite: a cohort template truncated on disk mid-run is a
        miss, not an error — the worker rebuilds cold and the shard's
        results are byte-identical to the intact-template run."""
        spec = FleetSpec(devices_per_cell=4, shard_size=2)
        shard = plan_shards(spec)[0]
        key = template_key(spec, shard.cell_index)
        store = SnapshotStore(root=tmp_path)
        store.put(key, capture_template(spec, shard.cell_index))

        _reset_template_cache()
        try:
            warm = _run_shard_task((spec, shard, str(tmp_path), key, None))
        finally:
            _reset_template_cache()

        # Truncate the template bytes in place, as a crashed coordinator
        # or a mid-write eviction would.
        victim = store._path(key)
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 2])

        try:
            cold = _run_shard_task((spec, shard, str(tmp_path), key, None))
            stats = template_cache_stats()
            assert stats["rebuilds"] == 1
            assert stats["disk_reads"] == 0
        finally:
            _reset_template_cache()
        assert cold.cohort.row() == warm.cohort.row()


class TestReportShape:
    def test_report_contains_cohorts_and_policy_rollups(self):
        report = run_fleet(SMALL, jobs=1).report()
        assert report["fleet"]["devices"] == SMALL.total_devices
        assert len(report["cohorts"]) == 9
        policies = [row["policy"] for row in report["policies"]]
        assert policies == sorted(SMALL.policies)
        rollup_devices = sum(row["devices"] for row in report["policies"])
        assert rollup_devices == SMALL.total_devices

    def test_policies_differ_in_outcomes(self):
        """The fleet is policy-differentiating: stock crashes somewhere,
        rchdroid never does."""
        spec = FleetSpec(devices_per_cell=6, shard_size=4)
        report = run_fleet(spec, jobs=1).report()
        by_policy = {row["policy"]: row for row in report["policies"]}
        assert by_policy["android10"]["crash_rate"] > 0
        assert by_policy["rchdroid"]["crash_rate"] == 0
        assert by_policy["runtimedroid"]["crash_rate"] == 0
        assert (by_policy["runtimedroid"]["handling"]["mean_ms"]
                < by_policy["android10"]["handling"]["mean_ms"])


class TestFleetOracle:
    """Sampled differential oracle folded into the fleet report."""

    RATE = FleetSpec(devices_per_cell=6, shard_size=2, oracle_rate=0.5)

    def test_rate_outside_unit_interval_is_rejected(self):
        from repro.errors import OracleError
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(OracleError):
                FleetSpec(oracle_rate=bad)

    def test_sampling_is_a_pure_function_of_seed_and_member(self):
        from repro.oracle import sampled
        draws = [sampled(7, member, 0.25) for member in range(200)]
        assert draws == [sampled(7, member, 0.25) for member in range(200)]
        assert 0 < sum(draws) < 200

    def test_oracle_section_only_present_when_sampling(self):
        plain = run_fleet(SMALL, jobs=1)
        assert plain.oracle is None
        assert "oracle" not in plain.report()
        sampled_run = run_fleet(self.RATE, jobs=1)
        assert sampled_run.oracle is not None
        section = sampled_run.report()["oracle"]
        assert section["rate"] == 0.5
        assert section["sessions"] > 0
        assert section["verdicts"].get("SIMULATOR_BUG", 0) == 0
        assert section["simulator_bug_details"] == []

    def test_oracle_report_identical_across_jobs(self):
        serial = run_fleet(self.RATE, jobs=1)
        sharded = run_fleet(self.RATE, jobs=4)
        assert serial.to_json() == sharded.to_json()

    def test_oracle_report_survives_resume(self):
        full = run_fleet(self.RATE, jobs=1)
        ids = [shard.shard_id for shard in plan_shards(self.RATE)]
        half = len(ids) // 2
        merged = merge_fleet_results(
            run_fleet(self.RATE, jobs=1, shard_ids=ids[:half]),
            run_fleet(self.RATE, jobs=1, shard_ids=ids[half:]),
        )
        assert merged.to_json() == full.to_json()

    def test_mismatched_oracle_rates_cannot_merge(self):
        left = run_fleet(self.RATE, jobs=1, shard_ids=[0])
        other = FleetSpec(devices_per_cell=6, shard_size=2, oracle_rate=0.25)
        right = run_fleet(other, jobs=1, shard_ids=[1])
        with pytest.raises(FleetError):
            merge_fleet_results(left, right)

    def test_sessions_run_once_per_sampled_app_member_pair(self):
        from repro.oracle import sample_members
        result = run_fleet(self.RATE, jobs=1)
        apps = len(self.RATE.cells()) // len(self.RATE.policies)
        expected = apps * len(sample_members(
            self.RATE.seed, range(self.RATE.devices_per_cell), 0.5))
        assert result.oracle.sessions == expected


class TestSerialBypass:
    """A resolved jobs of 1 must skip the process pool entirely (PR 9):
    no pool spawn, no arena publish, no per-task pickling — and with a
    snapshot_root the bypass still keeps the template store warm for
    long-lived callers like the serve daemon."""

    def test_jobs_1_never_reaches_the_pool(self, monkeypatch):
        import repro.fleet.run as fleet_run

        def boom(*args, **kwargs):
            raise AssertionError("jobs=1 must not enter _run_sharded")

        expected = run_fleet(SMALL, jobs=4).to_json()
        monkeypatch.setattr(fleet_run, "_run_sharded", boom)
        assert run_fleet(SMALL, jobs=1).to_json() == expected

    def test_single_shard_bypasses_even_with_many_jobs(self, monkeypatch):
        import repro.fleet.run as fleet_run

        one_shard = FleetSpec(devices_per_cell=1, shard_size=64,
                              policies=("android10",))
        # One shard per cell, but restrict to one shard total.
        ids = [plan_shards(one_shard)[0].shard_id]
        monkeypatch.setattr(
            fleet_run, "_run_sharded",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError()),
        )
        run_fleet(one_shard, jobs=8, shard_ids=ids)

    def test_bypass_with_snapshot_root_warms_the_store(self, tmp_path):
        _reset_template_cache()
        root = str(tmp_path / "templates")
        first = run_fleet(SMALL, jobs=1, snapshot_root=root)
        assert template_cache_stats()["rebuilds"] > 0

        _reset_template_cache()
        second = run_fleet(SMALL, jobs=1, snapshot_root=root)
        stats = template_cache_stats()
        assert stats["rebuilds"] == 0  # everything came from the store
        assert stats["disk_reads"] > 0
        assert second.to_json() == first.to_json()
        _reset_template_cache()
