"""Tiny-size runs of every workload: every metric of BENCHMARK.json is
emitted, every check passes, and the runner's output contract holds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker
from workloads import (
    FleetWorkload,
    HuntWorkload,
    ServeWorkload,
    SweepWorkload,
    load_expected,
)

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Not pinned in expected.json (the tiny sizes would not match a pin),
#: so the repeat-consistency check runs instead.
SEED = 987654321


class TinyFleet(FleetWorkload):
    cycle = 2
    devices_per_cell = 2


class TinyHunt(HuntWorkload):
    cycle = 2
    apps = 4


class TinySweep(SweepWorkload):
    warm_passes = 2

    def prepare(self, inp):
        requests, root = super().prepare(inp)
        # One probe group (prefix shared), a few singleton runs.
        return requests[:24] + requests[-4:], root


class TinyServe(ServeWorkload):
    cycle = 3
    pattern = ("oracle", "fleet", "hunt")
    fleet_devices = (9,)
    hunt_apps = 2


@pytest.mark.parametrize("cls", [TinyFleet, TinyHunt, TinySweep, TinyServe],
                         ids=lambda cls: cls.name)
def test_every_metric_is_emitted_and_checked(cls, tmp_path):
    assert str(SEED) not in load_expected().get(cls.name, {})
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s"}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for mode, expected in (("measure", end_to_end), ("trace", per_layer)):
        workload = cls(SEED, tmp_path)
        tally = worker.Tally()
        try:
            worker.set_up(workload, tally)
            run = worker.measure if mode == "measure" else worker.trace
            metrics = run(workload, 0.0, tally)
        finally:
            workload.close()
        assert expected <= set(metrics), expected - set(metrics)
        assert tally.failed == 0, tally.reasons
        assert tally.attempted >= 1
        if mode == "trace":
            assert metrics["unattributed_frac"] < 0.5


class TamperedServe(TinyServe):
    """Alters every fleet report the daemon sent, after it was received."""

    def verify(self, index, inp, result):
        problems = super().verify(index, inp, result)
        kind, params, report = self.done[-1]
        if kind == "fleet":
            self.done[-1] = (kind, params, report.replace("{", "{ ", 1))
        return problems


class RefusedColdServe(TinyServe):
    """Reports the cold set-up request as having failed."""

    def verify(self, index, inp, result):
        problems = super().verify(index, inp, result)
        return problems + ["cold request refused"] if index < 0 else problems


@pytest.mark.parametrize("cls,wrong", [(TamperedServe, "differs"),
                                       (RefusedColdServe, "refused")],
                         ids=["tampered-report", "failed-setup-request"])
def test_a_wrong_serve_report_is_a_failure(cls, wrong, tmp_path):
    workload = cls(SEED, tmp_path)
    tally = worker.Tally()
    try:
        worker.set_up(workload, tally)
        worker.measure(workload, 0.0, tally)
    finally:
        workload.close()
    fleets = sum(kind == "fleet" for kind, _, _ in workload.done)
    expected = fleets if cls is TamperedServe else 1
    assert tally.failed == expected >= 1
    assert tally.failed <= tally.attempted
    assert any(wrong in reason for reason in tally.reasons)


def test_layer_units_match_the_benchmark_file():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == worker.layer_metric_units()


def test_runner_prints_the_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "fleet",
         "--seed", str(SEED), "--seconds", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_runner_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"),
         "--workload", "fleet", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
