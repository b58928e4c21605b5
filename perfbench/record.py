"""Record the benchmark's pinned reports and its baseline.

    python3 perfbench/record.py pins [--seeds 0-9,24301]
        Run one full input cycle of fleet, hunt and sweep per seed and
        write the canonical report hashes to ``expected.json``.  Do this
        only when a change is meant to alter report bytes, and say so.

    python3 perfbench/record.py baseline [--seeds 1-10] [--seconds 10]
        Run ``run.py`` once per workload and seed, untraced, plus one
        traced run per workload on the default seed, and write medians,
        quartiles, quartile spreads and the layer table to
        ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record_pins(seeds: list[int]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import EXPECTED_PATH, WORKLOADS, load_expected

    expected = load_expected()
    scratch = ROOT / ".perfbench_tmp" / f"pins-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        for name in ("fleet", "hunt", "sweep"):
            table = expected.setdefault(name, {})
            for seed in seeds:
                table.pop(str(seed), None)
                workload = WORKLOADS[name](seed, scratch)
                table[str(seed)] = workload.reference_outputs()
                print(f"{name} seed {seed}: {table[str(seed)]}", flush=True)
            expected[name] = dict(sorted(table.items(),
                                         key=lambda item: int(item[0])))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n",
                             encoding="utf-8")


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_baseline(seeds: list[int], seconds: float) -> None:
    from stats import quartile_spread
    from workloads import DEFAULT_SEED

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {metric["name"]: metric["bound"]
              for metric in spec["end_to_end"]}
    baseline = {
        "host": {"cpu_count": os.cpu_count(), "python":
                 platform.python_version(), "machine": platform.machine()},
        "seconds": seconds,
        "seeds": seeds,
        "end_to_end": {},
        "layers": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failed = 0
        for seed in seeds:
            result = _run(workload, seed, seconds, 0)
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {name: round(v[-1], 5)
                                   for name, v in values.items()},
                  flush=True)
        rows = {}
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            rows[name] = {"median": statistics.median(series), "q1": q1,
                          "q3": q3, "spread": quartile_spread(series),
                          "bound": bounds[name]}
        rows["failed"] = failed
        baseline["end_to_end"][workload] = rows
        traced = _run(workload, DEFAULT_SEED, seconds, 1)
        baseline["layers"][workload] = {
            name: metric["value"]
            for name, metric in traced["metrics"].items() if metric["value"]
        }
    (HERE / "baseline.json").write_text(
        json.dumps(baseline, indent=1) + "\n", encoding="utf-8")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("pins", "baseline"))
    parser.add_argument("--seeds")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.what == "pins":
        from workloads import DEFAULT_SEED, HELD_OUT_SEED

        record_pins(parse_seeds(args.seeds) if args.seeds
                    else list(range(10)) + [DEFAULT_SEED, HELD_OUT_SEED])
    else:
        record_baseline(parse_seeds(args.seeds or "1-10"), args.seconds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
