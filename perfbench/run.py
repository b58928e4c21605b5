"""Host-time benchmark of the repro simulator stack.

    python3 perfbench/run.py --workload fleet|hunt|sweep|serve|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each measurement runs in fresh
processes (``worker.py``) against the checkout's own ``src``: several
set-up-only processes give the median ``setup_s``, then one process
measures for ``--seconds``.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs the outside-in layer
trace instead and reports the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object::

    {"correct": true, "attempted": 25, "failed": 0, "metrics": {...}}

Exits non-zero, printing no result, when the checkout has no program to
measure or a measurement process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("fleet", "hunt", "sweep", "serve")

#: Set-up-only processes per run; with the measuring process's own
#: set-up they give the median ``setup_s``.
SETUP_PROBES = 3

#: A run must finish inside this budget, whatever the workload does.
RUN_BUDGET_S = 170.0

#: How each metric reads on each workload.  ``latency_p50_s`` is
#: printed, not gated: see NOTES.md.
ALIASES = {
    "fleet": {"throughput_per_s": "devices_per_s",
              "latency_p50_s": "run_p50_s (180 devices)",
              "latency_p90_s": "run_tail_s"},
    "hunt": {"throughput_per_s": "apps_per_s",
             "latency_p50_s": "hunt_p50_s (12 apps)",
             "latency_p90_s": "hunt_tail_s"},
    "sweep": {"throughput_per_s": "runs_per_s (cold)",
              "latency_p50_s": "warm_pass_p50_s",
              "latency_p90_s": "warm_pass_tail_s"},
    "serve": {"throughput_per_s": "jobs_per_s",
              "latency_p50_s": "request_p50_s",
              "latency_p90_s": "request_p90_s"},
}
PRINTED = {"latency_p50_s": "s"}


class RunFailed(RuntimeError):
    pass


def _worker(workload: str, seed: int, seconds: float, mode: str,
            scratch: Path, deadline: float) -> dict:
    """Run one worker process to completion; returns its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(scratch)
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
        "--scratch", str(scratch), "--t0", repr(time.monotonic()),
    ]
    # Its own session, so a timeout can stop the whole tree (the serve
    # workload's daemon and pool workers included).
    proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as error:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            raise RunFailed(f"{workload} {mode} worker ran out of time")
        raise
    if proc.returncode != 0:
        raise RunFailed(f"{workload} {mode} worker exited "
                        f"{proc.returncode}:\n{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scratch: Path, deadline: float) -> dict:
    probes = [_worker(workload, seed, seconds, "setup", scratch, deadline)
              for _ in range(SETUP_PROBES)]
    report = _worker(workload, seed, seconds,
                     "trace" if trace else "measure", scratch, deadline)
    # Operations a set-up checks count in every process that ran them.
    for probe in probes:
        for key in ("attempted", "failed"):
            report[key] += probe[key]
        report["reasons"].extend(probe["reasons"])
    setups = [probe["setup_s"] for probe in probes] + [report["setup_s"]]
    metrics = report["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(setups)
    report["setups"] = setups
    return report


def _units(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def describe(workload: str, seed: int, report: dict, units: dict,
             trace: bool) -> list[str]:
    """Human-readable lines for one workload's report."""
    metrics = report["metrics"]
    failed, attempted = report["failed"], report["attempted"]
    lines = [f"== {workload} (seed {seed}) =="]
    if trace:
        lines.append(f"  traced cycles {metrics['_traced_cycles']}, "
                     f"{metrics['_spans']} spans")
        for name in sorted(units):
            if metrics.get(name):
                lines.append(f"  {name:40s} {metrics[name]:12.6g} "
                             f"{units[name]}")
    else:
        aliases = ALIASES[workload]
        for name, unit in {**units, **PRINTED}.items():
            label = aliases.get(name, name)
            lines.append(f"  {label:28s} {metrics[name]:12.6g} "
                         f"{unit:6s} [{name}]")
        if workload == "sweep":
            warm = metrics["_items_per_op"] / metrics["latency_p50_s"]
            lines.append(f"  {'warm_runs_per_s':28s} {warm:12.6g} 1/s")
        lines.append(
            f"  tail quantile p{100 * metrics['_tail_q']:.0f} of "
            f"{metrics['_latency_samples']} samples; "
            f"{metrics['_ops']} operations; "
            f"setups {', '.join(f'{s:.3f}' for s in report['setups'])} s")
    lines.append(f"  {'failed_frac':28s} {failed / max(1, attempted):12.6g} "
                 f"ratio  ({failed} of {attempted})")
    lines.extend(f"  FAILED: {reason}" for reason in report["reasons"])
    return lines


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the repro simulator stack.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0x5EED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # A terminated run stops its workers too (see _worker).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    trace = bool(args.trace)
    units = _units(trace)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    scratch = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    reports = {}
    try:
        for name in names:
            reports[name] = run_workload(name, args.seed, args.seconds,
                                         trace, scratch, deadline)
            print("\n".join(describe(name, args.seed, reports[name], units,
                                     trace)), flush=True)
    except RunFailed as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    metrics = {}
    for name, report in reports.items():
        prefix = "" if len(reports) == 1 else f"{name}."
        for metric, unit in units.items():
            metrics[prefix + metric] = {
                "value": report["metrics"][metric], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
