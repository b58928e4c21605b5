"""One workload in a fresh process: set up, measure, check, report.

``run.py`` starts this file once per measurement so that imports,
template builds and peak RSS belong to the workload alone.  The last
line of standard output is one JSON object for ``run.py`` to read.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|measure|trace --t0 MONOTONIC --scratch DIR
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
from tracing import (  # noqa: E402
    LAYERS,
    Installed,
    SpanRecorder,
    check_coverage,
    self_times,
)
from workloads import WORKLOADS, Workload  # noqa: E402

#: Per-layer metrics besides ``<layer>.self_s``/``.calls``, with units.
DERIVED_LAYER_METRICS = {
    "workload.drive.us_per_op": "us",
    "sim.snapshot.restores_per_capture": "ratio",
    "engine.cache.hit_ratio": "ratio",
    "serve.submit_s": "s",
    "serve.queue_wait_s": "s",
    "serve.stream_s": "s",
    "serve.units_run": "count",
    "serve.template_warm_hits": "count",
    "unattributed_frac": "ratio",
    "trace_overhead_frac": "ratio",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in LAYERS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(DERIVED_LAYER_METRICS)
    return units


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, problems: "list[str]") -> None:
        """Operations just attempted, with the problems found in them."""
        self.attempted += attempted
        self.failed += min(attempted, len(problems))
        self._keep(problems)

    def fail(self, problems: "list[str]") -> None:
        """Later checks of operations already counted: each problem is
        one of them found incorrect."""
        self.failed += len(problems)
        self._keep(problems)

    def _keep(self, problems) -> None:
        self.reasons.extend(list(problems)[:max(0, 3 - len(self.reasons))])


def set_up(workload: Workload, tally: Tally) -> None:
    """Set the workload up and count the operations set-up checked."""
    workload.setup()
    tally.add(workload.setup_checked, workload.setup_problems)


def measure(workload: Workload, seconds: float, tally: Tally) -> dict:
    """Untraced: operations cycle through the inputs for ``seconds``."""
    latencies = []
    items = rate_s = 0.0
    index = 0
    start = time.perf_counter()
    while index == 0 or time.perf_counter() - start < seconds:
        inp = workload.input(index)
        result = workload.op(workload.prepare(inp))
        tally.add(result.attempted, workload.verify(index, inp, result))
        items += result.items
        rate_s += result.rate_s
        latencies.extend(result.latencies)
        index += 1
    tally.fail(workload.finish())
    if not items:  # a closed loop: operations completed per second
        items, rate_s = len(latencies), sum(latencies)
    tail_q, tail = stats.tail_percentile(latencies)
    return {
        "throughput_per_s": items / rate_s,
        "latency_p50_s": stats.median(latencies),
        "latency_p90_s": tail,
        "peak_rss_mb": workload.peak_rss_mb(),
        "_tail_q": tail_q,
        "_ops": index,
        "_items_per_op": items / index,
        "_latency_samples": len(latencies),
    }


def trace(workload: Workload, seconds: float, tally: Tally) -> dict:
    """Alternate untraced and traced cycles of the same inputs.

    Spans are taken only inside traced operations; the wrappers are
    installed around each traced operation and removed before its
    output is checked, so checking never shows up as layer time.
    """
    recorder = SpanRecorder()
    untraced_s = traced_s = 0.0
    traced_cycles = 0
    index = 0
    start = time.perf_counter()
    pair_s = 0.0
    # Whole pairs of cycles: the first always, then only while one more
    # pair (as long as the last) fits in ``seconds``.
    while (traced_cycles == 0
           or time.perf_counter() - start + pair_s <= seconds):
        pair_start = time.perf_counter()
        for traced in (False, True):
            for slot in range(workload.cycle):
                inp = workload.input(index)
                arg = workload.prepare(inp)
                if traced:
                    with Installed(recorder, workload.layers):
                        began = time.perf_counter()
                        result = workload.op(arg, recorder)
                        traced_s += time.perf_counter() - began
                else:
                    began = time.perf_counter()
                    result = workload.op(arg)
                    untraced_s += time.perf_counter() - began
                tally.add(result.attempted,
                          workload.verify(index, inp, result))
                index += 1
        traced_cycles += 1
        pair_s = time.perf_counter() - pair_start
    tally.fail(workload.finish())
    table = self_times(recorder)
    check_coverage(table, workload.expected_layers)
    per_cycle = 1.0 / traced_cycles
    metrics = {name: 0.0 for name in layer_metric_units()}
    for name in LAYERS:
        metrics[f"{name}.self_s"] = table.self_s.get(name, 0.0) * per_cycle
        metrics[f"{name}.calls"] = table.calls.get(name, 0) * per_cycle
    ops = recorder.counters["workload.drive.ops"]
    if ops:
        metrics["workload.drive.us_per_op"] = \
            1e6 * table.self_s["workload.drive"] / ops
    captures = table.calls.get("sim.snapshot.capture", 0)
    if captures:
        metrics["sim.snapshot.restores_per_capture"] = \
            table.calls.get("sim.snapshot.restore", 0) / captures
    gets = table.calls.get("engine.cache.get", 0)
    if gets:
        metrics["engine.cache.hit_ratio"] = \
            recorder.counters["engine.cache.hits"] / gets
    metrics.update(workload.layer_metrics(2 * traced_cycles))
    metrics["unattributed_frac"] = (traced_s - table.covered_s) / traced_s
    metrics["trace_overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["_traced_cycles"] = traced_cycles
    metrics["_spans"] = len(recorder.names)
    return metrics


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the process was started")
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    import repro

    source = Path(__file__).resolve().parent.parent / "src"
    if source not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {source}")
    workload = WORKLOADS[args.workload](args.seed, Path(args.scratch))
    tally = Tally()
    try:
        set_up(workload, tally)
        setup_s = time.monotonic() - args.t0
        if args.mode == "setup":
            metrics = {}
        elif args.mode == "measure":
            metrics = measure(workload, args.seconds, tally)
        else:
            metrics = trace(workload, args.seconds, tally)
    finally:
        workload.close()
    print(json.dumps({
        "setup_s": setup_s,
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
