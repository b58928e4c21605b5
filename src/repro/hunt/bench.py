"""Benchmark and acceptance gates for the bug hunter.

``python -m repro bench-engine hunt [--apps N] [-o PATH] [--check]``
measures the three properties the hunter's design leans on and writes
``BENCH_hunt.json``:

* **generator throughput** — corpus synthesis must stay negligible next
  to simulation (``HUNT_GENERATOR_RATE_GATE`` apps/s floor), or scaling
  the corpus stops being free;
* **cached-search speedup** — a re-hunt over the same corpus against a
  warm result cache must beat the cold hunt by
  ``HUNT_CACHED_SPEEDUP_GATE``×: every probe of one ``(app, policy,
  seed)`` keys the same cache entries, so the second pass should be
  pure lookups;
* **report byte identity** — the canonical ``HuntReport.to_json()``
  must not depend on worker count (``--jobs 1`` vs ``--jobs 2``), the
  same identity the CI smoke job checks end to end through the CLI,
  nor on prefix sharing (the default hunt vs one with
  ``configure(snapshots=False)``).  The sharing-on/sharing-off time
  ratio and the count of prefix groups that forked or ran fresh under
  the engine's cost rule are reported, not gated: they are host
  timings.

All three run in-process: the hunt's cost is simulation, not
interpreter boot, so subprocess plumbing would only add noise.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from typing import Any

DEFAULT_HUNT_OUTPUT = "BENCH_hunt.json"

#: Corpus synthesis floor, apps per second.  Generation is pure
#: arithmetic over a deterministic rng (measured ~10k/s on one CI
#: core); anything under this means a structural regression, not noise.
HUNT_GENERATOR_RATE_GATE = 500.0

#: A warm re-hunt must beat the cold hunt by this factor: with every
#: probe already in the result cache, the second pass pays lookups and
#: report folding only.
HUNT_CACHED_SPEEDUP_GATE = 2.0

#: Corpus size for the benchmark: big enough that probe execution
#: dominates, small enough that the CI host finishes the cold pass in
#: a couple of seconds.
DEFAULT_HUNT_BENCH_APPS = 60

#: Generator throughput is measured over this many apps regardless of
#: the hunted corpus size, so the rate is stable across ``--apps``.
_GENERATOR_SAMPLE = 1000


def run_hunt_bench(apps: "int | None" = None) -> dict[str, Any]:
    from repro.engine import batch
    from repro.engine.cache import ResultCache
    from repro.hunt.generator import generate_corpus
    from repro.hunt.search import HuntSettings, run_hunt

    apps = DEFAULT_HUNT_BENCH_APPS if apps is None else apps
    report: dict[str, Any] = {
        "host": {"cpu_count": os.cpu_count() or 1},
        "apps": apps,
        "gates": {
            "generator_rate": HUNT_GENERATOR_RATE_GATE,
            "cached_speedup": HUNT_CACHED_SPEEDUP_GATE,
        },
    }

    # --- generator throughput ----------------------------------------
    start = time.perf_counter()
    corpus = generate_corpus(0x5EED, _GENERATOR_SAMPLE)
    generator_s = time.perf_counter() - start
    rate = _GENERATOR_SAMPLE / generator_s if generator_s else float("inf")

    with tempfile.TemporaryDirectory(prefix="repro-hunt-bench-") as root:
        settings = HuntSettings(apps=apps, jobs=1, cache=False)

        # --- cold vs cached hunt -------------------------------------
        cache = ResultCache(root=os.path.join(root, "results"))
        cached_settings = HuntSettings(apps=apps, jobs=1, cache=cache)
        start = time.perf_counter()
        cold = run_hunt(cached_settings)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_hunt(cached_settings)
        warm_s = time.perf_counter() - start

        # --- byte identity across worker counts and prefix sharing ---
        groups_before = batch.prefix_groups.copy()
        start = time.perf_counter()
        serial = run_hunt(settings)
        serial_s = time.perf_counter() - start
        groups = batch.prefix_groups - groups_before
        threaded = run_hunt(HuntSettings(apps=apps, jobs=2, cache=False))
        previous = batch.configure(snapshots=False)
        try:
            start = time.perf_counter()
            unshared = run_hunt(settings)
            unshared_s = time.perf_counter() - start
        finally:
            batch.restore(previous)

    report.update({
        "seconds": {
            "generate_1000": round(generator_s, 4),
            "hunt_cold": round(cold_s, 4),
            "hunt_cached": round(warm_s, 4),
            "hunt_cold_uncached": round(serial_s, 4),
            "hunt_cold_unshared": round(unshared_s, 4),
        },
        "prefix_groups": {"forked": groups["forked"],
                          "fresh": groups["fresh"]},
        "shared_vs_unshared_time": round(serial_s / unshared_s, 2)
        if unshared_s else float("inf"),
        "generator_apps_per_s": round(rate, 1),
        "cached_speedup": round(cold_s / warm_s, 2)
        if warm_s else float("inf"),
        "suspicions": cold.suspicions,
        "search_probes": cold.search_probes,
        "shrink_probes": cold.shrink_probes,
        "findings": len(cold.findings),
        "simulator_bugs": len(cold.simulator_bugs),
        "identical": {
            "cached_vs_cold": warm.to_json() == cold.to_json(),
            "jobs2_vs_jobs1": threaded.to_json() == serial.to_json(),
            "cache_vs_nocache": serial.to_json() == cold.to_json(),
            "shared_vs_unshared": serial.to_json() == unshared.to_json(),
        },
    })
    del corpus
    return report


def check_hunt_bench(report: dict[str, Any]) -> list[str]:
    """Acceptance failures for the hunt benchmark (empty = pass)."""
    failures: list[str] = []
    if "error" in report:
        return [report["error"]]
    gates = report["gates"]
    if report["generator_apps_per_s"] < gates["generator_rate"]:
        failures.append(
            f"generator produced {report['generator_apps_per_s']} "
            f"apps/s (floor {gates['generator_rate']})"
        )
    if report["cached_speedup"] < gates["cached_speedup"]:
        failures.append(
            f"cached hunt only {report['cached_speedup']}x faster than "
            f"cold (gate {gates['cached_speedup']}x)"
        )
    for pair, same in report["identical"].items():
        if not same:
            failures.append(f"{pair}: hunt reports differ")
    if report["simulator_bugs"]:
        failures.append(
            f"hunt flagged {report['simulator_bugs']} simulator bugs"
        )
    return failures


def format_hunt_bench(report: dict[str, Any]) -> str:
    if "error" in report:
        return f"hunt benchmark FAILED: {report['error']}"
    seconds = report["seconds"]
    lines = [
        f"hunt benchmark — {report['apps']} apps, "
        f"host cpus={report['host']['cpu_count']}",
        f"  generate 1000 apps:  {seconds['generate_1000']:8.3f} s   "
        f"({report['generator_apps_per_s']} apps/s, "
        f"floor {report['gates']['generator_rate']})",
        f"  cold hunt:           {seconds['hunt_cold']:8.3f} s   "
        f"({report['search_probes']} search + "
        f"{report['shrink_probes']} shrink probes)",
        f"  cached hunt:         {seconds['hunt_cached']:8.3f} s   "
        f"({report['cached_speedup']}x vs cold, "
        f"gate {report['gates']['cached_speedup']}x)",
        f"  uncached hunt:       {seconds['hunt_cold_uncached']:8.3f} s   "
        f"sharing on, {seconds['hunt_cold_unshared']:.3f} s off "
        f"({report['shared_vs_unshared_time']}x the sharing-off time; "
        f"groups forked {report['prefix_groups']['forked']}, "
        f"fresh {report['prefix_groups']['fresh']})",
        f"  findings: {report['findings']} confirmed from "
        f"{report['suspicions']} suspicions, "
        f"simulator bugs: {report['simulator_bugs']}",
        "  identity: " + ", ".join(
            f"{name}={'ok' if same else 'DIFFERS'}"
            for name, same in report["identical"].items()
        ),
    ]
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    apps: "int | None" = None
    output = DEFAULT_HUNT_OUTPUT
    check = False
    while argv:
        arg = argv.pop(0)
        if arg == "--apps" and argv:
            apps = int(argv.pop(0))
        elif arg in ("-o", "--output") and argv:
            output = argv.pop(0)
        elif arg == "--check":
            check = True
        else:
            print(f"hunt bench: unknown argument {arg!r}",
                  file=sys.stderr)
            return 2
    from repro.engine.bench import write_report

    report = run_hunt_bench(apps=apps)
    write_report(report, output)
    print(format_hunt_bench(report))
    print(f"wrote {output}")
    failures = check_hunt_bench(report)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if (check and failures) else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
