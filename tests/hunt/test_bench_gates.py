"""bench-engine hunt: the acceptance gates over a report."""

from repro.hunt.bench import check_hunt_bench, format_hunt_bench


def _report(*, shared_vs_unshared=True):
    return {
        "host": {"cpu_count": 2},
        "apps": 60,
        "gates": {"generator_rate": 500.0, "cached_speedup": 2.0},
        "seconds": {"generate_1000": 0.08, "hunt_cold": 0.7,
                    "hunt_cached": 0.15, "hunt_cold_uncached": 0.7,
                    "hunt_cold_unshared": 0.75},
        "generator_apps_per_s": 12000.0,
        "cached_speedup": 4.67,
        "prefix_groups": {"forked": 9, "fresh": 209},
        "shared_vs_unshared_time": 0.93,
        "suspicions": 69,
        "search_probes": 207,
        "shrink_probes": 600,
        "findings": 88,
        "simulator_bugs": 0,
        "identical": {"cached_vs_cold": True, "jobs2_vs_jobs1": True,
                      "cache_vs_nocache": True,
                      "shared_vs_unshared": shared_vs_unshared},
    }


def test_good_report_passes():
    assert check_hunt_bench(_report()) == []


def test_sharing_dependent_report_fails():
    failures = check_hunt_bench(_report(shared_vs_unshared=False))
    assert failures == ["shared_vs_unshared: hunt reports differ"]


def test_sharing_time_ratio_is_reported_not_gated():
    report = _report()
    report["shared_vs_unshared_time"] = 3.0
    assert check_hunt_bench(report) == []
    text = format_hunt_bench(report)
    assert "groups forked 9, fresh 209" in text
    assert "shared_vs_unshared=ok" in text
