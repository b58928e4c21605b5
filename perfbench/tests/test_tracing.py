import importlib
from collections import Counter

import pytest

from tracing import (
    LAYERS,
    CoverageError,
    Installed,
    SpanRecorder,
    check_coverage,
    self_times,
)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_nested_spans_subtract_only_their_direct_children():
    # run_batch [0, 10] > prepare [1, 6] > restore [2, 4]
    recorder = SpanRecorder(FakeClock([0.0, 1.0, 2.0, 4.0, 6.0, 10.0]))
    batch = recorder.begin("engine.batch")
    prepare = recorder.begin("engine.scenario.prepare")
    restore = recorder.begin("sim.snapshot.restore")
    recorder.end(restore)
    recorder.end(prepare)
    recorder.end(batch)
    table = self_times(recorder)
    assert table.self_s == {"engine.batch": 5.0,
                            "engine.scenario.prepare": 3.0,
                            "sim.snapshot.restore": 2.0}
    assert table.covered_s == 10.0


def test_reentrant_spans_of_one_name_are_not_counted_twice():
    # run_batch [0, 10] > execute_request [1, 9] > restore [2, 3],
    # then a sibling restore [9.5, 9.75] directly under run_batch.
    recorder = SpanRecorder(FakeClock(
        [0.0, 1.0, 2.0, 3.0, 9.0, 9.5, 9.75, 10.0]))
    outer = recorder.begin("engine.batch")
    inner = recorder.begin("engine.batch")
    first = recorder.begin("sim.snapshot.restore")
    recorder.end(first)
    recorder.end(inner)
    second = recorder.begin("sim.snapshot.restore")
    recorder.end(second)
    recorder.end(outer)
    table = self_times(recorder)
    assert table.self_s["engine.batch"] == pytest.approx(10.0 - 1.25)
    assert table.self_s["sim.snapshot.restore"] == pytest.approx(1.25)
    assert table.calls == {"engine.batch": 2, "sim.snapshot.restore": 2}
    assert sum(table.self_s.values()) == pytest.approx(table.covered_s)


def test_sequential_roots_add_up_and_leave_gaps_unattributed():
    recorder = SpanRecorder(FakeClock([0.0, 1.0, 3.0, 4.5]))
    recorder.end(recorder.begin("a"))
    recorder.end(recorder.begin("b"))
    assert self_times(recorder).covered_s == pytest.approx(2.5)


def test_wrapper_records_spans_even_when_the_call_raises():
    recorder = SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap("layer", boom)()
    assert recorder.names == ["layer"] and recorder.ends[0] > 0.0


def test_hooks_count_work_done():
    recorder = SpanRecorder()
    hook = LAYERS["engine.cache.get"][1]
    get = recorder.wrap("engine.cache.get", lambda hit: (hit, None), hook)
    get(True), get(False), get(True)
    assert recorder.counters == Counter({"engine.cache.hits": 2})


def _bindings():
    bound = {}
    for sites, _ in LAYERS.values():
        for site in sites:
            module_name, _, path = site.partition(":")
            module = importlib.import_module(module_name)
            if "[*]." in path:
                registry, _, attr = path.partition("[*].")
                bound[site] = [getattr(entry, attr) for entry in
                               getattr(module, registry).values()]
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            bound[site] = (owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr))
    return bound


def test_every_site_resolves_and_is_restored_afterwards():
    before = _bindings()
    with Installed(SpanRecorder()):
        during = _bindings()
    assert _bindings() == before
    assert all(during[site] != before[site] for site in before)


def test_scenario_registry_wrappers_record_the_traced_call():
    from repro.engine import SCENARIOS

    recorder = SpanRecorder()
    original = SCENARIOS["probe"]
    with Installed(recorder):
        assert SCENARIOS["probe"] is not original
        assert SCENARIOS["probe"].divergent == original.divergent
    assert SCENARIOS["probe"] is original


def test_a_site_that_no_longer_resolves_fails_loudly():
    layers = {"gone": (("repro.engine.batch:no_such_function",), None)}
    with pytest.raises(CoverageError, match="no_such_function"):
        with Installed(SpanRecorder(), layers):
            pass
    layers = {"gone": (("repro.no_such_module:f",), None)}
    with pytest.raises(CoverageError, match="does not import"):
        with Installed(SpanRecorder(), layers):
            pass


def test_a_failed_install_leaves_nothing_patched():
    import repro.engine.batch as batch

    original = batch.run_batch
    layers = {"ok": (("repro.engine.batch:run_batch",), None),
              "gone": (("repro.engine.batch:no_such_function",), None)}
    with pytest.raises(CoverageError):
        with Installed(SpanRecorder(), layers):
            pass
    assert batch.run_batch is original


def test_an_idle_expected_layer_fails_loudly():
    recorder = SpanRecorder()
    recorder.end(recorder.begin("workload.drive"))
    table = self_times(recorder)
    check_coverage(table, ("workload.drive",))
    with pytest.raises(CoverageError, match="oracle.digest"):
        check_coverage(table, ("workload.drive", "oracle.digest"))
