"""Outside-in layer tracing: wrap repro's public functions, record spans.

The program under test is not edited.  For a traced operation the
benchmark replaces each layer's functions *at their binding sites* with
thin wrappers that record a span (name, start, end, parent) in memory,
runs the operation, and puts every original back.  Self time is a
span's duration minus the part covered by its direct children, so
nested and re-entrant calls (``execute_request`` inside ``run_batch``,
a restore inside a scenario inside a batch) are never counted twice.

Binding sites matter: a function imported by name into another module
must be wrapped there, a registry that captured callables at import
(``repro.engine.scenarios.SCENARIOS``) is patched entry by entry, and
methods are patched on their class.  A target that no longer resolves
raises :class:`CoverageError` instead of silently reporting a layer as
free.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable


class CoverageError(RuntimeError):
    """A traced name no longer resolves, or an expected layer went idle."""


class SpanRecorder:
    """Spans kept in memory as parallel lists; index = span id."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")

    def wrap(self, name: str, fn: Callable,
             hook: "Callable[[Counter, Any], None] | None" = None) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if hook is not None:
                hook(counters, result)
            return result

        return traced


@dataclass
class LayerTable:
    """Per-name self time and call count, plus the time spans covered."""

    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    covered_s: float = 0.0


def self_times(recorder: SpanRecorder) -> LayerTable:
    """Fold the recorder's spans into self time per name."""
    count = len(recorder.names)
    child_s = [0.0] * count
    table = LayerTable()
    for index in range(count):
        duration = recorder.ends[index] - recorder.starts[index]
        parent = recorder.parents[index]
        if parent >= 0:
            child_s[parent] += duration
        else:
            table.covered_s += duration
    for index, name in enumerate(recorder.names):
        duration = recorder.ends[index] - recorder.starts[index]
        table.self_s[name] = table.self_s.get(name, 0.0) \
            + duration - child_s[index]
        table.calls[name] = table.calls.get(name, 0) + 1
    return table


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------
def _count_ops(counters: Counter, result: Any) -> None:
    counters["workload.drive.ops"] += result.ops_played


def _count_hits(counters: Counter, result: Any) -> None:
    counters["engine.cache.hits"] += 1 if result[0] else 0


#: Layer name -> (binding sites, result hook).  A site is
#: ``"module:attr"``, ``"module:Class.method"`` or
#: ``"module:REGISTRY[*].field"`` (every entry of a dict of frozen
#: dataclasses).
LAYERS: dict[str, tuple[tuple[str, ...], Any]] = {
    "workload.drive": ((
        "repro.fleet.device:drive",
        "repro.hunt.session:drive",
        "repro.oracle.session:drive",
        "repro.harness.sessions:drive",
    ), _count_ops),
    "workload.generate": ((
        "repro.fleet.run:device_workload",
        "repro.fleet.run:phased_workload",
        "repro.fleet.population:device_workload",
    ), None),
    "sim.snapshot.restore": (
        ("repro.sim.snapshot:SystemSnapshot.restore",), None),
    "sim.snapshot.capture": (
        ("repro.sim.snapshot:SystemSnapshot.capture",), None),
    "engine.scenario.prepare": (
        ("repro.engine.scenarios:SCENARIOS[*].prepare",), None),
    "engine.scenario.finish": (
        ("repro.engine.scenarios:SCENARIOS[*].finish",), None),
    "engine.scenario.run": (
        ("repro.engine.scenarios:SCENARIOS[*].run",), None),
    "engine.batch": ((
        "repro.engine.batch:run_batch",
        "repro.engine.batch:execute_request",
    ), None),
    "engine.fingerprint": ((
        "repro.engine.batch:fingerprint",
        "repro.fleet.run:fingerprint",
        "repro.engine.fingerprint:fingerprint",
    ), None),
    "engine.cache.get": (
        ("repro.engine.cache:ResultCache.get",), _count_hits),
    "engine.cache.put": (
        ("repro.engine.cache:ResultCache.put",), None),
    "engine.codec.encode": ((
        "repro.engine.cache:encode_result",
        "repro.engine.codec:encode_result",
    ), None),
    "engine.codec.decode": ((
        "repro.engine.cache:decode_result",
        "repro.engine.codec:decode_result",
    ), None),
    "oracle.digest": ((
        "repro.oracle.digest:capture_digest",
        "repro.oracle.session:capture_digest",
    ), None),
    "fleet.template_build": (
        ("repro.fleet.run:capture_template",), None),
    "fleet.fold": ((
        "repro.fleet.aggregate:CohortAccumulator.add",
        "repro.fleet.aggregate:CohortAccumulator.merge",
    ), None),
    "hunt.generate": (("repro.hunt.search:generate_corpus",), None),
    "hunt.rules": (("repro.hunt.search:inspect_corpus",), None),
    "hunt.shrink": ((
        "repro.hunt.shrink:ScriptShrinker.candidates",
        "repro.hunt.shrink:ScriptShrinker.advance",
    ), None),
}


class Installed:
    """Context manager: wrappers in place inside, originals outside."""

    def __init__(self, recorder: SpanRecorder,
                 layers: "dict[str, tuple[tuple[str, ...], Any]]" = LAYERS):
        self.recorder = recorder
        self.layers = layers
        self._undo: list[Callable[[], None]] = []

    def __enter__(self) -> "Installed":
        try:
            for name, (sites, hook) in self.layers.items():
                for site in sites:
                    self._patch(site, name, hook)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch(self, site: str, name: str, hook) -> None:
        module_name, _, path = site.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise CoverageError(f"{site}: module does not import: {exc}")
        wrap = functools.partial(self.recorder.wrap, name, hook=hook)
        if "[*]." in path:
            registry_name, _, attr = path.partition("[*].")
            registry = _resolve(module, registry_name, site)
            for key, entry in list(registry.items()):
                if not hasattr(entry, attr):
                    raise CoverageError(f"{site}: entry {key!r} has no "
                                        f"{attr!r}")
                registry[key] = dataclasses.replace(
                    entry, **{attr: wrap(getattr(entry, attr))})
                self._undo.append(
                    functools.partial(registry.__setitem__, key, entry))
            return
        owner_path, _, attr = path.rpartition(".")
        owner = _resolve(module, owner_path, site) if owner_path else module
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
            if raw is None:
                raise CoverageError(f"{site}: {owner.__name__} defines no "
                                    f"{attr!r} of its own")
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(wrap(raw.__func__))
            else:
                replacement = wrap(raw)
        else:
            raw = getattr(owner, attr, None)
            if not callable(raw):
                raise CoverageError(f"{site}: no callable {attr!r}")
            replacement = wrap(raw)
        setattr(owner, attr, replacement)
        self._undo.append(functools.partial(setattr, owner, attr, raw))


def _resolve(module: Any, dotted: str, site: str) -> Any:
    target = module
    for part in dotted.split("."):
        if not hasattr(target, part):
            raise CoverageError(f"{site}: {part!r} does not resolve")
        target = getattr(target, part)
    return target


def check_coverage(table: LayerTable, expected: "tuple[str, ...]") -> None:
    """Fail when a layer the workload must hit recorded no call."""
    idle = [name for name in expected if not table.calls.get(name)]
    if idle:
        raise CoverageError(
            "expected layers recorded zero calls: " + ", ".join(idle))
