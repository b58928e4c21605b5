"""The four benchmark workloads, driven through repro's public API.

Each workload turns the benchmark seed into a cycle of inputs, runs one
*operation* per input, and checks every output.  Setup is everything a
fresh process does before its first timed operation: imports, corpus
generation, the first template build, daemon start-up and its first
(cold) request.

* ``fleet`` — ``run_fleet`` at jobs=1 over the default corpus with 10%
  of devices faulted: per-core simulator throughput (session driver plus
  fork-from-template).
* ``hunt`` — ``run_hunt`` at jobs=1, cold, no result cache: capture-heavy
  search and shrink where every prefix buys only ~2 restores.
* ``sweep`` — one ``run_batch`` request list (prefix-heavy probe sweep,
  Fig. 14 matrix, Table 5 matrix) cold into a fresh disk cache, then
  warm through new caches on the same root.
* ``serve`` — a ``repro serve --jobs 1`` daemon driven by one closed-loop
  client with a seeded mix of fleet, oracle and hunt jobs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from tracing import LAYERS, SpanRecorder

#: The seed later claims are made on, and the one they are re-checked on.
DEFAULT_SEED = 0x5EED
HELD_OUT_SEED = 0x0C0FFEE

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def derive(seed: int, tag: str, index: int = 0) -> int:
    """A 31-bit input seed, pure in (benchmark seed, tag, index)."""
    digest = hashlib.sha256(f"{tag}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def short_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class OpResult:
    """What one timed operation produced."""

    output: Any
    items: int = 0
    """Work items in the rate sample (devices, apps, runs); 0 = none."""
    rate_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    attempted: int = 1


class Workload:
    name = ""
    cycle = 1
    layers: dict = LAYERS
    expected_layers: tuple[str, ...] = ()
    #: Operations ``setup`` ran and checked, and the problems found.
    setup_checked = 0
    setup_problems: "list[str]" = []

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self._pins = load_expected().get(self.name, {}).get(str(seed))
        self._seen: dict[int, str] = {}

    # -- lifecycle ----------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def input(self, index: int) -> Any:
        raise NotImplementedError

    def prepare(self, inp: Any) -> Any:
        """Untimed per-operation preparation; returns the op's argument."""
        return inp

    def op(self, arg: Any, recorder: "SpanRecorder | None" = None) \
            -> OpResult:
        raise NotImplementedError

    def verify(self, index: int, inp: Any, result: OpResult) -> list[str]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks that run after the timed loop, of operations already
        counted; one string per operation found incorrect."""
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_metrics(self, cycles_run: int) -> dict[str, float]:
        """Workload-specific layer metrics; ``cycles_run`` counts every
        cycle since set-up, traced or not."""
        return {}

    def close(self) -> None:
        pass

    # -- shared checks -------------------------------------------------
    def check_pin(self, index: int, text: str) -> list[str]:
        """Reports must hash to the pinned value for this seed; on other
        seeds a repeated input must reproduce its first report."""
        slot = index % self.cycle
        digest = short_hash(text)
        if self._pins is not None:
            if digest != self._pins[slot]:
                return [f"{self.name} input {slot}: report hash {digest} "
                        f"!= pinned {self._pins[slot]}"]
            return []
        first = self._seen.setdefault(slot, digest)
        if first != digest:
            return [f"{self.name} input {slot}: report changed on repeat "
                    f"({first} then {digest})"]
        return []

    def reference_outputs(self) -> list[str]:
        """Canonical report hashes for one full cycle (to pin them)."""
        self.setup()
        try:
            hashes = []
            for index in range(self.cycle):
                result = self.op(self.prepare(self.input(index)))
                hashes.append(short_hash(self.canonical(result)))
            return hashes
        finally:
            self.close()

    def canonical(self, result: OpResult) -> str:
        raise NotImplementedError


# ----------------------------------------------------------------------
class FleetWorkload(Workload):
    name = "fleet"
    cycle = 8
    devices_per_cell = 20
    expected_layers = (
        "workload.drive", "workload.generate", "sim.snapshot.restore",
        "sim.snapshot.capture", "fleet.template_build", "fleet.fold",
    )

    def setup(self) -> None:
        from repro import fleet

        self.fleet = fleet
        # Lazy imports and the first template build happen here.
        fleet.run_fleet(self._spec(self.input(0), 1), jobs=1)

    def _spec(self, seed: int, per_cell: int):
        return self.fleet.FleetSpec(
            devices_per_cell=per_cell,
            faults=self.fleet.FaultPlan.uniform(0.1), seed=seed)

    def input(self, index: int) -> int:
        return derive(self.seed, "fleet", index % self.cycle)

    def prepare(self, inp: int):
        return self._spec(inp, self.devices_per_cell)

    def op(self, spec, recorder=None) -> OpResult:
        start = time.perf_counter()
        result = self.fleet.run_fleet(spec, jobs=1)
        elapsed = time.perf_counter() - start
        return OpResult(result, spec.total_devices, elapsed, [elapsed])

    def canonical(self, result: OpResult) -> str:
        return result.output.to_json()

    def verify(self, index, inp, result) -> list[str]:
        problems = self.check_pin(index, self.canonical(result))
        if result.output.devices != result.items:
            problems.append(f"fleet covered {result.output.devices} of "
                            f"{result.items} devices")
        return problems


# ----------------------------------------------------------------------
class HuntWorkload(Workload):
    name = "hunt"
    cycle = 32
    apps = 12
    expected_layers = (
        "workload.drive", "sim.snapshot.restore", "sim.snapshot.capture",
        "engine.scenario.prepare", "engine.scenario.finish",
        "engine.scenario.run", "engine.batch", "engine.fingerprint",
        "oracle.digest", "hunt.generate", "hunt.rules", "hunt.shrink",
    )

    def setup(self) -> None:
        from repro import hunt

        self.hunt = hunt
        hunt.run_hunt(self._settings(self.input(0), 2))

    def _settings(self, seed: int, apps: int):
        return self.hunt.HuntSettings(apps=apps, seed=seed, jobs=1,
                                      cache=False)

    def input(self, index: int) -> int:
        return derive(self.seed, "hunt", index % self.cycle)

    def prepare(self, inp: int):
        return self._settings(inp, self.apps)

    def op(self, settings, recorder=None) -> OpResult:
        start = time.perf_counter()
        report = self.hunt.run_hunt(settings)
        elapsed = time.perf_counter() - start
        return OpResult(report, settings.apps, elapsed, [elapsed])

    def canonical(self, result: OpResult) -> str:
        return result.output.to_json()

    def verify(self, index, inp, result) -> list[str]:
        report = result.output
        problems = self.check_pin(index, self.canonical(result))
        if report.simulator_bugs:
            problems.append(f"hunt seed {inp}: simulator bugs "
                            f"{report.simulator_bugs[:2]}")
        if report.app_count != result.items:
            problems.append(f"hunt covered {report.app_count} of "
                            f"{result.items} apps")
        return problems


# ----------------------------------------------------------------------
def sweep_requests(seed: int) -> list:
    """The sweep's request list, built from fresh app objects."""
    from repro.apps.benchmark import make_benchmark_app
    from repro.apps.dsl import IssueKind
    from repro.apps.top100 import build_top100
    from repro.engine import RunRequest

    top100 = build_top100(seed)
    probe_app = make_benchmark_app(512)
    requests = [
        RunRequest.probe(policy, probe_app, seed, storm_rotations=24,
                         audit_delay_ms=125.0 * step)
        for policy in ("runtimedroid", "rchdroid")
        for step in range(1, 25)
    ]
    requests += [
        RunRequest.handling(policy, app, seed)
        for app in top100 if app.issue is IssueKind.VIEW_STATE_LOSS
        for policy in ("android10", "rchdroid")
    ]
    requests += [
        RunRequest.issue(policy, app, seed)
        for app in top100
        for policy in ("android10", "rchdroid")
    ]
    return requests


class SweepWorkload(Workload):
    name = "sweep"
    warm_passes = 10
    expected_layers = (
        "sim.snapshot.restore", "sim.snapshot.capture",
        "engine.scenario.prepare", "engine.scenario.finish",
        "engine.scenario.run", "engine.batch", "engine.fingerprint",
        "engine.cache.get", "engine.cache.put", "engine.codec.encode",
        "engine.codec.decode",
    )

    def setup(self) -> None:
        from repro.engine import ResultCache, batch, encode_result

        self.batch = batch
        self.ResultCache = ResultCache
        self.encode_result = encode_result
        self._passes = 0
        requests = sweep_requests(self.input(0))
        # One cold and one warm pass over a probe group and a singleton.
        root = self._fresh_root()
        for _ in range(2):
            batch.run_batch(requests[:2] + requests[-1:], jobs=1,
                            cache=ResultCache(root=root))
        shutil.rmtree(root)

    def _fresh_root(self) -> Path:
        self._passes += 1
        return self.scratch / f"sweep-cache-{self._passes}"

    def input(self, index: int) -> int:
        return self.seed

    def prepare(self, inp: int):
        return sweep_requests(inp), self._fresh_root()

    def op(self, arg, recorder=None) -> OpResult:
        requests, root = arg
        run_batch = self.batch.run_batch
        start = time.perf_counter()
        cold = run_batch(requests, jobs=1, cache=self.ResultCache(root=root))
        cold_s = time.perf_counter() - start
        warm_s, warm = [], []
        for _ in range(self.warm_passes):
            start = time.perf_counter()
            results = run_batch(requests, jobs=1,
                                cache=self.ResultCache(root=root))
            warm_s.append(time.perf_counter() - start)
            warm.append(results)
        shutil.rmtree(root)
        return OpResult((cold, warm), len(requests), cold_s, warm_s,
                        attempted=1 + self.warm_passes)

    def _canonical_list(self, results) -> str:
        return json.dumps([self.encode_result(r) for r in results],
                          sort_keys=True, separators=(",", ":"))

    def canonical(self, result: OpResult) -> str:
        return self._canonical_list(result.output[0])

    def verify(self, index, inp, result) -> list[str]:
        cold, warm = result.output
        cold_text = self.canonical(result)
        problems = self.check_pin(index, cold_text)
        for number, results in enumerate(warm):
            if self._canonical_list(results) != cold_text:
                problems.append(f"sweep warm pass {number} differs from "
                                "the cold pass")
        return problems


# ----------------------------------------------------------------------
class ServeWorkload(Workload):
    name = "serve"
    cycle = 10
    #: One cycle of the closed loop: oracle requests are the cheap mode,
    #: hunts the middle and fleets the slow one, in proportions that put
    #: the median inside the hunt mode and the tail inside the fleet mode.
    pattern = ("oracle", "fleet", "hunt", "oracle", "fleet",
               "oracle", "hunt", "fleet", "oracle", "hunt")
    fleet_devices = (90, 126, 171)
    hunt_apps = 6
    layers: dict = {}
    expected_layers = ("serve.submit", "serve.queue_wait", "serve.stream")

    def setup(self) -> None:
        from repro.apps.appset27 import build_appset27
        from repro.serve.client import DaemonClient

        self.apps = [app.package for app in build_appset27()]
        self.fleet_seed = derive(self.seed, "serve-fleet")
        self.done: list[tuple[str, dict, str]] = []
        self.wait_s: list[float] = []
        self.submit_s: list[float] = []
        self.stream_s: list[float] = []
        root = self.root = self.scratch / f"daemon-{os.getpid()}"
        (root / "cwd").mkdir(parents=True)
        ready = root / "ready.json"
        import repro

        # The daemon runs the very program this process imported.
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parent.parent))
        self.log = open(root / "daemon.log", "w", encoding="utf-8")
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", "1",
             "--port", "0", "--root", str(root / "state"),
             "--ready-file", str(ready)],
            cwd=root / "cwd", env=env, stdout=self.log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        deadline = time.monotonic() + 60.0
        while not ready.exists():
            if self.daemon.poll() is not None or time.monotonic() > deadline:
                self.log.flush()
                log = (root / "daemon.log").read_text(encoding="utf-8")
                raise RuntimeError(f"daemon did not start: {log[-1000:]}")
            time.sleep(0.01)
        url = json.loads(ready.read_text(encoding="utf-8"))["url"]
        self.client = DaemonClient(url, client="perfbench", timeout=120.0)
        # The first request is cold: it builds every cohort template.
        first = ("fleet", {"devices": 9, "seed": self.fleet_seed})
        self.setup_checked = 1
        self.setup_problems = self.verify(-1, first, self.op(first))
        self.status_before = self.client.status()

    def input(self, index: int):
        kind = self.pattern[index % self.cycle]
        pick = derive(self.seed, f"serve-{kind}", index)
        if kind == "fleet":
            # Every cycle asks for every size once, with the one seed.
            size = self.fleet_devices[(index % self.cycle) // 3]
            return kind, {"devices": size, "seed": self.fleet_seed}
        if kind == "oracle":
            return kind, {"app": self.apps[pick % len(self.apps)],
                          "seed": pick >> 8, "member": pick % 16}
        return kind, {"apps": self.hunt_apps, "seed": pick}

    def op(self, arg, recorder=None) -> OpResult:
        kind, params = arg
        client = self.client
        start = time.perf_counter()
        span = recorder.begin("serve.submit") if recorder else None
        job = client.submit(kind, params)
        submitted = time.perf_counter()
        if recorder:
            recorder.end(span)
            span = recorder.begin("serve.queue_wait")
        events = client.events(job)
        first = next(events)
        waited = time.perf_counter()
        if recorder:
            recorder.end(span)
            span = recorder.begin("serve.stream")
        last = first
        for last in events:
            pass
        end = time.perf_counter()
        if recorder:
            recorder.end(span)
            self.submit_s.append(submitted - start)
            self.wait_s.append(waited - submitted)
            self.stream_s.append(end - waited)
        return OpResult((kind, params, last), latencies=[end - start])

    def verify(self, index, inp, result) -> list[str]:
        kind, params, last = result.output
        if last.get("event") != "done" or last.get("exit") != 0:
            return [f"serve {kind} {params}: ended {last.get('event')} "
                    f"exit {last.get('exit')}: {last.get('message', '')}"]
        self.done.append((kind, params, last["report_json"]))
        return []

    def finish(self) -> list[str]:
        """Every daemon report must equal the in-process computation."""
        references: dict[str, str] = {}
        problems = []
        for kind, params, report in self.done:
            key = json.dumps([kind, params], sort_keys=True)
            if key not in references:
                references[key] = _in_process_report(kind, params)
            if references[key] != report:
                problems.append(f"serve {kind} {params}: daemon report "
                                "differs from the in-process run")
        return problems

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.daemon.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("daemon peak RSS (VmHWM) not readable")

    def layer_metrics(self, cycles_run: int) -> dict[str, float]:
        """Client-side p50s of traced requests; daemon counters per cycle.

        The ``/status`` counters cover every request since set-up, traced
        or not, and every cycle sends the daemon the same mix of jobs.
        """
        from stats import median

        after = self.client.status()
        per_cycle = 1.0 / max(1, cycles_run)
        return {
            "serve.submit_s": median(self.submit_s),
            "serve.queue_wait_s": median(self.wait_s),
            "serve.stream_s": median(self.stream_s),
            "serve.units_run": per_cycle * (
                after["counters"]["units_run"]
                - self.status_before["counters"]["units_run"]),
            "serve.template_warm_hits": per_cycle * (
                after["resident"]["template_warm_hits"]
                - self.status_before["resident"]["template_warm_hits"]),
        }

    def close(self) -> None:
        daemon = getattr(self, "daemon", None)
        if daemon is None:
            return
        try:
            if daemon.poll() is None:
                self.client.shutdown()
                daemon.wait(timeout=30)
        except Exception:
            pass
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)
            self.log.close()
            shutil.rmtree(self.root, ignore_errors=True)


def _in_process_report(kind: str, params: dict) -> str:
    """The same job computed in this process through the public API."""
    from repro.serve import protocol

    if kind == "fleet":
        from repro.fleet import run_fleet

        return run_fleet(protocol.fleet_spec_from_params(params),
                         jobs=1).to_json()
    if kind == "hunt":
        from repro.hunt import run_hunt

        settings = dataclasses.replace(
            protocol.hunt_settings_from_params(params), jobs=1, cache=False)
        return run_hunt(settings).to_json()
    from repro.oracle import report_for, run_oracle_session
    from repro.oracle.session import DEFAULT_POLICIES

    app, _ = protocol.resolve_app(params["app"])
    session = run_oracle_session(app, DEFAULT_POLICIES, params["seed"],
                                 member=params["member"])
    return report_for([session]).to_json()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (FleetWorkload, HuntWorkload, SweepWorkload, ServeWorkload)
}
