"""Cohort spawner and sharded fleet executor.

The fleet is a matrix of (app, policy) **cells**; each cell's cohort of
devices forks from one template :class:`~repro.sim.snapshot.SystemSnapshot`
(the app launched, settled, and its slots seeded) — PR 3's prefix
sharing as the hot path.  Templates are captured with
``trim_history=True``: the recorder's busy/heap/event/latency history is
dead weight for a fork that only measures its *own* future, and
trimming it shrinks every per-device restore.

Determinism across execution shapes is structural, not incidental:

* the **shard plan** is a pure function of the spec (cells × cohort
  size × ``shard_size``), never of the worker count — ``--jobs 1`` and
  ``--jobs 8`` execute the identical shard list;
* shards never span cells, and each shard folds its devices in
  ascending member order into one integer-only
  :class:`~repro.fleet.aggregate.CohortAccumulator` (exact under any
  merge topology — see ``fleet/aggregate.py``);
* the coordinator folds shard accumulators **as they complete**, in
  whatever order the pool returns them — integer-exact merges make the
  fold order irrelevant, which is also what makes work-stealing and
  checkpoint/resume byte-identical to a serial run.

The executor is a **work-stealing pool**: shards are submitted
individually (largest first, so a tail shard cannot strand a worker at
the end of the run) through a bounded in-flight window, and each idle
worker pulls the next shard off the shared queue.  With
``checkpoint_path`` set, the coordinator periodically publishes the
accumulators plus the completed shard-id set (atomic replace, see
``fleet/checkpoint.py``); a killed run resumes from the last
checkpoint and produces the byte-identical report.

Memory stays bounded by recycling: a shard worker materialises one
device at a time, folds it into the shard accumulator, and drops it —
peak RSS scales with one device plus one accumulator, independent of
the fleet size.  Templates live in two tiers.  The coordinator
publishes every cohort template into a run-scoped shared-memory arena
(``fleet/arena.py``, the same :class:`~repro.fleet.arena.ResidentArena`
the daemon keeps warm) read by all workers through memoryviews — one
copy per host.  Behind it sits the keyed snapshot store
(``engine/snapshots.py``): the disk tier the coordinator writes, and in
each worker a 64-entry memory tier; a cold rebuild is the
byte-identical last resort (:func:`template_cache_stats` counts every
path).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.engine.batch import POLICIES, _resolve_jobs
from repro.engine.fingerprint import fingerprint
from repro.engine.snapshots import SnapshotStore
from repro.errors import FleetError, SnapshotError
from repro.fleet.aggregate import CohortAccumulator, OracleAccumulator
from repro.fleet.arena import (
    ArenaHandle,
    ResidentArena,
    arena_get,
    arena_stats,
    _reset_arena_stats,
)
from repro.fleet.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    FleetCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.fleet.device import run_device
from repro.fleet.faults import NO_FAULTS, FaultPlan
from repro.fleet.population import (
    DEFAULT_POPULATION,
    PopulationSpec,
    device_workload,
    fleet_corpus,
    template_value,
)
from repro.workload.ir import Workload
from repro.workload.phases import PhasePlan, phased_workload
from repro.harness.report import render_table
from repro.sim.snapshot import SNAPSHOT_FORMAT_VERSION, SystemSnapshot
from repro.system import AndroidSystem

DEFAULT_POLICIES = ("android10", "runtimedroid", "rchdroid")


@dataclass(frozen=True)
class FleetSpec:
    """One fleet run, described entirely by value (picklable)."""

    apps: tuple = ()
    policies: tuple[str, ...] = DEFAULT_POLICIES
    devices_per_cell: int = 8
    population: PopulationSpec = DEFAULT_POPULATION
    faults: FaultPlan = NO_FAULTS
    seed: int = 0x5EED
    shard_size: int = 32
    settle_ms: float = 400.0
    oracle_rate: float = 0.0
    """Fraction of members that also get a cross-policy differential
    oracle session (digest-only).  0 disables the oracle entirely and
    leaves the report byte-identical to pre-oracle fleets."""
    workload: "Workload | None" = None
    """A fixed IR program every member replays (e.g. one compiled from
    a recorded trace via ``repro.workload.from_trace``).  ``None`` (the
    default) draws per-member sessions from ``population``/``phases``."""
    phases: "PhasePlan | None" = None
    """A time-varying phase plan (``repro.workload.phases``); when set,
    per-member sessions come from :func:`phased_workload` instead of
    the stationary ``population`` distribution."""

    def __post_init__(self) -> None:
        if not self.apps:
            object.__setattr__(self, "apps", fleet_corpus())
        for policy in self.policies:
            if policy not in POLICIES:
                raise FleetError(
                    f"unknown policy {policy!r}; known: {sorted(POLICIES)}"
                )
        if self.devices_per_cell < 1:
            raise FleetError("devices_per_cell must be >= 1")
        if self.shard_size < 1:
            raise FleetError("shard_size must be >= 1")
        if self.workload is not None:
            if not isinstance(self.workload, Workload):
                raise FleetError(
                    "FleetSpec.workload must be a repro.workload Workload, "
                    f"got {type(self.workload).__name__}"
                )
            if self.phases is not None:
                raise FleetError(
                    "FleetSpec.workload and FleetSpec.phases are mutually "
                    "exclusive (a fixed replay cannot also be phased)"
                )
        if self.phases is not None and not isinstance(self.phases, PhasePlan):
            raise FleetError(
                "FleetSpec.phases must be a repro.workload PhasePlan, "
                f"got {type(self.phases).__name__}"
            )
        if self.oracle_rate:
            from repro.oracle.sampler import _check_rate

            _check_rate(self.oracle_rate)  # raises OracleError if bad

    # ------------------------------------------------------------------
    def cells(self) -> list[tuple]:
        """(app, policy) cells in fixed app-major order."""
        return [(app, policy)
                for app in self.apps for policy in self.policies]

    @property
    def total_devices(self) -> int:
        return len(self.cells()) * self.devices_per_cell


@dataclass(frozen=True)
class Shard:
    """A contiguous member range of one cell's cohort."""

    shard_id: int
    cell_index: int
    start: int
    stop: int

    @property
    def devices(self) -> int:
        return self.stop - self.start


def plan_shards(spec: FleetSpec) -> list[Shard]:
    """The shard list — a pure function of the spec, never of jobs."""
    shards: list[Shard] = []
    for cell_index in range(len(spec.cells())):
        for start in range(0, spec.devices_per_cell, spec.shard_size):
            stop = min(start + spec.shard_size, spec.devices_per_cell)
            shards.append(Shard(len(shards), cell_index, start, stop))
    return shards


# ----------------------------------------------------------------------
# cohort templates
# ----------------------------------------------------------------------
def template_key(spec: FleetSpec, cell_index: int) -> str:
    app, policy = spec.cells()[cell_index]
    return fingerprint([
        "repro.fleet.template", SNAPSHOT_FORMAT_VERSION, policy,
        spec.seed, spec.settle_ms, fingerprint(app),
    ])


#: First-run burn-in: rotations played before the template's state is
#: seeded.  An even count, so the template ends in its initial
#: orientation; played with no async in flight, so no policy can crash.
TEMPLATE_BURN_IN_ROTATIONS = 4


def build_template(spec: FleetSpec, cell_index: int) -> AndroidSystem:
    """A settled device with the cell's app launched and state seeded.

    The template represents a device past its first-run workload: the
    app's startup async task has completed and the device has seen a few
    rotations (setup-wizard churn).  That work happens *before* the
    slots are seeded, so no policy's handling of it can disturb the
    seeded state — and it is exactly the work every forked device gets
    to skip, which is why cohort spawning via fork beats per-device cold
    setup (the gated ``bench-engine fleet`` speedup).
    """
    app, policy = spec.cells()[cell_index]
    system = AndroidSystem(policy=POLICIES[policy](), seed=spec.seed)
    system.launch(app)
    system.run_for(spec.settle_ms)
    if app.async_script is not None:
        system.start_async(app)
        system.run_for(app.async_script.duration_ms + 50.0)
    for _ in range(TEMPLATE_BURN_IN_ROTATIONS):
        system.rotate()
        system.run_for(300.0)
    for slot in app.slots:
        system.write_slot(app, slot.name, template_value(slot.name))
    system.run_for(50.0)
    return system


def capture_template(spec: FleetSpec, cell_index: int) -> SystemSnapshot:
    global _TEMPLATE_CAPTURES
    _TEMPLATE_CAPTURES += 1
    return SystemSnapshot.capture(
        build_template(spec, cell_index), trim_history=True
    )


# ----------------------------------------------------------------------
# per-worker template store (one arena attach / disk read per worker
# process, not per fork — see tests/fleet/test_fleet_run.py)
# ----------------------------------------------------------------------
#: Most templates kept hot per process.  Batch runs never get near it;
#: the bound exists for daemon-lifetime workers (repro.serve), whose
#: processes outlive any one spec and would otherwise accrete every
#: template they ever touched.  An evicted template is simply re-read
#: from arena or disk.
_TEMPLATE_CACHE_CAP = 64
_TEMPLATES = SnapshotStore(capacity=_TEMPLATE_CACHE_CAP)
_TEMPLATE_CAPTURES = 0
_ARENA_FALLBACKS = 0


def template_cache_stats() -> dict[str, int]:
    """This process's template-provisioning counters.

    ``templates_cached``/``disk_reads``/``rebuilds`` are the template
    store's memory size, disk hits and misses; ``captures`` counts
    template builds (coordinator-side and cold rebuilds alike);
    ``arena_fallbacks`` counts loads that had an arena handle but fell
    through to disk/rebuild; the ``arena_*`` keys come from
    :func:`repro.fleet.arena.arena_stats`.
    """
    return {
        "templates_cached": len(_TEMPLATES),
        "disk_reads": _TEMPLATES.stats.disk_hits,
        "rebuilds": _TEMPLATES.stats.misses,
        "captures": _TEMPLATE_CAPTURES,
        "arena_fallbacks": _ARENA_FALLBACKS,
        **arena_stats(),
    }


def _reset_template_cache() -> None:
    global _TEMPLATES, _TEMPLATE_CAPTURES, _ARENA_FALLBACKS
    _TEMPLATES = SnapshotStore(capacity=_TEMPLATE_CACHE_CAP)
    _TEMPLATE_CAPTURES = 0
    _ARENA_FALLBACKS = 0
    _reset_arena_stats()


def _load_worker_template(
    root: str,
    key: str,
    spec: FleetSpec,
    cell_index: int,
    arena: "ArenaHandle | None" = None,
    *,
    persist: bool = False,
) -> SystemSnapshot:
    """The cell's template: memory, arena, disk, or a cold rebuild.

    Every tier degrades to the next as a **miss, not an error**: a
    vanished shared-memory segment, a template truncated on disk by a
    crashed coordinator — templates are a pure optimisation under the
    fork-equals-fresh contract, so the worst case is rebuilding the
    snapshot cold, byte-identical and merely slower.

    ``persist`` additionally publishes a cold rebuild to the disk store
    at ``root`` — the coordinator-side serial path uses it so a later
    run (or a daemon's next request) finds the template warm.  Workers
    never persist; the coordinator owns the store's contents.
    """
    global _ARENA_FALLBACKS
    # Template keys are content hashes, so the memory tier stays valid
    # whichever root the caller's disk tier lives under.
    _TEMPLATES.root = Path(root)
    if arena is not None and key not in _TEMPLATES:
        snap = arena_get(arena, key)
        if snap is not None:
            _TEMPLATES.remember(key, snap)
            return snap
        _ARENA_FALLBACKS += 1
    hit, snap = _TEMPLATES.get(key)
    if not hit:
        snap = capture_template(spec, cell_index)
        if persist:
            _TEMPLATES.put(key, snap)
        else:
            _TEMPLATES.remember(key, snap)
    return snap


# ----------------------------------------------------------------------
# in-fleet oracle sampling
# ----------------------------------------------------------------------
def oracle_members(spec: FleetSpec, shard: Shard) -> list[int]:
    """The shard's members that get a differential oracle session.

    Oracle sessions span *all* policies of an app, so each sampled
    (app, member) pair runs exactly once fleet-wide: in the shard of
    the app's **first**-policy cell that owns the member.  Sampling
    itself is a pure function of (seed, member) — never of shard
    layout or worker count — which is what keeps ``--oracle`` reports
    byte-identical across ``--jobs`` and resumes.
    """
    if spec.oracle_rate <= 0.0:
        return []
    _, policy = spec.cells()[shard.cell_index]
    if policy != spec.policies[0]:
        return []
    from repro.oracle.sampler import sampled

    return [member for member in range(shard.start, shard.stop)
            if sampled(spec.seed, member, spec.oracle_rate)]


def oracle_cell_indices(spec: FleetSpec, shard: Shard) -> dict[str, int]:
    """policy → cell index of the shard's app (cells are app-major)."""
    app_index = shard.cell_index // len(spec.policies)
    return {policy: app_index * len(spec.policies) + offset
            for offset, policy in enumerate(spec.policies)}


def template_plan(
    spec: FleetSpec, shards: Sequence[Shard]
) -> tuple[dict[int, dict[str, int]], list[int]]:
    """``(oracle_cells, cells)`` for running ``shards``.

    ``oracle_cells`` maps each oracle-sampling shard's id to its
    policy → cell indices: those shards fork *every* policy's template
    of their app, so those cells are provisioned too.  ``cells`` lists
    every cell whose template some shard forks, ascending.
    """
    oracle_cells = {shard.shard_id: oracle_cell_indices(spec, shard)
                    for shard in shards if oracle_members(spec, shard)}
    cells = {shard.cell_index for shard in shards}
    for mapping in oracle_cells.values():
        cells.update(mapping.values())
    return oracle_cells, sorted(cells)


def shard_task(
    shard: Shard, keys: dict[int, str], oracle_cells: dict[int, dict[str, int]]
) -> tuple:
    """``(shard, key, oracle_keys)``: the shard plus the template keys
    it forks (``oracle_keys``: policy → (cell, key), or ``None``)."""
    mapping = oracle_cells.get(shard.shard_id)
    oracle_keys = ({policy: (cell, keys[cell])
                    for policy, cell in mapping.items()}
                   if mapping else None)
    return shard, keys[shard.cell_index], oracle_keys


# ----------------------------------------------------------------------
# shard execution
# ----------------------------------------------------------------------
@dataclass
class ShardOutcome:
    """What one shard hands back to the coordinator."""

    cohort: CohortAccumulator
    oracle: OracleAccumulator | None = None
    stats: dict | None = None
    """Worker-cumulative :func:`template_cache_stats` (plus ``pid``),
    attached only when the run collects stats."""


def _verify_device_delta(
    system: AndroidSystem, template: SystemSnapshot
) -> None:
    """Spot-check the delta codec against a full snapshot of ``system``.

    The device's end state expressed as (template + delta) must compose
    back to the byte-identical full payload, and the composed snapshot
    must itself restore.  Raises :class:`~repro.errors.SnapshotError`
    on any divergence — ``--verify-deltas`` turns silent codec bugs
    into loud ones.
    """
    full = SystemSnapshot.capture(system)
    try:
        delta = full.delta_from(template)
    except SnapshotError:
        # A process death mid-session relaunched the app with this
        # worker's own spec object, so the device no longer shares the
        # template's externalised inputs and cannot be expressed as a
        # delta at all.  Verify the codec on a fresh fork instead —
        # same template, shared externals by construction.
        full = SystemSnapshot.capture(template.restore())
        delta = full.delta_from(template)
    composed = delta.apply(template)
    if composed != bytes(full.payload):
        raise SnapshotError(
            "delta verification failed: template + delta does not "
            "reproduce the device's full snapshot payload"
        )
    delta.restore(template)  # must come back to life, not just to bytes


def member_workload(spec: FleetSpec, member: int) -> Workload:
    """Member ``member``'s session IR under ``spec`` (pure in spec+member).

    Three sources, in precedence order: a fixed ``spec.workload``
    replayed by every member, a time-varying ``spec.phases`` plan, or
    the stationary ``spec.population`` distribution (the default —
    byte-identical to the pre-IR ``device_script`` path).
    """
    if spec.workload is not None:
        return spec.workload
    if spec.phases is not None:
        return phased_workload(spec.phases, spec.seed, member)
    return device_workload(spec.population, spec.seed, member)


def _run_shard(
    spec: FleetSpec,
    shard: Shard,
    template: SystemSnapshot | None,
    oracle_templates: "dict[str, SystemSnapshot | None] | None" = None,
    *,
    verify_deltas: bool = False,
) -> ShardOutcome:
    """Fold one shard's devices, in member order, into an accumulator.

    ``template=None`` is the benchmark's cold path: every device is
    prepared from scratch instead of forked (byte-identical results by
    the fork-equals-fresh contract, at per-device setup cost).

    ``oracle_templates`` (policy → per-policy template of this shard's
    app, or ``None`` entries on the cold path) enables the sampled
    differential oracle: each sampled member's session is re-run under
    every policy from the shared templates and the verdicts folded into
    the shard's :class:`~repro.fleet.aggregate.OracleAccumulator`.

    ``verify_deltas`` spot-checks the delta-snapshot codec on the
    shard's first device (see :func:`_verify_device_delta`).
    """
    app, policy = spec.cells()[shard.cell_index]
    accumulator = CohortAccumulator(app.package, policy)
    for member in range(shard.start, shard.stop):
        if template is None:
            system = build_template(spec, shard.cell_index)
        else:
            system = template.restore()
        outcome = run_device(
            system, app,
            member_workload(spec, member),
            spec.faults.draw(spec.seed, member),
            spec.faults, member,
        )
        accumulator.add(outcome)
        if verify_deltas and template is not None and member == shard.start:
            _verify_device_delta(system, template)
        del system  # recycle before the next device

    oracle_acc: OracleAccumulator | None = None
    members = oracle_members(spec, shard)
    if members:
        from repro.oracle.session import run_oracle_session

        cell_of = oracle_cell_indices(spec, shard)
        prefixes = dict(oracle_templates or {})
        for pol, cell_index in cell_of.items():
            if prefixes.get(pol) is None:
                prefixes[pol] = capture_template(spec, cell_index)
        initial = {slot.name: template_value(slot.name)
                   for slot in app.slots}
        oracle_acc = OracleAccumulator()
        for member in members:
            session = run_oracle_session(
                app, spec.policies, spec.seed,
                script=member_workload(spec, member),
                member=member, trace=False, prefixes=prefixes,
                initial_values=initial,
            )
            oracle_acc.add_session(session)
    return ShardOutcome(cohort=accumulator, oracle=oracle_acc)


def _run_shard_task(payload, *, verify_deltas: bool = False) -> ShardOutcome:
    """The one shard body: templates via the per-process store.

    ``payload`` is ``(spec, shard, root, key, oracle_keys)`` with an
    optional sixth :class:`~repro.fleet.arena.ArenaHandle` element.
    The fleet pool (:func:`_run_shard_entry`), its pool-less fallback
    and the daemon's shard units all run through here.
    """
    spec, shard, root, key, oracle_keys = payload[:5]
    arena = payload[5] if len(payload) > 5 else None
    template = _load_worker_template(root, key, spec, shard.cell_index,
                                     arena)
    oracle_templates = None
    if oracle_keys:
        oracle_templates = {
            policy: _load_worker_template(root, pol_key, spec, cell_index,
                                          arena)
            for policy, (cell_index, pol_key) in oracle_keys.items()
        }
    return _run_shard(spec, shard, template, oracle_templates,
                      verify_deltas=verify_deltas)


# ----------------------------------------------------------------------
# the work-stealing pool: initializer-carried run state, per-shard tasks
# ----------------------------------------------------------------------
# One FleetSpec pickle per worker (via the pool initializer), not one
# per task — at ~31k shards for a million-device fleet, spec-carrying
# payloads would serialise the spec thousands of times over.
_WORKER: tuple = ()
"""``(spec, root, arena, collect_stats, verify_deltas)`` of the run."""


def _fleet_worker_init(
    spec: FleetSpec,
    root: str,
    arena: "ArenaHandle | None",
    collect_stats: bool,
    verify_deltas: bool,
) -> None:
    global _WORKER
    # Forked workers inherit the coordinator's counters; zero them so a
    # worker's stats report covers exactly its own work.
    _reset_template_cache()
    _WORKER = (spec, root, arena, collect_stats, verify_deltas)


def _run_shard_entry(task) -> ShardOutcome:
    """Pool task body: ``(shard, key, oracle_keys)`` against init state."""
    shard, key, oracle_keys = task
    spec, root, arena, collect_stats, verify_deltas = _WORKER
    outcome = _run_shard_task((spec, shard, root, key, oracle_keys, arena),
                              verify_deltas=verify_deltas)
    if collect_stats:
        outcome.stats = {"pid": os.getpid(), **template_cache_stats()}
    return outcome


def steal_order(shards: Sequence[Shard]) -> list[Shard]:
    """Submission order for the self-scheduling pool: largest shards
    first (LPT), shard id as the deterministic tie-break — so a big
    tail shard cannot strand one worker while the rest sit idle.
    Execution order never affects report bytes (integer-exact folds);
    this only shapes the wall-clock tail.
    """
    return sorted(shards, key=lambda s: (-s.devices, s.shard_id))


# ----------------------------------------------------------------------
# the fleet result
# ----------------------------------------------------------------------
@dataclass
class FleetResult:
    """Aggregate outcome of a (possibly partial) fleet run."""

    seed: int
    shard_size: int
    total_shards: int
    shard_ids: tuple[int, ...]
    devices: int
    cohorts: list[CohortAccumulator] = field(default_factory=list)
    oracle_rate: float = 0.0
    oracle: OracleAccumulator | None = None
    cache_stats: dict | None = None
    """Aggregated template-provisioning counters (coordinator plus all
    workers), populated only when the run collects stats — absent by
    default so stats never perturb the pinned report bytes."""

    # ------------------------------------------------------------------
    def report(self) -> dict:
        policy_rollup: dict[str, CohortAccumulator] = {}
        for accumulator in self.cohorts:
            rollup = policy_rollup.setdefault(
                accumulator.policy,
                CohortAccumulator("*", accumulator.policy),
            )
            rollup.merge(accumulator, check_cohort=False)
        report = {
            "fleet": {
                "seed": self.seed,
                "shard_size": self.shard_size,
                "shards": self.total_shards,
                "covered_shards": len(self.shard_ids),
                "devices": self.devices,
                "cells": len(self.cohorts),
            },
            "cohorts": [acc.row() for acc in self.cohorts],
            "policies": [
                policy_rollup[policy].row(include_package=False)
                for policy in sorted(policy_rollup)
            ],
        }
        if self.oracle_rate > 0.0:
            # Present only when sampling is on, so oracle-off reports
            # keep their pre-oracle bytes.
            oracle = self.oracle or OracleAccumulator()
            report["oracle"] = {"rate": self.oracle_rate, **oracle.row()}
        if self.cache_stats is not None:
            # Present only under --stats: provisioning counters are
            # observability, not results, and must not perturb the
            # byte-identity the determinism tests pin.
            report["cache"] = {key: self.cache_stats[key]
                              for key in sorted(self.cache_stats)}
        return report

    def to_json(self) -> str:
        """Canonical byte form — the identity the determinism tests pin."""
        return json.dumps(self.report(), sort_keys=True,
                          separators=(",", ":"))


def merge_fleet_results(first: FleetResult, second: FleetResult) -> FleetResult:
    """Combine two partial runs of the *same* fleet (resume support).

    ``first`` must cover the lower shard ids; accumulators are
    integer-exact, so the merged result is byte-identical to a single
    run over the union.
    """
    if (first.seed, first.shard_size, first.total_shards,
            first.oracle_rate) != (
            second.seed, second.shard_size, second.total_shards,
            second.oracle_rate):
        raise FleetError("cannot merge results of different fleet specs")
    overlap = set(first.shard_ids) & set(second.shard_ids)
    if overlap:
        raise FleetError(f"partial runs overlap on shards {sorted(overlap)}")
    if first.shard_ids and second.shard_ids and \
            max(first.shard_ids) > min(second.shard_ids):
        first, second = second, first
    cohorts: list[CohortAccumulator] = []
    for left, right in zip(first.cohorts, second.cohorts):
        merged = left.copy_empty()
        merged.merge(left)
        merged.merge(right)
        cohorts.append(merged)
    oracle: OracleAccumulator | None = None
    if first.oracle is not None or second.oracle is not None:
        oracle = OracleAccumulator()
        for part in (first.oracle, second.oracle):
            if part is not None:
                oracle.merge(part)
    return FleetResult(
        seed=first.seed,
        shard_size=first.shard_size,
        total_shards=first.total_shards,
        shard_ids=tuple(sorted((*first.shard_ids, *second.shard_ids))),
        devices=first.devices + second.devices,
        cohorts=cohorts,
        oracle_rate=first.oracle_rate,
        oracle=oracle,
    )


# ----------------------------------------------------------------------
# the entry point
# ----------------------------------------------------------------------
def run_fleet(
    spec: FleetSpec,
    *,
    jobs: "int | str | None" = None,
    shard_ids: Sequence[int] | None = None,
    snapshot_root: str | None = None,
    use_templates: bool = True,
    use_arena: bool = True,
    checkpoint_path: str | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    verify_deltas: bool = False,
    collect_stats: bool = False,
) -> FleetResult:
    """Run a fleet (or a subset of its shards) and aggregate it.

    ``jobs`` follows the engine convention (``"auto"`` = one worker per
    core, bounded by the shard count; default from the engine config).
    ``shard_ids`` restricts execution to a subset of the plan — partial
    runs merge back together with :func:`merge_fleet_results`.
    ``use_templates=False`` is the benchmark's cold path (per-device
    setup instead of cohort forking); ``use_arena=False`` makes workers
    read templates from the disk store even where shared memory is
    available.

    ``checkpoint_path`` makes the run resumable: completed shards are
    periodically published there (every ``checkpoint_every`` folds,
    atomic replace), a killed run picks up from the file, and the
    resumed report is byte-identical to an uninterrupted one.  Missing
    or corrupt checkpoints restart from scratch; a checkpoint from a
    *different* spec raises.  Incompatible with an explicit
    ``shard_ids`` subset (partial coverage would be recorded as fleet
    progress).

    ``verify_deltas`` spot-checks the delta-snapshot codec on every
    shard's first device; ``collect_stats`` attaches aggregated
    template-provisioning counters as ``result.cache_stats`` (and a
    ``"cache"`` report section).
    """
    from repro.engine.batch import _CONFIG

    all_shards = plan_shards(spec)
    if shard_ids is None:
        shards = all_shards
    else:
        if checkpoint_path is not None:
            raise FleetError(
                "checkpoint_path requires a full run; it cannot track an "
                "explicit shard_ids subset"
            )
        wanted = set(shard_ids)
        unknown = wanted - {shard.shard_id for shard in all_shards}
        if unknown:
            raise FleetError(f"unknown shard ids {sorted(unknown)}")
        shards = [s for s in all_shards if s.shard_id in wanted]

    # --- seed accumulators, possibly from a checkpoint -----------------
    cohorts = [
        CohortAccumulator(app.package, policy)
        for app, policy in spec.cells()
    ]
    oracle: OracleAccumulator | None = None
    completed: set[int] = set()
    devices_done = 0
    spec_fp = fingerprint(spec) if checkpoint_path is not None else ""
    if checkpoint_path is not None:
        resumed = load_checkpoint(checkpoint_path, spec_fp, len(all_shards))
        if resumed is not None:
            cohorts = resumed.cohorts
            oracle = resumed.oracle
            completed = set(resumed.completed)
            devices_done = resumed.devices

    folds_since_write = 0

    def write_checkpoint() -> None:
        save_checkpoint(checkpoint_path, FleetCheckpoint(
            spec_fingerprint=spec_fp,
            total_shards=len(all_shards),
            completed=tuple(completed),
            devices=devices_done,
            cohorts=cohorts,
            oracle=oracle,
        ))

    def fold(shard: Shard, outcome: ShardOutcome) -> None:
        nonlocal oracle, devices_done, folds_since_write
        cohorts[shard.cell_index].merge(outcome.cohort)
        if outcome.oracle is not None:
            if oracle is None:
                oracle = OracleAccumulator()
            oracle.merge(outcome.oracle)
        completed.add(shard.shard_id)
        devices_done += shard.devices
        folds_since_write += 1
        if checkpoint_path is not None \
                and folds_since_write >= checkpoint_every:
            write_checkpoint()
            folds_since_write = 0

    todo = [s for s in shards if s.shard_id not in completed]
    worker_stats: dict[int, dict] = {}

    if todo:
        workers = _resolve_jobs(
            _CONFIG.jobs if jobs is None else jobs, len(todo)
        )
        oracle_cells, all_cells = template_plan(spec, todo)

        if workers <= 1 or len(todo) <= 1 or not use_templates:
            # Serial bypass: a resolved jobs of 1 (explicit --jobs 1, or
            # --jobs auto on a one-core host) skips the process pool
            # entirely — no pool spawn, no arena publish, no per-task
            # pickling.  BENCH_fleet.json's forced-pool `sharded` row
            # shows why: on one core the pool costs more than it buys.
            # With a snapshot_root the bypass still provisions templates
            # through the store (memory -> disk -> rebuild-and-persist),
            # so long-lived callers like the serve daemon stay warm
            # across serial runs too.
            templates: dict[int, SystemSnapshot | None] = {}
            for cell_index in all_cells:
                if not use_templates:
                    templates[cell_index] = None
                elif snapshot_root is not None:
                    templates[cell_index] = _load_worker_template(
                        snapshot_root, template_key(spec, cell_index),
                        spec, cell_index, persist=True,
                    )
                else:
                    templates[cell_index] = capture_template(
                        spec, cell_index
                    )
            for shard in todo:
                outcome = _run_shard(
                    spec, shard, templates[shard.cell_index],
                    {policy: templates[cell_index]
                     for policy, cell_index
                     in oracle_cells.get(shard.shard_id, {}).items()}
                    or None,
                    verify_deltas=verify_deltas,
                )
                fold(shard, outcome)
        else:
            _run_sharded(
                spec, todo, all_cells, oracle_cells, workers,
                snapshot_root, use_arena, collect_stats, verify_deltas,
                fold, worker_stats,
            )

    if checkpoint_path is not None and (
            folds_since_write or not os.path.exists(checkpoint_path)):
        write_checkpoint()

    if spec.oracle_rate > 0.0 and oracle is None:
        oracle = OracleAccumulator()

    cache_stats: dict | None = None
    if collect_stats:
        cache_stats = dict(template_cache_stats())
        cache_stats["workers"] = len(worker_stats)
        for pid, stats in worker_stats.items():
            if pid == os.getpid():
                # The pool-less fallback runs shards in-process; its
                # counters are already in template_cache_stats().
                continue
            for key, value in stats.items():
                if key != "pid":
                    cache_stats[key] = cache_stats.get(key, 0) + value

    return FleetResult(
        seed=spec.seed,
        shard_size=spec.shard_size,
        total_shards=len(all_shards),
        shard_ids=tuple(sorted(completed)),
        devices=devices_done,
        cohorts=cohorts,
        oracle_rate=spec.oracle_rate,
        oracle=oracle,
        cache_stats=cache_stats,
    )


def _run_sharded(
    spec: FleetSpec,
    shards: list[Shard],
    needed_cells: list[int],
    oracle_cells: dict[int, dict[str, int]],
    workers: int,
    snapshot_root: str | None,
    use_arena: bool,
    collect_stats: bool,
    verify_deltas: bool,
    fold: Callable[[Shard, ShardOutcome], None],
    worker_stats: dict[int, dict],
) -> None:
    """Work-steal shards across a process pool, folding on completion.

    Templates are published to a run-scoped shared-memory arena
    (zero-copy hot path) *and* the disk store (the fallback tier); each
    shard is its own pool task, submitted largest-first through a
    bounded in-flight window, so idle workers always pull the next
    undone shard and ``fold`` (hence checkpointing) sees outcomes as
    they land.
    """
    root = snapshot_root or tempfile.mkdtemp(prefix="repro-fleet-templates-")
    cleanup = snapshot_root is None
    arena = ResidentArena() if use_arena else None
    try:
        store = SnapshotStore(root=root, capacity=0)
        keys: dict[int, str] = {}
        for cell_index in needed_cells:
            key = keys[cell_index] = template_key(spec, cell_index)
            hit, snap = store.get(key)
            if not hit:
                snap = capture_template(spec, cell_index)
                store.put(key, snap)
            if arena is not None:
                arena.publish(key, snap)
        # The run holds a reference on every template until destroy(),
        # so nothing is evicted under a running pool.
        handle = (arena.acquire([key for key in keys.values()
                                 if key in arena])
                  if arena is not None else None)
        tasks = deque(shard_task(shard, keys, oracle_cells)
                      for shard in steal_order(shards))

        def record(outcome: ShardOutcome) -> None:
            if collect_stats and outcome.stats:
                # Worker stats are cumulative: keep the last report per
                # pid, sum across pids at the end.
                worker_stats[outcome.stats["pid"]] = outcome.stats

        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait,
        )

        try:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_fleet_worker_init,
                initargs=(spec, root, handle, collect_stats, verify_deltas),
            )
        except (OSError, ValueError):  # no usable multiprocessing here
            _fleet_worker_init(spec, root, handle, collect_stats,
                              verify_deltas)
            for task in tasks:
                outcome = _run_shard_entry(task)
                record(outcome)
                fold(task[0], outcome)
            return
        with pool:
            # The in-flight window bounds coordinator memory (pending
            # futures, pickled results) without ever starving a worker:
            # 4 tasks per worker in flight is refill headroom, and
            # fold-on-completion keeps checkpoints fresh.
            window = workers * 4
            pending: dict = {}
            while tasks or pending:
                while tasks and len(pending) < window:
                    task = tasks.popleft()
                    pending[pool.submit(_run_shard_entry, task)] = task[0]
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    shard = pending.pop(future)
                    outcome = future.result()
                    record(outcome)
                    fold(shard, outcome)
    finally:
        if arena is not None:
            arena.destroy()
        if cleanup:
            shutil.rmtree(root, ignore_errors=True)


# ----------------------------------------------------------------------
# report formatting
# ----------------------------------------------------------------------
def format_fleet_report(result: "FleetResult | dict") -> str:
    """Human tables for a fleet result — or for its report dict.

    Accepting the parsed report (``json.loads(result.to_json())``) lets
    the daemon's thin client render the identical tables from the wire
    bytes alone, without reconstructing accumulator objects.
    """
    report = result if isinstance(result, dict) else result.report()
    meta = report["fleet"]

    def cells(row: dict, with_app: bool) -> list:
        handling = row["handling"]
        return [
            *([row["app"]] if with_app else []),
            row["policy"], row["devices"],
            f"{100 * row['crash_rate']:.1f}%",
            f"{100 * row['data_loss_rate']:.1f}%",
            row["process_deaths"],
            f"{handling['mean_ms']:.1f}" if handling["count"] else "-",
            f"{handling['p95_ms']:.1f}" if handling["count"] else "-",
            f"{row['memory_mean_mb']:.1f}",
        ]

    table = render_table(
        ["app", "policy", "devices", "crash", "data loss", "deaths",
         "handling mean", "p95 (ms)", "mem (MB)"],
        [cells(row, True) for row in report["cohorts"]],
        title=(
            f"Fleet: {meta['devices']} devices, {meta['cells']} cohorts, "
            f"{meta['covered_shards']}/{meta['shards']} shards, "
            f"seed {meta['seed']:#x}"
        ),
    )
    rollup = render_table(
        ["policy", "devices", "crash", "data loss", "deaths",
         "handling mean", "p95 (ms)", "mem (MB)"],
        [cells(row, False) for row in report["policies"]],
        title="Per-policy rollup",
    )
    sections = [table, rollup]
    if "oracle" in report:
        oracle = report["oracle"]
        verdict_rows = [
            [policy,
             counts.get("EXPECTED_POLICY_DELTA", 0),
             counts.get("STATE_DIVERGENCE", 0),
             counts.get("SIMULATOR_BUG", 0)]
            for policy, counts in oracle["by_policy"].items()
        ]
        sections.append(render_table(
            ["policy", "expected", "state-div", "SIM-BUG"],
            verdict_rows,
            title=(
                f"Differential oracle: {oracle['sessions']} sampled "
                f"sessions at rate {oracle['rate']:g} — "
                + ("CLEAN"
                   if not oracle['verdicts'].get('SIMULATOR_BUG')
                   else f"{oracle['verdicts']['SIMULATOR_BUG']} "
                        "SIMULATOR_BUG")
            ),
        ))
        for detail in oracle["simulator_bug_details"][:10]:
            sections.append(f"  SIM-BUG: {detail}")
    if "cache" in report:
        cache = report["cache"]
        sections.append(render_table(
            ["counter", "count"],
            [[key, cache[key]] for key in sorted(cache)],
            title="Template provisioning (--stats)",
        ))
    return "\n\n".join(sections)
