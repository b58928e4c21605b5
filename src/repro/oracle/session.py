"""Run one seeded session under several policies and diff everything.

The oracle session is the differential unit of work:

1. **Prefix, paid once per policy.**  For each policy, build the app's
   setup prefix — launch, settle, async warm-up, slot seeding (no
   configuration changes: the prefix must stay policy-independent) —
   and capture it as a :class:`~repro.sim.snapshot.SystemSnapshot`.
   Both the recorded run and the replay run of that policy fork from
   this one snapshot, so the common work is paid once (the PR 3 tier).
2. **Recorded run + replay run per policy.**  Each run forks the
   prefix, attaches a fresh tracer (so its span stream covers exactly
   the post-fork session), plays the same seeded op script, and
   reduces to a span snapshot plus a
   :class:`~repro.oracle.digest.StateDigest`.
3. **Diff.**  Same-policy pairs (run vs. replay) must be identical —
   any divergence is a :data:`~repro.oracle.classify.COMPARE_REPLAY`
   context.  Cross-policy pairs diff digests field-by-field and span
   streams bounded, each divergence wrapped with the digests and the
   policy-independent prefix boundary so the rule table can classify.

The session script defaults to the fleet population's
:func:`~repro.fleet.population.device_workload` (the same seeded IR a
fleet member plays, see ``repro.workload``), with ops the app cannot
express (writes without slots, asyncs without a script) skipped
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.engine.batch import POLICIES
from repro.errors import OracleError
from repro.oracle.classify import (
    COMPARE_DIGEST,
    COMPARE_REPLAY,
    COMPARE_SPANS,
    ClassificationRule,
    DEFAULT_RULES,
    DivergenceContext,
    Finding,
    classify,
)
from repro.oracle.differ import (
    diff_digests,
    diff_span_streams,
    rebase_snapshot,
)
from repro.oracle.digest import SessionLog, StateDigest, capture_digest
from repro.trace import replay as trace_replay
from repro.trace.hooks import install_tracing
from repro.trace.tracer import Tracer
from repro.sim.snapshot import SystemSnapshot
from repro.system import AndroidSystem
from repro.workload.driver import (
    RELAUNCH_SETTLE_MS as _DRIVER_RELAUNCH_SETTLE_MS,
    DriverProfile,
    drive,
)
from repro.workload.ir import Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.dsl import AppSpec

DEFAULT_POLICIES = ("android10", "runtimedroid", "rchdroid")

#: Simulated pause after a relaunch before the session continues
#: (single-sourced from the shared session driver).
RELAUNCH_SETTLE_MS = _DRIVER_RELAUNCH_SETTLE_MS

#: Post-script drain bound: a session ends when the device goes idle.
MAX_SPAN_DIFFS = 64


# ----------------------------------------------------------------------
# the policy-independent setup prefix
# ----------------------------------------------------------------------
def build_prefix(app: "AppSpec", policy: str, seed: int,
                 settle_ms: float = 400.0) -> AndroidSystem:
    """A settled device with ``app`` launched and its slots seeded.

    Unlike the fleet's cohort template this prefix plays **no**
    configuration changes: nothing before the fork point may consult
    the policy, which is what makes the session's pre-divergence span
    segment comparable across policies (and a divergence there a
    simulator bug by definition).
    """
    if policy not in POLICIES:
        raise OracleError(
            f"unknown policy {policy!r}; known: {sorted(POLICIES)}"
        )
    system = AndroidSystem(policy=POLICIES[policy](), seed=seed)
    system.launch(app)
    system.run_for(settle_ms)
    if app.async_script is not None:
        system.start_async(app)
        system.run_for(app.async_script.duration_ms + 50.0)
    for slot in app.slots:
        system.write_slot(app, slot.name, f"oracle:{slot.name}")
    system.run_for(50.0)
    return system


def capture_prefix(app: "AppSpec", policy: str, seed: int,
                   settle_ms: float = 400.0) -> SystemSnapshot:
    return SystemSnapshot.capture(
        build_prefix(app, policy, seed, settle_ms), trim_history=True
    )


# ----------------------------------------------------------------------
# the session player
# ----------------------------------------------------------------------
def play_session(
    system: AndroidSystem, app: "AppSpec",
    script: "Workload | Sequence[tuple]",
    initial_values: "dict[str, object] | None" = None,
) -> SessionLog:
    """Drive one policy through the shared session IR.

    A thin profile over the shared driver
    (:func:`repro.workload.driver.drive`) with the oracle's deliberate
    differences from the fleet device profile: a lost value is **never
    re-entered** (the fleet measures user pain — count losses, user
    retypes; the oracle measures *what survived*, so the end-state
    digest must expose the divergence instead of papering over it), no
    post-settle or post-relaunch audits, writes against a slotless app
    are skipped uncounted, and the end-of-stream epilogue only counts a
    late death — it never touches state.

    ``initial_values`` seeds the self-audit's expectations (slot name →
    value the prefix wrote); callers forking a prefix that seeded slots
    differently from :func:`build_prefix` — the fleet's cohort
    templates — must pass the values that prefix actually wrote.
    """
    workload = (script if isinstance(script, Workload)
                else Workload.from_tuples(script))
    expected: dict[str, object] = {}
    for slot in app.slots:
        if initial_values is not None:
            if slot.name in initial_values:
                expected[slot.name] = initial_values[slot.name]
        else:
            expected[slot.name] = f"oracle:{slot.name}"

    profile = DriverProfile(
        write_value=lambda step: f"oracle.s{step}",
        initial_expected=expected,
        settle_audits=False,
        relaunch_audit=False,
        reenter_lost=False,
        count_empty_writes=False,
        epilogue="count-death",
    )
    result = drive(system, app, workload, profile)

    log = SessionLog(handling_baseline=result.handling_baseline)
    log.expected = {name: repr(value)
                    for name, value in result.expected.items()}
    log.process_deaths = result.process_deaths
    log.relaunches = result.relaunches
    log.ops_played = result.ops_played
    return log


def default_script(app: "AppSpec", seed: int, member: int = 0) -> "Workload":
    """The session IR: the fleet population's seeded device workload."""
    from repro.fleet.population import DEFAULT_POPULATION, device_workload

    del app  # same session for every app — that is the point
    return device_workload(DEFAULT_POPULATION, seed, member)


# ----------------------------------------------------------------------
# one policy's pair of runs
# ----------------------------------------------------------------------
@dataclass
class PolicyRun:
    """Recorded + replayed outcome of one policy's session."""

    policy: str
    digest: StateDigest
    replay_digest: StateDigest
    spans: list[dict] = field(default_factory=list)
    replay_spans: list[dict] = field(default_factory=list)

    @property
    def deterministic(self) -> bool:
        return (self.digest == self.replay_digest
                and self.spans == self.replay_spans)


def _run_once(
    prefix: SystemSnapshot, app: "AppSpec",
    script: "Workload | Sequence[tuple]",
    *, trace: bool,
    initial_values: "dict[str, object] | None" = None,
) -> tuple[StateDigest, list[dict]]:
    system = prefix.restore()
    fork_ms = system.now_ms
    if trace:
        tracer = Tracer(system.ctx.clock, label=system.policy.name)
        install_tracing(system.ctx, tracer)
        system.tracer = tracer
    log = play_session(system, app, script, initial_values)
    digest = capture_digest(system, app, log)
    spans: list[dict] = []
    if trace:
        spans = rebase_snapshot(trace_replay.snapshot(system.tracer),
                                fork_ms)
    return digest, spans


def run_policy(
    app: "AppSpec", policy: str,
    script: "Workload | Sequence[tuple]", seed: int,
    *, trace: bool = True, prefix: SystemSnapshot | None = None,
    initial_values: "dict[str, object] | None" = None,
) -> PolicyRun:
    """Fork the prefix twice; record and replay one policy's session."""
    if prefix is None:
        prefix = capture_prefix(app, policy, seed)
    digest, spans = _run_once(prefix, app, script, trace=trace,
                              initial_values=initial_values)
    replay_digest, replay_spans = _run_once(prefix, app, script,
                                            trace=trace,
                                            initial_values=initial_values)
    return PolicyRun(
        policy=policy,
        digest=digest,
        replay_digest=replay_digest,
        spans=spans,
        replay_spans=replay_spans,
    )


# ----------------------------------------------------------------------
# the full differential session
# ----------------------------------------------------------------------
@dataclass
class OracleSession:
    """Everything one differential session produced."""

    package: str
    seed: int
    policies: tuple[str, ...]
    runs: dict[str, PolicyRun]
    findings: list[Finding]

    def verdict_counts(self) -> dict[str, dict[str, int]]:
        """``policy -> verdict -> count`` over attributed findings."""
        counts: dict[str, dict[str, int]] = {
            policy: {} for policy in self.policies
        }
        for finding in self.findings:
            for policy in finding.policies:
                bucket = counts.setdefault(policy, {})
                bucket[finding.verdict] = bucket.get(finding.verdict, 0) + 1
        return counts

    def simulator_bugs(self) -> list[Finding]:
        from repro.oracle.classify import VERDICT_SIMULATOR_BUG

        return [finding for finding in self.findings
                if finding.verdict == VERDICT_SIMULATOR_BUG]


def check_policies(policies: Sequence[str]) -> tuple[str, ...]:
    """The policy set of one differential session, validated up front:
    at least one policy, no duplicates, every name known."""
    policies = tuple(policies)
    if not policies:
        raise OracleError("a differential session needs >= 1 policy")
    seen = set()
    for policy in policies:
        if policy in seen:
            raise OracleError(f"duplicate policy {policy!r}")
        seen.add(policy)
    for policy in policies:
        if policy not in POLICIES:
            raise OracleError(
                f"unknown policy {policy!r}; known: {sorted(POLICIES)}"
            )
    return policies


def run_oracle_session(
    app: "AppSpec",
    policies: Sequence[str] = DEFAULT_POLICIES,
    seed: int = 0x5EED,
    *,
    script: "Workload | Sequence[tuple] | None" = None,
    member: int = 0,
    trace: bool = True,
    rules: Sequence[ClassificationRule] = DEFAULT_RULES,
    prefixes: "dict[str, SystemSnapshot] | None" = None,
    initial_values: "dict[str, object] | None" = None,
) -> OracleSession:
    """Run ``app``'s seeded session under every policy and classify.

    ``trace=False`` is the fleet's sampled fast path: digests only, no
    span streams (replay and state checking still apply).  ``prefixes``
    lets a caller that already owns per-policy snapshots (the fleet's
    cohort templates) supply them instead of building fresh ones.
    """
    policies = check_policies(policies)
    if script is None:
        script = default_script(app, seed, member)

    runs: dict[str, PolicyRun] = {}
    for policy in policies:
        prefix = prefixes.get(policy) if prefixes else None
        runs[policy] = run_policy(
            app, policy, script, seed, trace=trace, prefix=prefix,
            initial_values=initial_values,
        )

    contexts: list[DivergenceContext] = []
    # Same-policy replay checks first: determinism is the foundation
    # every cross-policy verdict stands on.
    for policy, run in runs.items():
        for div in diff_digests(run.digest, run.replay_digest):
            contexts.append(DivergenceContext(
                compare=COMPARE_REPLAY, a_policy=policy, b_policy=policy,
                divergence=div,
                a_digest=run.digest, b_digest=run.replay_digest,
            ))
        for div in trace_replay.collect_divergences(
                run.spans, run.replay_spans, max_diffs=MAX_SPAN_DIFFS):
            contexts.append(DivergenceContext(
                compare=COMPARE_REPLAY, a_policy=policy, b_policy=policy,
                divergence=div, span_index=div.index,
            ))

    # Cross-policy pairs, in declaration order.
    for i, a in enumerate(policies):
        for b in policies[i + 1:]:
            run_a, run_b = runs[a], runs[b]
            for div in diff_digests(run_a.digest, run_b.digest):
                contexts.append(DivergenceContext(
                    compare=COMPARE_DIGEST, a_policy=a, b_policy=b,
                    divergence=div,
                    a_digest=run_a.digest, b_digest=run_b.digest,
                ))
            if trace:
                span_divs, prefix_end = diff_span_streams(
                    run_a.spans, run_b.spans, max_diffs=MAX_SPAN_DIFFS
                )
                for div in span_divs:
                    contexts.append(DivergenceContext(
                        compare=COMPARE_SPANS, a_policy=a, b_policy=b,
                        divergence=div,
                        a_digest=run_a.digest, b_digest=run_b.digest,
                        span_index=div.index, prefix_end=prefix_end,
                    ))

    return OracleSession(
        package=app.package,
        seed=seed,
        policies=policies,
        runs=runs,
        findings=classify(contexts, rules),
    )
