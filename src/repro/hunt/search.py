"""Suspicion-guided search: predict, probe, confirm, shrink, report.

The loop is deterministic in ``(corpus seed, probe outcomes)`` alone —
every batch is submitted in sorted order and consumed in submission
order, every acceptance takes the *first* confirming candidate, and no
wall-clock value reaches the report — so the HuntReport is
byte-identical across ``--jobs`` counts and across warm/cold caches.

Structure:

1. generate the corpus and run the static rules over it;
2. **search rounds** — round 0 probes every suspicion's primary op
   sequence under *all* selected policies (the non-predicted policies
   are the controls that catch the simulator over-delivering:
   RuntimeDroid losing anything is a ``SIMULATOR_BUG``); later rounds
   escalate unconfirmed predictions with richer candidate scripts;
3. **lockstep shrinking** — every confirmed finding's script is delta
   debugged, one global candidate round at a time, so one ``run_batch``
   call carries all findings' candidates (parallel across findings,
   cache-accelerated across rounds when a result cache is on; within
   one call the candidates for one ``(app, policy, seed)`` share a
   prefix group, which the engine forks only when its cost rule says
   forking pays — without a result cache each call starts a fresh
   in-memory snapshot store, so no snapshot carries across rounds);
4. **fresh replay** — each shrunk repro is re-executed on the classic
   fresh path (no cache, no snapshot forks) and its end-state digest
   must match the shrink loop's byte for byte; a mismatch is a replay
   divergence, also ``SIMULATOR_BUG``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

# ``repro.engine`` imports the hunt session (its scenario registry and
# codec carry the "hunt-session" kind), so the engine's batch layer is
# imported function-level throughout this module to keep the package
# importable from either direction.
from repro.errors import HuntError
from repro.hunt.generator import DEFAULT_CORPUS_SEED, generate_corpus
from repro.hunt.report import HuntReport
from repro.hunt.rules import DEFAULT_RULES, Rule, Suspicion, inspect_corpus
from repro.hunt.session import HUNT_SETTLE_MS, HuntProbe
from repro.hunt.shrink import ScriptShrinker

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.dsl import AppSpec
    from repro.engine.batch import RunRequest

__all__ = [
    "DEFAULT_HUNT_POLICIES",
    "Finding",
    "HuntSettings",
    "candidate_scripts",
    "run_hunt",
]

DEFAULT_HUNT_POLICIES = ("android10", "rchdroid", "runtimedroid")

#: Escalation ladder depth: primary candidate + richer fallbacks.
MAX_CANDIDATE_ROUNDS = 3


@dataclass(frozen=True)
class HuntSettings:
    """Everything one hunt depends on, by value."""

    apps: int = 100
    seed: int = DEFAULT_CORPUS_SEED
    policies: tuple[str, ...] = DEFAULT_HUNT_POLICIES
    rules: tuple[Rule, ...] = DEFAULT_RULES
    jobs: "int | str | None" = None
    cache: "bool | object | None" = True
    session_seed: int = 0x5EED
    settle_ms: float = HUNT_SETTLE_MS
    replay_check: bool = True

    def __post_init__(self) -> None:
        from repro.engine.batch import POLICIES

        if self.apps < 1:
            raise HuntError(f"corpus size must be >= 1, got {self.apps}")
        if not self.policies:
            raise HuntError("hunt needs at least one policy")
        for policy in self.policies:
            if policy not in POLICIES:
                raise HuntError(
                    f"unknown policy {policy!r}; known: {sorted(POLICIES)}"
                )
        if len(set(self.policies)) != len(self.policies):
            raise HuntError(f"duplicate policy in {self.policies!r}")


@dataclass
class Finding:
    """One confirmed (suspicion, policy), plus its shrunk repro."""

    suspicion: Suspicion
    policy: str
    script: tuple[tuple, ...]
    probe: HuntProbe
    shrunk: tuple[tuple, ...] = ()
    shrunk_probe: HuntProbe | None = None
    shrunk_minimal: bool = False
    shrink_probes: int = 0

    def to_dict(self) -> dict:
        return {
            "package": self.suspicion.package,
            "rule": self.suspicion.rule,
            "policy": self.policy,
            "expects": self.suspicion.expects,
            "slot": self.suspicion.slot,
            "reason": self.suspicion.reason,
            "script": [list(op) for op in self.script],
            "shrunk": [list(op) for op in self.shrunk],
            "shrunk_minimal": self.shrunk_minimal,
            "crash_kinds": list(self.probe.crash_kinds),
            "lost_slots": list(self.probe.lost_slots),
        }


def candidate_scripts(suspicion: Suspicion) -> list[tuple[tuple, ...]]:
    """The escalation ladder for one suspicion.

    Candidate 0 is the rule's own op sequence; the fallbacks append
    further configuration changes of other kinds for apps whose primary
    sequence somehow settles clean.  All candidates share the suspicion's
    prefix key; escalation rounds are separate ``run_batch`` calls, so
    they reuse a stored prefix snapshot only through a result cache's
    disk tier.
    """
    base = suspicion.ops
    return [
        base,
        base + (("resize", 500, 900), ("wait", 300.0)),
        base + (
            ("night", True), ("wait", 300.0),
            ("rotate",), ("wait", 300.0),
        ),
    ][:MAX_CANDIDATE_ROUNDS]


@dataclass
class _SuspicionState:
    suspicion: Suspicion
    app: "AppSpec"
    candidates: list[tuple[tuple, ...]]
    confirmed: dict[str, tuple[tuple[tuple, ...], HuntProbe]] = field(
        default_factory=dict
    )

    def predicted(self, policies: Sequence[str]) -> list[str]:
        return [p for p in self.suspicion.policies if p in policies]

    def unconfirmed(self, policies: Sequence[str]) -> list[str]:
        return [
            p for p in self.predicted(policies) if p not in self.confirmed
        ]


def _probe_request(
    settings: HuntSettings,
    policy: str,
    app: "AppSpec",
    script: tuple[tuple, ...],
) -> "RunRequest":
    from repro.engine.batch import RunRequest

    return RunRequest.hunt(
        policy, app, seed=settings.session_seed,
        settle_ms=settings.settle_ms, script=script,
    )


def run_hunt(
    settings: "HuntSettings | None" = None,
    corpus: "Sequence[AppSpec] | None" = None,
) -> HuntReport:
    """Hunt over the generated corpus; return the canonical report."""
    from repro.engine.batch import execute_request, run_batch

    if settings is None:
        settings = HuntSettings()
    if corpus is None:
        corpus = generate_corpus(settings.seed, settings.apps)
    apps = {app.package: app for app in corpus}
    suspicions = inspect_corpus(corpus, settings.rules)
    policies = settings.policies

    report = HuntReport(
        seed=settings.seed,
        app_count=len(corpus),
        policies=tuple(policies),
        rules=tuple(rule.name for rule in settings.rules),
        suspicions=len(suspicions),
        apps_with_suspicions=len({s.package for s in suspicions}),
    )
    for policy in policies:
        report.by_policy[policy] = {
            "predicted": 0, "confirmed": 0,
            "observed_losses": 0, "observed_crashes": 0,
            "unpredicted": 0,
        }
    for rule in settings.rules:
        report.by_rule[rule.name] = {
            "suspicions": 0, "predictions": 0, "confirmed": 0,
        }

    states = [
        _SuspicionState(s, apps[s.package], candidate_scripts(s))
        for s in suspicions
    ]
    for state in states:
        report.by_rule[state.suspicion.rule]["suspicions"] += 1
        for policy in state.predicted(policies):
            report.by_policy[policy]["predicted"] += 1
            report.by_rule[state.suspicion.rule]["predictions"] += 1

    # ------------------------------------------------------------------
    # search rounds
    # ------------------------------------------------------------------
    for round_index in range(MAX_CANDIDATE_ROUNDS):
        plan: list[tuple[_SuspicionState, str, tuple[tuple, ...]]] = []
        for state in states:
            if round_index >= len(state.candidates):
                continue
            script = state.candidates[round_index]
            if round_index == 0:
                # Primary round: all policies, controls included.
                targets = list(policies)
            else:
                targets = state.unconfirmed(policies)
            for policy in targets:
                plan.append((state, policy, script))
        if not plan:
            break
        requests = [
            _probe_request(settings, policy, state.app, script)
            for state, policy, script in plan
        ]
        report.search_probes += len(requests)
        results = run_batch(
            requests, jobs=settings.jobs, cache=settings.cache
        )
        for (state, policy, script), probe in zip(plan, results):
            _fold_observation(report, policy, probe, state.suspicion)
            if (
                policy in state.suspicion.policies
                and policy not in state.confirmed
                and probe.confirms(
                    state.suspicion.expects, state.suspicion.slot
                )
            ):
                state.confirmed[policy] = (script, probe)
                report.by_policy[policy]["confirmed"] += 1
                report.by_rule[state.suspicion.rule]["confirmed"] += 1

    findings = [
        Finding(state.suspicion, policy, script, probe)
        for state in states
        for policy, (script, probe) in sorted(state.confirmed.items())
    ]
    findings.sort(
        key=lambda f: (f.suspicion.package, f.suspicion.rule, f.policy)
    )

    # ------------------------------------------------------------------
    # lockstep shrinking
    # ------------------------------------------------------------------
    shrinkers = {i: ScriptShrinker(f.script) for i, f in enumerate(findings)}
    best_probe = {i: f.probe for i, f in enumerate(findings)}
    active = sorted(shrinkers)
    while active:
        plan_spans: list[tuple[int, list[tuple[tuple, ...]]]] = []
        requests = []
        for index in active:
            candidates = shrinkers[index].candidates()
            plan_spans.append((index, candidates))
            finding = findings[index]
            requests.extend(
                _probe_request(
                    settings, finding.policy, apps[finding.probe.package],
                    candidate,
                )
                for candidate in candidates
            )
        report.shrink_probes += len(requests)
        results = run_batch(
            requests, jobs=settings.jobs, cache=settings.cache
        )
        cursor = 0
        still_active = []
        for index, candidates in plan_spans:
            finding = findings[index]
            outcomes = []
            for candidate in candidates:
                probe = results[cursor]
                cursor += 1
                ok = probe.confirms(
                    finding.suspicion.expects, finding.suspicion.slot
                )
                if ok and not outcomes.count(True):
                    best_probe[index] = probe
                outcomes.append(ok)
            shrinkers[index].advance(outcomes)
            if shrinkers[index].done:
                finding.shrunk = shrinkers[index].current
                finding.shrunk_probe = best_probe[index]
                finding.shrunk_minimal = shrinkers[index].minimal
                finding.shrink_probes = shrinkers[index].probes
            else:
                still_active.append(index)
        active = still_active

    # ------------------------------------------------------------------
    # fresh replay of every shrunk repro
    # ------------------------------------------------------------------
    if settings.replay_check:
        for finding in findings:
            request = _probe_request(
                settings, finding.policy, apps[finding.probe.package],
                finding.shrunk,
            )
            report.shrink_probes += 1
            fresh = execute_request(request)
            if not fresh.confirms(
                finding.suspicion.expects, finding.suspicion.slot
            ):
                report.simulator_bugs.append(
                    f"replay: shrunk repro for {finding.probe.package} "
                    f"[{finding.suspicion.rule}] under {finding.policy} "
                    "no longer reproduces on a fresh system"
                )
            elif (
                finding.shrunk_probe is not None
                and fresh.digest_json != finding.shrunk_probe.digest_json
            ):
                report.simulator_bugs.append(
                    f"replay: end-state digest for {finding.probe.package} "
                    f"[{finding.suspicion.rule}] under {finding.policy} "
                    "diverged between the search run and a fresh replay"
                )

    report.findings = [finding.to_dict() for finding in findings]
    return report


def _fold_observation(
    report: HuntReport,
    policy: str,
    probe: HuntProbe,
    suspicion: Suspicion,
) -> None:
    """Fold one search probe into the per-policy observation counters."""
    row = report.by_policy[policy]
    if probe.lost_slots:
        row["observed_losses"] += 1
    if probe.crashed:
        row["observed_crashes"] += 1
    failed = bool(probe.lost_slots or probe.crashed)
    if failed and policy not in suspicion.policies:
        row["unpredicted"] += 1
    if policy == "runtimedroid" and failed:
        mode = "crashed" if probe.crashed else (
            f"lost {', '.join(probe.lost_slots)}"
        )
        report.simulator_bugs.append(
            f"control: runtimedroid {mode} on {probe.package} "
            f"[{suspicion.rule}] — the no-loss policy must keep everything"
        )
