"""The hunt probe: one candidate script driven against one policy.

This is the hunt's engine scenario (kind ``"hunt-session"``), split at
its divergence point so the batch layer can share work:

* :func:`prepare_hunt` — launch, settle, seed every slot with a known
  sentinel.  Independent of the candidate being probed, so the
  candidate scripts for one ``(app, policy, seed)`` inside one
  ``run_batch`` call form one prefix group.  Such groups are small
  (~2.5 cells) and the prefix is cheap (~0.2 ms against a ~1.1 ms
  capture and a ~0.45 ms restore), so a forked hunt prefix buys only
  ~2 restores (1.96 measured); the engine's cost rule therefore runs
  most hunt groups fresh.  The hunter's cached-search speedup comes
  from the result cache, not from prefix forks.
* :func:`finish_hunt` — replay the candidate op script through the one
  device driver (oracle profile: observe, never repair), reduce the end
  state with the oracle's :class:`~repro.oracle.digest.StateDigest`
  self-audit, and return a :class:`HuntProbe`.

A probe is a plain-value dataclass (picklable, JSON-codable) so it can
ride the engine's worker pool and two-tier result cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.workload.driver import DriverProfile, drive
from repro.workload.ir import Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.dsl import AppSpec
    from repro.harness.policies import PolicyFactory
    from repro.sim.costs import CostModel
    from repro.system import AndroidSystem

__all__ = [
    "HUNT_SETTLE_MS",
    "HuntProbe",
    "finish_hunt",
    "prepare_hunt",
    "run_hunt_session",
    "seeded_expected",
]

#: Settle time after launch before the prefix seeds the slots.
HUNT_SETTLE_MS = 400.0


def seeded_expected(app: "AppSpec") -> dict[str, str]:
    """The sentinel value the prefix wrote per slot."""
    return {slot.name: f"hunt:{slot.name}" for slot in app.slots}


@dataclass(frozen=True)
class HuntProbe:
    """What one candidate script did to one policy."""

    package: str
    policy: str
    script: tuple[tuple, ...]
    crashed: bool
    crash_kinds: tuple[str, ...]
    lost_slots: tuple[str, ...]
    relaunches: int
    process_deaths: int
    ops_played: int
    digest_json: str
    """Canonical bytes of the full end-state digest — two probes of the
    same cell are replay-identical exactly when these match."""

    def confirms(self, expects: str, slot: str | None) -> bool:
        """Does this probe confirm a suspicion's predicted failure?"""
        if expects == "crash":
            return self.crashed
        return slot in self.lost_slots


def prepare_hunt(
    system: "AndroidSystem",
    app: "AppSpec",
    *,
    settle_ms: float = HUNT_SETTLE_MS,
) -> None:
    """Hunt prefix: launch, settle, seed every slot with a sentinel."""
    system.launch(app)
    system.run_for(settle_ms)
    for name, value in seeded_expected(app).items():
        system.write_slot(app, name, value)
    system.run_for(50.0)


def finish_hunt(
    system: "AndroidSystem",
    app: "AppSpec",
    *,
    script: tuple[tuple, ...] = (),
) -> HuntProbe:
    """Hunt suffix: replay ``script``, digest the end state."""
    # Function-level import: the engine's codec imports this module, and
    # ``repro.oracle``'s package init imports the engine — importing the
    # digest at module scope would close that cycle.
    from repro.oracle.digest import SessionLog, capture_digest

    profile = DriverProfile(
        write_value=lambda step: f"hunt.s{step}",
        initial_expected=seeded_expected(app),
        settle_audits=False,
        relaunch_audit=False,
        reenter_lost=False,
        count_empty_writes=False,
        epilogue="count-death",
    )
    result = drive(system, app, Workload.from_tuples(script), profile)
    log = SessionLog(
        # The digest compares reprs of slot reads; expected values must
        # be repr'd the same way (the oracle session does likewise).
        expected={name: repr(value)
                  for name, value in result.expected.items()},
        relaunches=result.relaunches,
        process_deaths=result.process_deaths,
        ops_played=result.ops_played,
        handling_baseline=result.handling_baseline,
    )
    digest = capture_digest(system, app, log)
    return HuntProbe(
        package=app.package,
        policy=digest.policy,
        script=tuple(tuple(op) for op in script),
        crashed=digest.crashed,
        crash_kinds=digest.crash_kinds,
        lost_slots=digest.lost_slots,
        relaunches=digest.relaunches,
        process_deaths=digest.process_deaths,
        ops_played=digest.ops_played,
        digest_json=digest.to_json(),
    )


def run_hunt_session(
    policy_factory: "PolicyFactory",
    app: "AppSpec",
    *,
    costs: "CostModel | None" = None,
    seed: int = 0x5EED,
    settle_ms: float = HUNT_SETTLE_MS,
    script: tuple[tuple, ...] = (),
) -> HuntProbe:
    """Classic fresh path: prepare + finish on a fresh system."""
    from repro.system import AndroidSystem

    system = AndroidSystem(policy=policy_factory(), costs=costs, seed=seed)
    prepare_hunt(system, app, settle_ms=settle_ms)
    return finish_hunt(system, app, script=script)
