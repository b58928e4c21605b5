"""Wire protocol of the simulation daemon: the job-kind table, job
params, and event lines.

One rule keeps the daemon honest: **every job kind is declared once**,
in :data:`KINDS`.  A :class:`JobKind` row names the kind's params (wire
type, default, CLI flag), the ``build`` function that turns params into
settings, the unit bodies that run them, and the CLI flags that only
make sense in-process.  ``python -m repro fleet|oracle|hunt`` parses its
flags from the same rows, builds its settings through the same
``build``, and runs the same unit bodies in-process that the daemon
farms to its workers — so a request can never mean two different
computations depending on which side ran it, the precondition for the
byte-identity gate in ``BENCH_serve.json``.

Job params are plain JSON objects (everything a request needs travels
by value; recorded workloads ship inline as their canonical envelope).
Events are JSON objects streamed one per line (JSON lines); the stream
for a job always ends with a terminal event (``done``, ``cancelled``,
or ``error``), and ``partial`` events carry the canonical report of the
shards folded so far — a monotone refinement whose last step equals the
final report byte-for-byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.cli import Option, did_you_mean, parse_jobs, seed_int
from repro.errors import (
    FleetError,
    HuntError,
    OracleError,
    ServeError,
    WorkloadError,
)
from repro.serve import tasks

PROTOCOL_VERSION = 1

#: What a semantically bad request raises, whichever side builds it:
#: the daemon answers ``400`` with the message, the CLI prints
#: ``<kind> error: <message>`` and exits 2.
BAD_REQUEST = (ServeError, FleetError, HuntError, OracleError,
               WorkloadError)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServeError(message)


# ----------------------------------------------------------------------
# the declaration types
# ----------------------------------------------------------------------
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               list: "a list of strings", dict: "a JSON object"}


@dataclass(frozen=True)
class Param:
    """One job param: wire name and JSON type, default, and the CLI
    ``flag`` that sets it (``None``: not a flag).  ``parse`` turns the
    flag's text into a value (default: ``type``); a ``list`` param's
    flag repeats, appending one parsed value per use."""

    name: str
    type: type
    default: Any = None
    flag: "str | None" = None
    parse: "Callable[[str], Any] | None" = None
    required: bool = False

    def accepts(self, value: Any) -> bool:
        if isinstance(value, bool):
            return False
        if self.type is float:
            return isinstance(value, (int, float))
        if self.type is list:
            return (isinstance(value, list)
                    and all(isinstance(item, str) for item in value))
        return isinstance(value, self.type)

    def option(self) -> Option:
        return Option((self.flag,), self.name, self.parse or self.type,
                      self.default, repeat=self.type is list)


def _one_unit(settings) -> list:
    return [settings]


def _report_done(settings, outputs: list) -> dict:
    """``done`` fields of a kind whose one unit returns
    ``(report_json, clean, text)``."""
    report_json, clean, text = outputs[0]
    return {"report_json": report_json, "text": text,
            "exit": 0 if clean else 1}


@dataclass(frozen=True)
class JobKind:
    """Everything the CLI and the daemon know about one job kind.

    ``build(params)`` validates and turns params into settings, raising
    the CLI's own error types for semantic problems.  ``units(settings)``
    are payloads for ``unit`` — a function in :mod:`repro.serve.tasks` —
    which daemon workers run one per unit and the CLI runs serially
    in-process, passing its ``local`` options as keyword arguments.  ``finish(settings, outputs)`` folds the outputs,
    by position, into the ``done`` event's fields.

    ``local`` options run in-process only and are rejected with
    ``--daemon``; ``client`` options are the thin client's own.  A
    ``cached`` kind's payloads carry a ``cache_key()`` and are answered
    from the daemon's result cache when they can be.  A ``sharded`` kind
    (fleet) is run by the daemon's shard coordinator instead of
    ``unit``, and ``render`` prints its report from the bytes alone.
    """

    name: str
    params: tuple[Param, ...]
    build: Callable[[dict], Any]
    unit: Callable
    units: Callable[[Any], list] = _one_unit
    finish: Callable[[Any, list], dict] = _report_done
    local: tuple[Option, ...] = ()
    client: tuple[Option, ...] = ()
    cached: bool = False
    sharded: bool = False
    render: "Callable[[str], str] | None" = None


def check_job_params(kind: str, params: Any) -> dict:
    """Validate a job request against its kind's params table.

    Raises :class:`ServeError` for an unknown kind or param, a missing
    required param, or a value of the wrong JSON type; a ``null`` value
    means the default.  Semantic validation (unknown policy, bad rate)
    is the kind's ``build``, in the same exception types the CLI sees.
    """
    _require(kind in KINDS,
             f"unknown job kind {kind!r}; known: {list(JOB_KINDS)}")
    if params is None:
        params = {}
    _require(isinstance(params, dict), "job params must be a JSON object")
    table = {param.name: param for param in KINDS[kind].params}
    unknown = set(params) - set(table)
    _require(not unknown,
             f"unknown {kind} params {sorted(unknown)}; "
             f"known: {sorted(table)}")
    for param in table.values():
        value = params.get(param.name)
        if value is None:
            _require(not param.required,
                     f"{kind} jobs need the {param.name!r} param")
        else:
            _require(param.accepts(value),
                     f"param {param.name!r} must be "
                     f"{_TYPE_NAMES[param.type]}, "
                     f"got {type(value).__name__}")
    return params


def _values(kind: str, params: Any) -> dict:
    """Checked params with every default filled in."""
    params = check_job_params(kind, params)
    return {
        param.name: (params[param.name]
                     if params.get(param.name) is not None
                     else param.default)
        for param in KINDS[kind].params
    }


# ----------------------------------------------------------------------
# params -> settings, one build function per kind (CLI and daemon)
# ----------------------------------------------------------------------
def fleet_spec_from_params(params: dict):
    """Build the :class:`~repro.fleet.run.FleetSpec` a params dict names.

    The one spec-construction path for both sides, so they derive cell
    sizing (``devices`` is the fleet total, split across cells exactly
    as the CLI always has) and workload resolution identically.  Raises
    :class:`ServeError` for malformed params and the underlying
    ``FleetError``/``WorkloadError``/``OracleError`` for semantically
    bad ones — the same errors, whichever side builds it.
    """
    from repro.fleet import FaultPlan, FleetSpec, NO_FAULTS, fleet_corpus

    values = _values("fleet", params)
    given = [key for key in ("workload", "workload_ir", "phases")
             if values[key] is not None]
    _require(len(given) <= 1,
             f"params {given} are mutually exclusive")

    population = None
    fixed_workload = None
    plan = None
    if values["workload"] is not None:
        from repro.workload.library import workload_named

        population = workload_named(values["workload"])
    elif values["workload_ir"] is not None:
        from repro.workload.codec import workload_from_dict

        fixed_workload = workload_from_dict(values["workload_ir"])
    elif values["phases"] is not None:
        from repro.workload.library import phase_plan_named

        plan = phase_plan_named(values["phases"])

    policies = tuple(values["policies"] or ())
    faults_fraction = float(values["faults"])
    cell_count = len(fleet_corpus()) * (len(policies) or 3)
    return FleetSpec(
        policies=policies if policies else FleetSpec.policies,
        devices_per_cell=max(1, math.ceil(values["devices"] / cell_count)),
        faults=(FaultPlan.uniform(faults_fraction)
                if faults_fraction else NO_FAULTS),
        seed=values["seed"],
        shard_size=values["shard_size"],
        oracle_rate=float(values["oracle"]),
        population=(population if population is not None
                    else FleetSpec.population),
        workload=fixed_workload,
        phases=plan,
    )


def hunt_settings_from_params(params: dict):
    """Build the :class:`~repro.hunt.search.HuntSettings` a params dict
    names.  Local-only execution knobs (``jobs``, ``cache``) are not
    params; the hunt unit layers them on."""
    from repro.hunt.search import HuntSettings

    values = _values("hunt", params)
    policies = tuple(values["policies"] or ())
    return HuntSettings(
        apps=values["apps"],
        seed=values["seed"],
        **({"policies": policies} if policies else {}),
    )


def oracle_session_from_params(params: dict):
    """``(app, policies, seed, member)`` of one differential session.

    Raises :class:`ServeError` (with a did-you-mean hint) for an
    unknown app and ``OracleError`` for a bad policy set, so neither
    reaches a worker.
    """
    from repro.oracle.session import DEFAULT_POLICIES, check_policies

    values = _values("oracle", params)
    app, known = resolve_app(values["app"])
    _require(app is not None,
             f"unknown app {values['app']!r}; known: {known}"
             f"{did_you_mean(values['app'].lower(), known)}")
    policies = check_policies(values["policies"] or DEFAULT_POLICIES)
    return app, policies, values["seed"], values["member"]


def _experiment_requests(params: dict):
    """``(name, requests)``: a named engine-bench request set."""
    from repro.engine.bench import _REQUEST_BUILDERS

    values = _values("experiment", params)
    name = values["experiment"]
    _require(name in _REQUEST_BUILDERS,
             f"unknown experiment {name!r}; "
             f"known: {sorted(_REQUEST_BUILDERS)}")
    return name, _REQUEST_BUILDERS[name](values["seed"])


def _experiment_done(settings, outputs: list) -> dict:
    from repro.engine.codec import encode_result
    from repro.engine.fingerprint import fingerprint

    digest = fingerprint([
        json.dumps(encode_result(result), sort_keys=True,
                   separators=(",", ":"))
        for result in outputs
    ])
    return {"experiment": settings[0], "runs": len(outputs),
            "digest": digest, "exit": 0}


def _render_fleet(report_json: str) -> str:
    from repro.fleet import format_fleet_report

    return format_fleet_report(json.loads(report_json))


def _checkpoint_every(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("--checkpoint-every must be >= 1")
    return value


# ----------------------------------------------------------------------
# the job-kind table
# ----------------------------------------------------------------------
_POLICIES = Param("policies", list, flag="--policy", parse=str)
_SEED = Param("seed", int, 0x5EED, "--seed", seed_int)
_JOBS = Option(("--jobs",), "jobs", parse_jobs)

#: Every job kind, declared once.  ``fleet``, ``oracle``, and ``hunt``
#: mirror the CLI subcommands; ``experiment`` runs a named engine-bench
#: request set (``fig14``/``table5``/``probes``) through the daemon's
#: shared result cache.
KINDS: dict[str, JobKind] = {kind.name: kind for kind in (
    JobKind(
        name="fleet",
        params=(
            Param("devices", int, 120, "--devices"),
            _POLICIES,
            Param("faults", float, 0.0, "--faults"),
            Param("oracle", float, 0.0, "--oracle"),
            _SEED,
            Param("shard_size", int, 32, "--shard-size"),
            Param("workload", str, flag="--workload"),
            Param("workload_ir", dict),
            Param("phases", str, flag="--phases"),
        ),
        build=fleet_spec_from_params,
        unit=tasks.run_fleet_unit,
        local=(
            _JOBS,
            Option(("--checkpoint",), "checkpoint_path", noun="path"),
            Option(("--checkpoint-every",), "checkpoint_every",
                   _checkpoint_every),
            Option(("--stats",), "collect_stats", None, False),
            Option(("--verify-deltas",), "verify_deltas", None, False),
            Option(("--no-arena",), "use_arena", None, True, const=False),
        ),
        client=(Option(("--events-log",), "events_log", noun="path"),),
        sharded=True,
        render=_render_fleet,
    ),
    JobKind(
        name="oracle",
        params=(
            Param("app", str, required=True),
            _POLICIES,
            _SEED,
            Param("member", int, 0, "--member"),
        ),
        build=oracle_session_from_params,
        unit=tasks.run_oracle_unit,
    ),
    JobKind(
        name="experiment",
        params=(Param("experiment", str, required=True), _SEED),
        build=_experiment_requests,
        unit=tasks.run_experiment_unit,
        units=lambda settings: settings[1],
        finish=_experiment_done,
        cached=True,
    ),
    JobKind(
        name="hunt",
        params=(Param("apps", int, 100, "--apps"), _POLICIES, _SEED),
        build=hunt_settings_from_params,
        unit=tasks.run_hunt_unit,
        local=(_JOBS, Option(("--no-cache",), "cache", None, True,
                             const=False)),
    ),
)}

#: The job kinds the daemon executes, in table order.
JOB_KINDS = tuple(KINDS)


def resolve_app(name: str):
    """Resolve an app by package or label across both corpora.

    Returns ``(app, known_names)`` exactly like the CLI's resolver —
    ``app`` is ``None`` when unknown, ``known_names`` feeds the
    did-you-mean hint on both sides of the wire.
    """
    from repro.apps.appset27 import build_appset27
    from repro.fleet import fleet_corpus

    by_key: dict[str, Any] = {}
    for app in [*fleet_corpus(), *build_appset27()]:
        by_key[app.package.lower()] = app
        by_key[app.label.lower()] = app
    return by_key.get(name.lower()), sorted(by_key)


# ----------------------------------------------------------------------
# event lines
# ----------------------------------------------------------------------
TERMINAL_EVENTS = ("done", "cancelled", "error")


def encode_event(event: dict) -> bytes:
    """One canonical JSON line (sorted keys, no whitespace)."""
    return (json.dumps(event, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def decode_event(line: "bytes | str") -> dict:
    """Parse one event line; raises :class:`ServeError` on junk."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ServeError(f"event line is not UTF-8: {exc}") from exc
    try:
        event = json.loads(line)
    except ValueError as exc:
        raise ServeError(
            f"event line is not JSON: {line[:80]!r}"
        ) from exc
    if not isinstance(event, dict) or "event" not in event:
        raise ServeError(f"malformed event (no 'event' field): {line[:80]!r}")
    return event
