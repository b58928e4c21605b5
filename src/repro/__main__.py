"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``demo``               — the quickstart scenario (crash vs transparent).
* ``experiments``        — list the paper's experiments.
* ``trace <target>``     — run ``demo`` or one experiment with causal span
  tracing on, write a Chrome trace-event JSON (open in ``chrome://tracing``
  or Perfetto), and verify the trace replays identically from the same
  seed.  Options: ``-o/--output PATH``, ``--no-verify``.
* ``bench-engine``       — benchmark the batch engine (serial vs parallel
  vs cached vs prefix-snapshot forking) and write ``BENCH_engine.json``.
  Options: ``--jobs N``, ``-o/--output PATH``, ``--check`` (non-zero exit
  unless cached re-runs beat cold serial and all modes — forked cells
  included — are byte-identical).  ``bench-engine fleet`` benchmarks the
  fleet simulator instead (cohort-forked vs cold spawn, serial vs
  sharded identity) and writes ``BENCH_fleet.json``; ``--devices N``
  sizes it.
* ``fleet``              — simulate a device fleet: cohorts forked from
  per-(app, policy) templates play seeded user sessions, aggregated into
  crash/data-loss rates and handling-latency quantiles per policy.
  Options: ``--devices N`` (total, default 120), ``--policy NAME``
  (repeatable; default all three), ``--faults F`` (fraction of devices
  per fault kind, default 0), ``--oracle RATE`` (run the differential
  oracle on a deterministic sample of members; verdict counts join the
  report), ``--jobs N|auto`` (``auto`` = one worker per core, bounded
  by the shard count), ``--shard-size N``, ``--seed N``,
  ``--checkpoint PATH`` (periodic resumable checkpoints; a killed run
  re-invoked with the same spec and path resumes byte-identically),
  ``--checkpoint-every N`` (shards between writes, default 64),
  ``--stats`` (template-provisioning counters: cache/disk/rebuild plus
  shared-memory arena hits/misses/fallbacks — printed and added to the
  JSON report), ``--verify-deltas`` (spot-check the delta-snapshot
  codec on every shard), ``--no-arena`` (disable the shared-memory
  template arena, fall back to per-worker disk reads),
  ``--workload NAME|FILE`` (a named stationary workload from
  ``repro workload list``, or a recorded-workload JSON file every
  member replays), ``--phases NAME`` (a named time-varying phase plan:
  diurnal phases, rotation storms, update waves, kill cascades),
  ``--daemon URL`` (run the fleet on a ``repro serve`` daemon —
  byte-identical report, warm templates; falls back in-process when
  the daemon is unreachable), ``--events-log PATH`` (with
  ``--daemon``: record the raw streamed event lines),
  ``-o/--output PATH`` (write the canonical JSON report).
* ``serve``              — run the simulation daemon: a long-lived
  process owning a persistent worker pool, snapshot/result caches,
  and a resident shared-memory template arena, serving concurrent
  fleet/oracle/hunt/experiment jobs over HTTP + JSON lines with streaming
  partial reports, fair multi-tenant scheduling, and cancellation
  (docs/SERVE.md).  Options: ``--port P`` (0 = ephemeral), ``--host
  H``, ``--jobs N|auto``, ``--root PATH`` (persistent state dir; the
  default is a scratch dir removed at shutdown), ``--ready-file
  PATH`` (write ``{"url", "pid"}`` once listening), ``--stream-every
  N``, ``--template-budget-mb N``; ``serve --stop URL`` asks a
  running daemon to shut down.
* ``workload``           — the session-IR toolbox (docs/WORKLOAD.md):
  ``workload list`` names the registries; ``workload show NAME``
  prints a member's canonical IR dump (``--seed N``, ``--member N``,
  ``-o PATH`` writes the canonical JSON); ``workload record`` records
  one traced session and compiles its span stream back to a workload
  file (``--app NAME``, ``--policy NAME``, ``--seed N``, ``-o PATH``).
* ``oracle <app>``       — run one cross-policy differential session:
  the same seeded session under every policy, end states and span
  streams diffed and every divergence classified
  (EXPECTED_POLICY_DELTA / STATE_DIVERGENCE / SIMULATOR_BUG — see
  docs/ORACLE.md).  Apps come from the fleet corpus or the 27-app
  corpus, by package or name.  Options: ``--policy NAME`` (repeatable;
  default all three), ``--seed N``, ``--member N`` (session script
  variant), ``--daemon URL`` (run the session on a ``repro serve``
  daemon, falling back in-process), ``-o/--output PATH`` (write the
  JSON report).  Exits 1 if any divergence classifies as
  SIMULATOR_BUG.
* ``hunt``               — rule-guided bug hunting over a taxonomy-
  generated app corpus (docs/HUNT.md): static rules predict where each
  policy should fail, a suspicion-guided search proves each prediction
  by simulation, and delta debugging shrinks every confirmed finding to
  a locally minimal repro.  ``hunt rules`` lists the rule catalog.
  Options: ``--apps N`` (corpus size, default 100), ``--seed N``,
  ``--policy NAME`` (repeatable; default all three), ``--jobs N|auto``,
  ``--no-cache`` (skip the result cache), ``--daemon URL`` (run the
  hunt on a ``repro serve`` daemon, falling back in-process),
  ``-o/--output PATH`` (write the canonical JSON report).  Exits 1 on
  any SIMULATOR_BUG classification.
* ``<experiment>``       — run one experiment (e.g. ``fig10``, ``table3``).
  Options: ``--jobs N|auto`` (parallel workers, default auto), ``--no-cache``
  (skip the ``.repro-cache/`` result cache), ``--cache-root PATH``,
  ``--no-snapshots`` (disable prefix-snapshot sharing), ``--verify-forks``
  (re-run a sample of forked cells from scratch and compare).

Every subcommand parses its options with :func:`repro.cli.parse_options`
(one parser, one set of messages): an unknown flag prints ``unexpected
argument`` and the usage line, a flag without its value ``missing value
for the last option``, an unparsable value ``bad option value``, and
unknown commands and names get a "did you mean" hint — all exit 2.
``fleet``, ``oracle`` and ``hunt`` take their flags from the job-kind
table in ``repro/serve/protocol.py``: a flag that sets a job param works
in-process and with ``--daemon`` alike, the kind's in-process-only flags
are rejected with ``--daemon``, and both paths print the same text,
write the same ``-o`` bytes and exit with the same code (3 when the
daemon cancels the job).
"""

from __future__ import annotations

import sys

from repro.cli import Option, parse_options, seed_int, unknown_command


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command = argv[0]
    if command == "demo":
        run_demo()
        return 0
    if command == "trace":
        return trace_command(argv[1:])
    if command == "fleet":
        return fleet_command(argv[1:])
    if command == "oracle":
        return oracle_command(argv[1:])
    if command == "workload":
        return workload_command(argv[1:])
    if command == "hunt":
        return hunt_command(argv[1:])
    if command == "serve":
        from repro.serve.server import main as serve_main

        return serve_main(argv[1:])
    if command == "bench-engine":
        from repro.engine.bench import main as bench_main

        return bench_main(argv[1:])
    from repro.harness.experiments.__main__ import _MODULES
    from repro.harness.experiments.__main__ import main as experiments_main

    if command == "experiments":
        return experiments_main([])
    if command in _MODULES:
        return experiments_main(argv)
    return unknown_command(
        command,
        ["demo", "experiments", "trace", "fleet", "oracle", "workload",
         "hunt", "serve", "bench-engine", *_MODULES],
    )


# ----------------------------------------------------------------------
# job subcommands: fleet, oracle, hunt
# ----------------------------------------------------------------------
_FLEET_USAGE = (
    "usage: python -m repro fleet [--devices N]"
    " [--policy NAME]... [--faults F] [--oracle RATE]"
    " [--jobs N|auto] [--shard-size N] [--seed N]"
    " [--checkpoint PATH] [--checkpoint-every N]"
    " [--stats] [--verify-deltas] [--no-arena]"
    " [--workload NAME|FILE] [--phases NAME]"
    " [--daemon URL] [--events-log PATH] [-o PATH]"
)

_ORACLE_USAGE = (
    "usage: python -m repro oracle <app> [--policy NAME]..."
    " [--seed N] [--member N] [--daemon URL] [-o PATH]"
)

_HUNT_USAGE = (
    "usage: python -m repro hunt [rules] [--apps N] [--seed N]"
    " [--policy NAME]... [--jobs N|auto] [--no-cache]"
    " [--daemon URL] [-o PATH]"
)

_HUNT_SUBCOMMANDS = ["rules"]

_OUTPUT = Option(("-o", "--output"), "out", noun="path")
_SEED = Option(("--seed",), "seed", seed_int, 0x5EED)
_MEMBER = Option(("--member",), "member", int, 0)


def _parse_job_args(name: str, args: list[str], usage: str,
                    positionals: tuple[str, ...] = ()):
    """Parse a job subcommand's flags from its job-kind table row:
    param flags, in-process-only flags, and the thin-client flags."""
    from repro.serve.protocol import KINDS

    kind = KINDS[name]
    options = (*(param.option() for param in kind.params if param.flag),
               *kind.local, *kind.client,
               Option(("--daemon",), "daemon", noun="URL"), _OUTPUT)
    return parse_options(args, options, usage, positionals)


def _run_job(name: str, values) -> int:
    """Run one parsed job on the daemon (``--daemon``) or in-process.

    Both paths build the same settings through the kind's ``build`` and
    print the same text, write the same report bytes and exit with the
    same code; an unreachable daemon is noted on stderr and the job
    runs in-process.
    """
    from repro.serve.protocol import BAD_REQUEST, KINDS

    kind = KINDS[name]
    params = {param.name: values[param.name] for param in kind.params
              if values.get(param.name) not in (None, [])}
    if values["daemon"] is not None:
        local_only = [option.flags[0] for option in kind.local
                      if option.dest in values.given]
        if local_only:
            print("these options run in-process and do not combine "
                  f"with --daemon: {', '.join(local_only)}")
            return 2
    try:
        settings = kind.build(params)
        if values["daemon"] is not None:
            from repro.serve.client import DaemonClient

            client = DaemonClient(values["daemon"])
            if client.available():
                return _run_via_daemon(client, kind, params, values)
            print(f"note: daemon {values['daemon']} unreachable; "
                  "running in-process", file=sys.stderr)
        local = {option.dest: values[option.dest] for option in kind.local}
        done = kind.finish(settings, [kind.unit(payload, **local)
                                      for payload in kind.units(settings)])
    except BAD_REQUEST as error:
        print(f"{name} error: {error}")
        return 2
    print(done["text"])
    return _write_report(values["out"], done["report_json"]) or done["exit"]


def _run_via_daemon(client, kind, params: dict, values) -> int:
    """Follow one job on the daemon; same text, same report bytes, same
    exit code as the in-process path, and 3 when it is cancelled.

    With ``--events-log`` every streamed event line is written there
    raw (canonical JSON lines — what CI's prefix assertions read).
    """
    from repro.errors import ServeError
    from repro.serve.protocol import encode_event

    log_path = values.get("events_log")
    log = open(log_path, "w", encoding="utf-8") if log_path else None
    final: dict = {}
    try:
        for event in client.events(client.submit(kind.name, params)):
            if log is not None:
                log.write(encode_event(event).decode("utf-8"))
            final = event
    except ServeError as error:
        print(f"{kind.name} error: {error}")
        return 2
    finally:
        if log is not None:
            log.close()
    if final.get("event") == "cancelled":
        print(f"{kind.name} error: job was cancelled on the daemon")
        return 3
    if final.get("event") != "done":
        print(f"{kind.name} error: {final.get('message', 'job failed')}")
        return 2
    report_json = final["report_json"]
    print(final["text"] if "text" in final else kind.render(report_json))
    return _write_report(values["out"], report_json) or final["exit"]


def _write_report(out_path: "str | None", report_json: str) -> int:
    """Write the canonical report for ``-o``; 1 when the write fails."""
    if out_path is None:
        return 0
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(report_json + "\n")
    except OSError as error:
        print(f"cannot write {out_path}: {error.strerror or error}")
        return 1
    print(f"\nwrote {out_path}")
    return 0


def fleet_command(args: list[str]) -> int:
    """Run a fleet simulation and print (optionally write) its report."""
    values = _parse_job_args("fleet", args, _FLEET_USAGE)
    if isinstance(values, int):
        return values
    if values["workload"] is not None:
        if values["phases"] is not None:
            print("--workload and --phases are mutually exclusive "
                  "(a phase plan carries its own op distributions)")
            return 2
        from repro.errors import WorkloadError

        try:
            values.update(_workload_param(values["workload"]))
        except WorkloadError as error:
            print(f"fleet error: {error}")
            return 2
    return _run_job("fleet", values)


def oracle_command(args: list[str]) -> int:
    """Run one cross-policy differential session and report verdicts."""
    values = _parse_job_args("oracle", args, _ORACLE_USAGE, ("app",))
    if isinstance(values, int):
        return values
    if values["app"] is None:
        print(_ORACLE_USAGE)
        return 2
    return _run_job("oracle", values)


def hunt_command(args: list[str]) -> int:
    """Hunt the generated corpus; print (optionally write) the report."""
    values = _parse_job_args("hunt", args, _HUNT_USAGE, ("subcommand",))
    if isinstance(values, int):
        return values
    subcommand = values["subcommand"]
    if subcommand is not None and subcommand not in _HUNT_SUBCOMMANDS:
        return unknown_command(subcommand, _HUNT_SUBCOMMANDS)

    from repro.engine.batch import POLICIES

    for policy in values["policies"]:
        if policy not in POLICIES:
            return unknown_command(policy, sorted(POLICIES))

    if subcommand == "rules":
        from repro.hunt import rule_catalog

        for row in rule_catalog():
            print(f"{row['name']:<22s} severity {row['severity']}  "
                  f"{row['description']}")
        return 0
    return _run_job("hunt", values)


def _workload_param(value: str) -> dict:
    """``--workload NAME|FILE`` as params.

    A path-looking value (``.json`` suffix, a path separator, or an
    existing file) loads a recorded-workload file and ships it inline
    (``workload_ir`` — params travel by value); anything else is a
    registry name, which ``build`` resolves with a did-you-mean hint.
    """
    import os

    if not (value.endswith(".json") or os.sep in value
            or os.path.exists(value)):
        return {"workload": value}
    from repro.workload.codec import load_workload, workload_to_dict

    return {"workload": None,
            "workload_ir": workload_to_dict(load_workload(value))}


# ----------------------------------------------------------------------
# workload subcommand
# ----------------------------------------------------------------------
_WORKLOAD_USAGE = (
    "usage: python -m repro workload <list|show|record> ...\n"
    "  workload list\n"
    "  workload show NAME [--seed N] [--member N] [-o PATH]\n"
    "  workload record [--app NAME] [--policy NAME] [--workload NAME]"
    " [--seed N] [--member N] [-o PATH]"
)


def workload_command(args: list[str]) -> int:
    """The session-IR toolbox: inspect, dump, and record workloads."""
    if not args:
        print(_WORKLOAD_USAGE)
        return 2
    sub, rest = args[0], args[1:]
    if sub == "list":
        return _workload_list()
    if sub == "show":
        return _workload_show(rest)
    if sub == "record":
        return _workload_record(rest)
    return unknown_command(sub, ["list", "show", "record"])


def _workload_list() -> int:
    from repro.workload.library import PHASE_PLANS, WORKLOADS

    print("stationary workloads (fleet --workload NAME):")
    for name, population in sorted(WORKLOADS.items()):
        print(f"  {name}: {population.min_ops}-{population.max_ops} ops, "
              f"gaps {population.min_gap_ms:g}-{population.max_gap_ms:g} ms")
    print("phase plans (fleet --phases NAME):")
    for name, plan in sorted(PHASE_PLANS.items()):
        phases = "+".join(phase.name for phase in plan.phases)
        events = (", events: " + ", ".join(
            f"{event.kind}@{event.phase}" for event in plan.events)
            if plan.events else "")
        print(f"  {name}: {phases}{events}")
    return 0


def _workload_show(args: list[str]) -> int:
    values = parse_options(args, (_SEED, _MEMBER, _OUTPUT),
                           _WORKLOAD_USAGE, ("name",))
    if isinstance(values, int):
        return values
    name, seed, member = values["name"], values["seed"], values["member"]
    out_path = values["out"]
    if name is None:
        print(_WORKLOAD_USAGE)
        return 2

    from repro.workload.library import PHASE_PLANS, WORKLOADS
    from repro.workload.phases import phased_workload

    if name in WORKLOADS:
        from repro.fleet.population import device_workload

        workload = device_workload(WORKLOADS[name], seed, member)
        print(f"workload {name} (member {member}, seed {seed:#x}):")
    elif name in PHASE_PLANS:
        plan = PHASE_PLANS[name]
        workload = phased_workload(plan, seed, member)
        print(plan.describe())
        print(f"member {member}, seed {seed:#x}:")
    else:
        return unknown_command(
            name, sorted([*WORKLOADS, *PHASE_PLANS])
        )
    print(workload.describe())
    print(f"# {workload.op_count()} ops, "
          f"{workload.config_changes()} config changes, "
          f"{workload.think_time_ms():.1f} ms think time")
    if out_path is not None:
        from repro.workload.codec import save_workload

        try:
            save_workload(out_path, workload)
        except OSError as error:
            print(f"cannot write {out_path}: {error.strerror or error}")
            return 1
        print(f"wrote {out_path}")
    return 0


def _workload_record(args: list[str]) -> int:
    """Record one traced session, compile its spans back to a workload."""
    values = parse_options(args, (
        Option(("--app",), "app", default="fleet.notepad"),
        Option(("--policy",), "policy", default="rchdroid"),
        Option(("--workload",), "source", default="config-churn"),
        _SEED, _MEMBER,
        Option(("-o", "--output"), "out", default="recorded_workload.json",
               noun="path"),
    ), _WORKLOAD_USAGE)
    if isinstance(values, int):
        return values
    app_name, policy = values["app"], values["policy"]
    seed, member, out_path = values["seed"], values["member"], values["out"]

    from repro.engine.batch import POLICIES
    from repro.serve.protocol import resolve_app

    app, known = resolve_app(app_name)
    if app is None:
        return unknown_command(app_name, known)
    if policy not in POLICIES:
        return unknown_command(policy, sorted(POLICIES))

    from repro.errors import WorkloadError
    from repro.fleet.population import device_workload
    from repro.oracle.session import play_session
    from repro.system import AndroidSystem
    from repro.trace import replay
    from repro.trace.tracer import TraceSession
    from repro.workload.codec import save_workload
    from repro.workload.library import workload_named
    from repro.workload.trace_compile import from_trace

    try:
        population = workload_named(values["source"])
    except WorkloadError as error:
        print(f"workload error: {error}")
        return 2
    played = device_workload(population, seed, member)
    with TraceSession() as session:
        system = AndroidSystem(policy=POLICIES[policy](), seed=seed)
        system.launch(app)
        system.run_for(400.0)
        play_session(system, app, played)
    spans: list[dict] = []
    for tracer in session.tracers:
        spans.extend(replay.snapshot(tracer))
    recorded = from_trace(spans)
    try:
        save_workload(out_path, recorded)
    except OSError as error:
        print(f"cannot write {out_path}: {error.strerror or error}")
        return 1
    print(f"recorded {app.package} under {policy}: "
          f"{played.op_count()} ops played -> "
          f"{recorded.op_count()} ops compiled from "
          f"{len(spans)} spans")
    print(f"wrote {out_path}")
    return 0


# ----------------------------------------------------------------------
# trace subcommand
# ----------------------------------------------------------------------
_TRACE_USAGE = "usage: python -m repro trace <target> [-o PATH] [--no-verify]"


def trace_command(args: list[str]) -> int:
    """Record a Chrome trace for ``demo`` or an experiment, then verify
    that re-running the same scenario replays the identical trace."""
    from repro.harness.experiments.__main__ import _MODULES

    values = parse_options(args, (
        _OUTPUT, Option(("--no-verify",), "verify", None, True, const=False),
    ), _TRACE_USAGE, ("target",))
    if isinstance(values, int):
        return values
    target, out_path = values["target"], values["out"]
    targets = ["demo", *_MODULES]
    if target is None:
        print(_TRACE_USAGE)
        print("traceable targets: " + ", ".join(targets))
        return 2
    if target not in targets:
        return unknown_command(target, targets)
    if out_path is None:
        out_path = f"trace_{target.replace('.', '_')}.json"

    from repro.errors import ReplayDivergenceError
    from repro.trace import export, replay
    from repro.trace.tracer import TraceSession

    def record() -> TraceSession:
        with TraceSession() as session:
            _run_traced_target(target)
        return session

    session = record()
    if not session.tracers:
        print(f"{target} created no simulated systems to trace")
        return 1
    try:
        export.write_chrome_trace(out_path, session.labeled())
    except OSError as error:
        print(f"cannot write {out_path}: {error.strerror or error}")
        return 1
    print(
        f"wrote {out_path}: {session.span_count()} spans"
        f" across {len(session.tracers)} run(s)"
    )
    print("categories: " + ", ".join(sorted(session.categories())))
    if not values["verify"]:
        return 0
    replayed = record()
    if len(replayed.tracers) != len(session.tracers):
        print(
            f"replay check FAILED: recorded {len(session.tracers)} runs,"
            f" replayed {len(replayed.tracers)}"
        )
        return 1
    try:
        for recorded, rerun in zip(session.tracers, replayed.tracers):
            replay.check_replay(replay.snapshot(recorded), replay.snapshot(rerun))
    except ReplayDivergenceError as divergence:
        print(f"replay check FAILED: {divergence}")
        return 1
    print(
        f"replay check OK: re-run reproduced all"
        f" {session.span_count()} spans exactly"
    )
    return 0


def _run_traced_target(target: str) -> None:
    if target == "demo":
        run_demo()
        return
    import importlib

    from repro.harness.experiments.__main__ import _MODULES

    module = importlib.import_module(
        f"repro.harness.experiments.{_MODULES[target]}"
    )
    module.run()


def run_demo() -> None:  # pragma: no cover - thin CLI veneer
    from repro import Android10Policy, AndroidSystem, RCHDroidPolicy
    from repro.apps import make_benchmark_app

    for factory in (Android10Policy, RCHDroidPolicy):
        system = AndroidSystem(policy=factory())
        app = make_benchmark_app(4)
        system.launch(app)
        system.start_async(app)
        system.rotate()
        system.run_until_idle()
        print(
            f"{system.policy.name:>10}: crashed={system.crashed(app.package)}"
            f" handling={system.last_handling_ms():.1f} ms"
            f" memory={system.memory_of(app.package):.1f} MB"
        )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(sys.argv[1:]))
