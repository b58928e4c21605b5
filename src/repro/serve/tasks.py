"""Unit bodies of the job kinds, picklable for the daemon's workers.

Every unit the daemon schedules is one call to a module-level function
here (the ``concurrent.futures`` pickling contract), and the CLI's
in-process path calls the very same functions serially — the job-kind
table in ``serve/protocol.py`` names each kind's body.  The bodies are
thin: fleet shards go through the fleet executor's own spec-carrying
entry point (:func:`repro.fleet.run._run_shard_task` — the same code a
CLI run executes, so outcomes fold byte-identically), oracle sessions
through ``repro.oracle``, hunts through ``repro.hunt``, and experiment
units through the engine's ``execute_request``.  Because the workers
outlive any one job, the per-process template store in ``fleet/run.py``
stays warm across requests — that store's 64-entry cap exists for
exactly this caller.

The report bodies return ``(report_json, clean, text)``: the canonical
report string ``-o`` writes, whether it is free of simulator bugs, and
the human text the CLI prints, rendered here so the thin client shows
the identical output.
"""

from __future__ import annotations

__all__ = [
    "run_shard_unit",
    "capture_template_unit",
    "run_fleet_unit",
    "run_oracle_unit",
    "run_experiment_unit",
    "run_hunt_unit",
]


def run_shard_unit(payload):
    """One fleet shard through the fleet executor's own spec-carrying
    pool entry; ``payload`` is ``(spec, shard, root, key, oracle_keys,
    arena_handle)``."""
    from repro.fleet.run import _run_shard_task

    return _run_shard_task(payload)


def capture_template_unit(payload):
    """Build one cohort template off the event loop.

    ``payload`` is ``(spec, cell_index)``; returns the captured
    :class:`~repro.sim.snapshot.SystemSnapshot` for the coordinator to
    publish (resident arena + disk store).  Template builds are the
    expensive part of a cold fleet request, so the daemon farms them to
    the pool instead of stalling its accept loop.
    """
    from repro.fleet.run import capture_template

    spec, cell_index = payload
    return capture_template(spec, cell_index)


def run_fleet_unit(spec, **local):
    """A whole fleet run in this process, reported canonically.

    The CLI's in-process body (the daemon shards fleets through its
    coordinator instead).  ``local`` carries :func:`run_fleet`'s
    execution options as the CLI parsed them; ``None`` means the
    default.
    """
    from repro.fleet import format_fleet_report, run_fleet

    result = run_fleet(spec, **{name: value for name, value in local.items()
                                if value is not None})
    clean = result.oracle is None or not result.oracle.simulator_bugs
    return result.to_json(), clean, format_fleet_report(result)


def run_oracle_unit(payload):
    """One cross-policy differential session, reported canonically.

    ``payload`` is ``(app, policies, seed, member)``.
    """
    from repro.oracle import (
        format_oracle_report,
        report_for,
        run_oracle_session,
    )

    app, policies, seed, member = payload
    session = run_oracle_session(app, policies, seed, member=member)
    report = report_for([session])
    return report.to_json(), report.clean, format_oracle_report(report)


def run_hunt_unit(settings, jobs=1, cache=True):
    """One full hunt over the generated corpus, reported canonically.

    ``settings`` is a :class:`~repro.hunt.search.HuntSettings`.  In a
    daemon worker the hunt runs its probe batches in-process
    (``jobs=1``): the daemon's scheduler owns the pool, and a worker
    spawning its own grandchild pool would fight it for cores.  The CLI
    passes its own ``jobs`` and ``cache``.
    """
    import dataclasses

    from repro.hunt import format_hunt_report, run_hunt

    report = run_hunt(dataclasses.replace(settings, jobs=jobs, cache=cache))
    return report.to_json(), report.clean, format_hunt_report(report)


def run_experiment_unit(payload):
    """One engine run request, executed in this worker process.

    ``payload`` is a single :class:`~repro.engine.batch.RunRequest`;
    the daemon consults its process-wide result cache before submitting
    and stores the result after, so repeated experiment jobs are served
    from cache without touching the pool.
    """
    from repro.engine.batch import execute_request

    return execute_request(payload)
