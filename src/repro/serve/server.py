"""The simulation daemon: ``python -m repro serve``.

One asyncio process owns everything the batch paths normally rebuild
per invocation — a :class:`~repro.engine.pool.PersistentPool` of
workers, a :class:`~repro.engine.cache.ResultCache`, and cohort
templates in two tiers: a refcounted
:class:`~repro.fleet.arena.ResidentArena` (the memory tier, shared with
the workers) over a disk-only :class:`~repro.engine.snapshots.SnapshotStore`
— and serves jobs over a minimal HTTP/1.1 + JSON-lines protocol:

* ``POST /jobs``                — submit ``{"kind", "params", "client"}``;
  responds with the job id.
* ``GET /jobs/<id>/events``     — stream the job's events, one JSON
  object per line; history replays first, so a late subscriber reads
  the identical stream.  Ends with a terminal event (``done`` /
  ``cancelled`` / ``error``), then EOF.
* ``GET /jobs/<id>``            — one-shot job snapshot.
* ``DELETE /jobs/<id>``         — cancel: pending units are dropped,
  in-flight results discarded, template references released.
* ``GET /status``               — daemon counters (resident arena,
  cache sizes, pool shape) for monitoring and the bench's warm gates.
* ``POST /shutdown``            — graceful stop: acknowledge, then
  drain the pool, destroy the arena, remove owned scratch state.

Scheduling is shard-granular and client-fair (``serve/queue.py``);
results are byte-identical to the CLI by construction, because the
spec builder, the shard executor, and the accumulators are the very
same functions the CLI runs (``serve/protocol.py``, ``serve/tasks.py``).

The HTTP layer is deliberately hand-rolled on ``asyncio.start_server``:
one request per connection, ``Connection: close`` everywhere, bodies
by ``Content-Length`` — small enough to audit, and free of any
dependency the container does not already have.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import tempfile
from typing import Any

from repro.cli import Option, parse_jobs, parse_options
from repro.engine.batch import _resolve_jobs
from repro.engine.cache import ResultCache
from repro.engine.pool import PersistentPool
from repro.engine.snapshots import SnapshotStore
from repro.engine.store import atomic_write
from repro.errors import ServeError, SimulationError
from repro.fleet.arena import DEFAULT_RESIDENT_BUDGET, ResidentArena
from repro.serve import tasks
from repro.serve.protocol import (
    BAD_REQUEST,
    KINDS,
    PROTOCOL_VERSION,
    check_job_params,
    encode_event,
)
from repro.serve.queue import FairScheduler, Job

#: Emit a ``partial`` event every this many shard folds (and always on
#: the last one).  Streams stay light for huge fleets without going
#: silent on small ones.
DEFAULT_STREAM_EVERY = 4


class _FleetState:
    """Coordinator-side accumulation of one fleet job."""

    def __init__(self, spec, shards, oracle_cells, keys):
        from repro.fleet.aggregate import CohortAccumulator

        self.spec = spec
        self.shards = shards
        self.oracle_cells = oracle_cells
        self.keys = keys  # cell_index -> template key (all needed cells)
        self.cohorts = [CohortAccumulator(app.package, policy)
                        for app, policy in spec.cells()]
        self.oracle = None
        self.completed: set[int] = set()
        self.devices = 0
        self.captures_pending: set[int] = set()
        self.handle = None
        self.acquired: tuple[str, ...] = ()
        self.folds_since_partial = 0

    def partial_result(self):
        from repro.fleet.run import FleetResult

        return FleetResult(
            seed=self.spec.seed,
            shard_size=self.spec.shard_size,
            total_shards=len(self.shards),
            shard_ids=tuple(sorted(self.completed)),
            devices=self.devices,
            cohorts=self.cohorts,
            oracle_rate=self.spec.oracle_rate,
            oracle=self.oracle,
        )


class Daemon:
    """All daemon state plus the two ways a job runs: the unit path
    every table kind shares, and the fleet's shard coordinator."""

    def __init__(
        self,
        *,
        jobs: "int | str" = "auto",
        root: str | None = None,
        stream_every: int = DEFAULT_STREAM_EVERY,
        template_budget: int = DEFAULT_RESIDENT_BUDGET,
    ):
        self.workers = _resolve_jobs(jobs, os.cpu_count() or 1)
        self._owns_root = root is None
        self.root = root or tempfile.mkdtemp(prefix="repro-serve-")
        os.makedirs(self.root, exist_ok=True)
        self.template_root = os.path.join(self.root, "templates")
        # Disk only: the resident arena is the templates' memory tier.
        self.store = SnapshotStore(root=self.template_root, capacity=0)
        self.cache = ResultCache(root=os.path.join(self.root, "results"))
        self.resident = ResidentArena(template_budget)
        self.pool = PersistentPool(self.workers)
        self.scheduler = FairScheduler()
        self.jobs: dict[str, Job] = {}
        self.stream_every = max(1, stream_every)
        self.counters = {
            "jobs_submitted": 0,
            "jobs_done": 0,
            "jobs_cancelled": 0,
            "jobs_failed": 0,
            "units_run": 0,
        }
        self._inflight = 0
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------------
    # job submission (runs on the event loop; must not simulate)
    # ------------------------------------------------------------------
    def submit(self, kind: str, params: dict, client: str) -> Job:
        """Validate, register, and stage a job; raises on bad requests."""
        params = check_job_params(kind, params)
        job = Job(kind, params, client)
        # "accepted" is emitted before the build so it is always event 0
        # of the stream; a build failure raises before the job is
        # registered, so the orphaned event is never observable.
        job.emit("accepted", kind=kind, client=client)
        # Settings are built here, on submit, so a semantically bad
        # request (unknown app or policy, apps < 1) is a 400 for every
        # kind — not a failed unit.
        settings = KINDS[kind].build(params)
        if KINDS[kind].sharded:
            self._prepare_fleet(job, settings)
        else:
            self._stage_units(job, settings)
        self.jobs[job.job_id] = job
        self.counters["jobs_submitted"] += 1
        job.state = "running"
        self.scheduler.add(job)
        self._pump()
        # A job whose units were all served from caches is already done.
        self._maybe_finalize(job)
        return job

    # --- unit kinds: units, then outputs by position, then finish ------
    def _stage_units(self, job: Job, settings) -> None:
        kind = KINDS[job.kind]
        payloads = kind.units(settings)
        job.settings = settings
        job.outputs = [None] * len(payloads)
        job.cache_keys = ([payload.cache_key() for payload in payloads]
                          if kind.cached else None)
        job.cache_hits = 0
        for position, payload in enumerate(payloads):
            if job.cache_keys is not None:
                hit, value = self.cache.get(job.cache_keys[position])
                if hit:
                    job.outputs[position] = value
                    job.cache_hits += 1
                    continue
            job.add_unit(kind.unit, payload,
                         tag=f"{job.kind}:{position}")
        job.no_more_units = True

    def _unit_output(self, job: Job, tag: str, result: Any) -> None:
        position = int(tag.rsplit(":", 1)[1])
        job.outputs[position] = result
        if job.cache_keys is not None:
            self.cache.put(job.cache_keys[position], result)

    def _finish_units(self, job: Job) -> None:
        kind = KINDS[job.kind]
        fields = kind.finish(job.settings, job.outputs)
        if kind.cached:
            fields["cache_hits"] = job.cache_hits
        job.emit("done", **fields)

    # --- fleet: the shard coordinator ----------------------------------
    def _prepare_fleet(self, job: Job, spec) -> None:
        from repro.fleet.run import plan_shards, template_key, template_plan

        shards = plan_shards(spec)
        oracle_cells, all_cells = template_plan(spec, shards)
        keys = {cell: template_key(spec, cell) for cell in all_cells}
        state = _FleetState(spec, shards, oracle_cells, keys)
        job.fleet = state

        # Provision templates: resident arena (warm) -> disk store ->
        # capture in the pool.  Shard units wait until every template
        # is resident, so a cold cell is built exactly once instead of
        # once per worker.
        for cell_index, key in keys.items():
            if self.resident.warm(key):
                continue
            hit, snap = self.store.get(key)
            if hit:
                # Disk-warm: publish best-effort; with no usable shared
                # memory the workers read the store directly instead.
                self.resident.publish(key, snap)
                continue
            state.captures_pending.add(cell_index)
            job.add_unit(tasks.capture_template_unit, (spec, cell_index),
                         tag=f"capture:{cell_index}")
        job.emit("started", kind="fleet", shards=len(shards),
                 devices=spec.total_devices,
                 cold_templates=len(state.captures_pending))
        if not state.captures_pending:
            self._stage_fleet_shards(job)

    def _stage_fleet_shards(self, job: Job) -> None:
        """All templates resident: take references, queue shard units."""
        from repro.fleet.run import shard_task, steal_order

        state = job.fleet
        wanted = [key for key in state.keys.values()
                  if key in self.resident]
        state.handle = self.resident.acquire(wanted)
        state.acquired = tuple(wanted)
        for shard in steal_order(state.shards):
            _, key, oracle_keys = shard_task(shard, state.keys,
                                             state.oracle_cells)
            job.add_unit(
                tasks.run_shard_unit,
                (state.spec, shard, self.template_root, key, oracle_keys,
                 state.handle),
                tag=f"shard:{shard.shard_id}",
            )
        job.no_more_units = True

    def _fleet_result(self, job: Job, tag: str, result: Any) -> None:
        state = job.fleet
        if tag.startswith("capture:"):
            cell_index = int(tag.split(":", 1)[1])
            key = state.keys[cell_index]
            self.store.put(key, result)
            self.resident.publish(key, result)
            state.captures_pending.discard(cell_index)
            if not state.captures_pending:
                self._stage_fleet_shards(job)
            return
        shard_id = int(tag.split(":", 1)[1])
        shard = state.shards[shard_id]
        state.cohorts[shard.cell_index].merge(result.cohort)
        if result.oracle is not None:
            if state.oracle is None:
                from repro.fleet.aggregate import OracleAccumulator

                state.oracle = OracleAccumulator()
            state.oracle.merge(result.oracle)
        state.completed.add(shard_id)
        state.devices += shard.devices
        state.folds_since_partial += 1
        done = len(state.completed) == len(state.shards)
        if state.folds_since_partial >= self.stream_every and not done:
            state.folds_since_partial = 0
            partial = state.partial_result()
            job.emit("partial", covered_shards=len(state.completed),
                     devices=state.devices,
                     report_json=partial.to_json())

    def _finalize_fleet(self, job: Job) -> None:
        from repro.fleet.aggregate import OracleAccumulator

        state = job.fleet
        self._release_fleet(job)
        if state.spec.oracle_rate > 0.0 and state.oracle is None:
            state.oracle = OracleAccumulator()
        result = state.partial_result()
        exit_code = 1 if (result.oracle is not None
                          and result.oracle.simulator_bugs) else 0
        job.emit("done", covered_shards=len(state.completed),
                 devices=state.devices, report_json=result.to_json(),
                 exit=exit_code)

    def _release_fleet(self, job: Job) -> None:
        state = job.fleet
        if state is not None and state.acquired:
            self.resident.release(state.acquired)
            state.acquired = ()

    # ------------------------------------------------------------------
    # the unit pump
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Fill free pool slots from the fair scheduler."""
        while (self._inflight < self.workers
               and not self._stopping.is_set()):
            picked = self.scheduler.next_unit()
            if picked is None:
                return
            job, unit = picked
            self._inflight += 1
            asyncio.ensure_future(self._run_unit(job, unit))

    async def _run_unit(self, job: Job, unit) -> None:
        fn, payload, tag = unit
        error: str | None = None
        result = None
        try:
            result = await asyncio.wrap_future(
                self.pool.submit(fn, payload)
            )
        except SimulationError as exc:
            error = str(exc)
        except Exception as exc:  # worker died, pickling, ...
            error = f"{type(exc).__name__}: {exc}"
        finally:
            self._inflight -= 1
            self.counters["units_run"] += 1
            job.unit_done()
        if job.terminal:
            # Cancelled while this unit ran: discard the result; the
            # job's accumulators stay exactly as the cancel event left
            # them.
            self._maybe_retire(job)
        elif error is not None:
            self._fail(job, f"unit {tag}: {error}")
        else:
            handler = (self._fleet_result if job.fleet is not None
                       else self._unit_output)
            try:
                handler(job, tag, result)
            except SimulationError as exc:
                self._fail(job, str(exc))
            else:
                self._maybe_finalize(job)
        self._pump()

    def _maybe_finalize(self, job: Job) -> None:
        if job.terminal or not job.drained:
            return
        if job.fleet is not None:
            self._finalize_fleet(job)
        else:
            self._finish_units(job)
        job.finish("done")
        self.counters["jobs_done"] += 1
        self.scheduler.discard(job)

    def _fail(self, job: Job, message: str) -> None:
        job.units.clear()
        job.no_more_units = True
        self._release_fleet(job)
        job.emit("error", message=message, exit=2)
        job.finish("error")
        self.counters["jobs_failed"] += 1
        self.scheduler.discard(job)

    def cancel(self, job: Job) -> bool:
        """Drop the job's pending work and release its templates."""
        if not job.cancel():
            return False
        self._release_fleet(job)
        job.emit("cancelled", exit=3)
        job.finish("cancelled")
        self.counters["jobs_cancelled"] += 1
        self._maybe_retire(job)
        self._pump()
        return True

    def _maybe_retire(self, job: Job) -> None:
        if job.terminal and job.in_flight == 0:
            self.scheduler.discard(job)

    # ------------------------------------------------------------------
    def status(self) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "workers": self.workers,
            "pool": {
                "alive": self.pool.alive,
                "using_threads": self.pool.using_threads,
                "respawns": self.pool.respawns,
            },
            "inflight_units": self._inflight,
            "jobs": {job_id: job.state
                     for job_id, job in self.jobs.items()},
            "resident": self.resident.stats(),
            "result_cache_entries": len(self.cache),
            "counters": dict(self.counters),
        }

    def shutdown(self) -> None:
        """Synchronous teardown: pool, arena, owned scratch state.

        After this returns nothing of the daemon is left on the host —
        no worker processes, no ``/dev/shm`` segments, and (when the
        root was daemon-owned) no scratch directory.
        """
        self._stopping.set()
        for job in list(self.scheduler.jobs()):
            self.cancel(job)
        self.pool.shutdown()
        self.resident.destroy()
        if self._owns_root:
            shutil.rmtree(self.root, ignore_errors=True)


# ----------------------------------------------------------------------
# the HTTP layer
# ----------------------------------------------------------------------
class _Server:
    def __init__(self, daemon: Daemon):
        self.daemon = daemon
        self._closing = asyncio.Event()

    # -- response helpers ----------------------------------------------
    @staticmethod
    def _head(status: int, content_type: str,
              length: "int | None") -> bytes:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed"}.get(status, "OK")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            "Connection: close",
        ]
        if length is not None:
            lines.append(f"Content-Length: {length}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")

    def _json(self, writer, status: int, payload: dict) -> None:
        body = (json.dumps(payload, sort_keys=True,
                           separators=(",", ":")) + "\n").encode("utf-8")
        writer.write(self._head(status, "application/json", len(body)))
        writer.write(body)

    # -- request handling ----------------------------------------------
    async def handle(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("ascii", "replace").split()
            if len(parts) < 2:
                return
            method, target = parts[0], parts[1]
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("ascii", "replace") \
                                     .partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or 0)
            body = await reader.readexactly(length) if length else b""
            await self._route(method, target, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # never kill the accept loop
            try:
                self._json(writer, 400, {"error": f"{exc}"})
            except Exception:
                pass
        finally:
            try:
                await writer.drain()
                writer.close()
            except Exception:
                pass

    async def _route(self, method: str, target: str, body: bytes,
                     writer) -> None:
        daemon = self.daemon
        if method == "GET" and target == "/status":
            return self._json(writer, 200, daemon.status())
        if method == "POST" and target == "/shutdown":
            self._json(writer, 200, {"ok": True})
            self._closing.set()
            return
        if method == "POST" and target == "/jobs":
            try:
                request = json.loads(body.decode("utf-8") or "{}")
                if not isinstance(request, dict):
                    raise ServeError("request body must be a JSON object")
                job = daemon.submit(
                    request.get("kind", ""),
                    request.get("params") or {},
                    str(request.get("client") or "anon"),
                )
            except BAD_REQUEST as exc:
                return self._json(writer, 400, {"error": str(exc)})
            except ValueError as exc:
                return self._json(writer, 400,
                                  {"error": f"bad JSON body: {exc}"})
            return self._json(writer, 200,
                              {"job": job.job_id, "state": job.state})
        if target.startswith("/jobs/"):
            tail = target[len("/jobs/"):]
            job_id, _, sub = tail.partition("/")
            job = daemon.jobs.get(job_id)
            if job is None:
                return self._json(writer, 404,
                                  {"error": f"unknown job {job_id!r}"})
            if method == "GET" and sub == "events":
                return await self._stream(job, writer)
            if method == "GET" and not sub:
                return self._json(writer, 200, {
                    "job": job.job_id, "kind": job.kind,
                    "client": job.client, "state": job.state,
                    "events": len(job.events),
                })
            if method == "DELETE" and not sub:
                changed = daemon.cancel(job)
                return self._json(writer, 200, {
                    "job": job.job_id, "state": job.state,
                    "cancelled": changed,
                })
        self._json(writer, 405 if target.startswith("/jobs") else 404,
                   {"error": f"cannot {method} {target}"})

    async def _stream(self, job: Job, writer) -> None:
        """Replay history, then live events, until a terminal one."""
        writer.write(self._head(200, "application/x-ndjson", None))
        queue: asyncio.Queue = asyncio.Queue()
        history = job.subscribe(queue.put_nowait)
        try:
            terminal = False
            for event in history:
                writer.write(encode_event(event))
                terminal = terminal or event["event"] in (
                    "done", "cancelled", "error")
            await writer.drain()
            while not terminal:
                event = await queue.get()
                writer.write(encode_event(event))
                await writer.drain()
                terminal = event["event"] in ("done", "cancelled", "error")
        finally:
            job.unsubscribe(queue.put_nowait)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
_USAGE = (
    "usage: python -m repro serve [--port P] [--host H] [--jobs N|auto]\n"
    "                             [--root PATH] [--ready-file PATH]\n"
    "                             [--stream-every N]"
    " [--template-budget-mb N]\n"
    "       python -m repro serve --stop URL"
)


_OPTIONS = (
    Option(("--port",), "port", int, 0),
    Option(("--host",), "host", str, "127.0.0.1"),
    Option(("--jobs",), "jobs", parse_jobs, "auto"),
    Option(("--root",), "root", noun="path"),
    Option(("--ready-file",), "ready_file", noun="path"),
    Option(("--stream-every",), "stream_every", int, DEFAULT_STREAM_EVERY),
    Option(("--template-budget-mb",), "budget_mb", int,
           DEFAULT_RESIDENT_BUDGET >> 20),
    Option(("--stop",), "stop", noun="URL"),
    Option(("-h", "--help"), "help", None, False),
)


def main(argv: "list[str] | None" = None) -> int:
    opts = parse_options(list(argv or []), _OPTIONS, _USAGE)
    if isinstance(opts, int):
        return opts
    if opts["help"]:
        print(_USAGE)
        return 0
    stop_url = opts["stop"]
    if stop_url is not None:
        from repro.serve.client import DaemonClient

        try:
            DaemonClient(stop_url).shutdown()
        except ServeError as error:
            print(f"serve error: {error}")
            return 1
        print(f"asked {stop_url} to shut down")
        return 0

    return asyncio.run(_serve(opts["host"], opts["port"], opts["jobs"],
                              opts["root"], opts["ready_file"],
                              opts["stream_every"],
                              opts["budget_mb"] << 20))


async def _serve(host, port, jobs, root, ready_file, stream_every,
                 budget) -> int:
    daemon = Daemon(jobs=jobs, root=root, stream_every=stream_every,
                    template_budget=budget)
    front = _Server(daemon)
    try:
        server = await asyncio.start_server(front.handle, host, port)
    except OSError as error:
        print(f"cannot listen on {host}:{port}: "
              f"{error.strerror or error}")
        daemon.shutdown()
        return 1
    bound_port = server.sockets[0].getsockname()[1]
    url = f"http://{host}:{bound_port}"
    print(f"repro daemon serving on {url} "
          f"({daemon.workers} worker{'s' if daemon.workers != 1 else ''})",
          flush=True)
    if ready_file is not None:
        atomic_write(ready_file,
                     json.dumps({"url": url, "pid": os.getpid()}) + "\n")
    try:
        async with server:
            await front._closing.wait()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        server.close()
        await server.wait_closed()
        daemon.shutdown()
    print("repro daemon stopped", flush=True)
    return 0
