"""Multi-tenant job queue: state machines and shard-granular fairness.

The daemon schedules **units** (one fleet shard, one template capture,
one oracle session, one experiment request), not whole jobs — that is
what makes the queue fair at useful granularity: a 10-shard job
submitted after a 1000-shard job starts doing work on the very next
free worker instead of waiting out the big job.

:class:`FairScheduler` round-robins across *clients*: each turn of the
ring yields one ready unit from the turn's client, taken from that
client's earliest-submitted job that has a unit ready (FIFO within a
client).  Unit completion order never affects results — every job kind
folds integer-exact accumulators or collects independent outputs — so
fairness is free: it shapes latency, never bytes.

This module is deliberately asyncio-free (plain deques and callbacks)
so the fairness and lifecycle logic is testable synchronously; the
server wires it to the event loop and the worker pool.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable

from repro.errors import ServeError
from repro.serve.protocol import TERMINAL_EVENTS

#: Lifecycle: ``queued`` -> ``running`` -> one of the terminal states.
JOB_STATES = ("queued", "running", "done", "cancelled", "error")


class Job:
    """One submitted job: its unit queue, event history, and state.

    The job owns *mechanism* only — which units are ready, what has
    been emitted — while the server owns *policy* (what the units are,
    how outcomes fold).  ``events`` is the full ordered history; a
    subscriber attached mid-run replays history first and then receives
    live events, so late ``GET /events`` readers see the identical
    stream a from-the-start reader saw.
    """

    _ids = itertools.count(1)

    def __init__(self, kind: str, params: dict, client: str = "anon"):
        self.job_id = f"job-{next(Job._ids)}"
        self.kind = kind
        self.params = params
        self.client = client
        self.state = "queued"
        self.units: deque = deque()
        self.in_flight = 0
        self.no_more_units = False
        """Set by the driver once every unit of the job has been
        queued; with an empty queue and nothing in flight this is what
        lets the server finalize."""
        self.events: list[dict] = []
        self.subscribers: list[Callable[[dict], None]] = []
        self.fleet: Any = None
        """The server's shard-coordinator state (fleet jobs only)."""

    # ------------------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_EVENTS

    @property
    def drained(self) -> bool:
        """No ready units, none in flight, none coming."""
        return (self.no_more_units and not self.units
                and self.in_flight == 0)

    def add_unit(self, fn: Callable, payload: Any, tag: str = "") -> None:
        if self.terminal:
            return  # a cancelled job accepts no new work
        self.units.append((fn, payload, tag))

    def next_unit(self):
        """Pop the next ready unit (``None`` when none are ready)."""
        if self.terminal or not self.units:
            return None
        self.in_flight += 1
        return self.units.popleft()

    def unit_done(self) -> None:
        if self.in_flight <= 0:
            raise ServeError(
                f"{self.job_id}: unit_done without a unit in flight"
            )
        self.in_flight -= 1

    # ------------------------------------------------------------------
    def emit(self, event: str, **fields: Any) -> dict:
        """Append one event to history and fan it out to subscribers."""
        record = {
            "event": event,
            "job": self.job_id,
            "seq": len(self.events),
            **fields,
        }
        self.events.append(record)
        for deliver in list(self.subscribers):
            deliver(record)
        return record

    def subscribe(self, deliver: Callable[[dict], None]) -> list[dict]:
        """Attach a live listener; returns history to replay first."""
        history = list(self.events)
        if not self.terminal:
            self.subscribers.append(deliver)
        return history

    def unsubscribe(self, deliver: Callable[[dict], None]) -> None:
        if deliver in self.subscribers:
            self.subscribers.remove(deliver)

    # ------------------------------------------------------------------
    def cancel(self) -> bool:
        """Drop all pending units and mark cancelled.

        In-flight units keep running (a process-pool task cannot be
        recalled) but their results are discarded by the server; the
        job's accumulators never see them.  Returns ``False`` when the
        job already reached a terminal state.
        """
        if self.terminal:
            return False
        self.units.clear()
        self.no_more_units = True
        self.state = "cancelled"
        return True

    def finish(self, state: str) -> None:
        if state not in TERMINAL_EVENTS:
            raise ServeError(f"not a terminal job state: {state!r}")
        if not self.terminal:
            self.state = state
        self.subscribers.clear()


class FairScheduler:
    """Round-robin across clients, one unit per turn, FIFO within.

    ``next_unit`` walks the client ring starting after the last-served
    client; the first client with a ready unit yields exactly one, and
    the ring position advances past it — so N active clients each get
    ~1/N of the worker slots regardless of how many units their jobs
    queued.  Within one client, units come from the earliest-submitted
    job that has a unit ready (submission FIFO; a job momentarily out
    of ready units — e.g. waiting on its template captures — does not
    block its client's later jobs).
    """

    def __init__(self) -> None:
        self._jobs: dict[str, list[Job]] = {}
        self._ring: deque[str] = deque()

    # ------------------------------------------------------------------
    def add(self, job: Job) -> None:
        if job.client not in self._jobs:
            self._jobs[job.client] = []
            self._ring.append(job.client)
        self._jobs[job.client].append(job)

    def discard(self, job: Job) -> None:
        jobs = self._jobs.get(job.client, [])
        if job in jobs:
            jobs.remove(job)
        if not jobs and job.client in self._jobs:
            del self._jobs[job.client]
            self._ring.remove(job.client)

    def __len__(self) -> int:
        return sum(len(jobs) for jobs in self._jobs.values())

    def jobs(self) -> list[Job]:
        return [job for jobs in self._jobs.values() for job in jobs]

    # ------------------------------------------------------------------
    def next_unit(self):
        """``(job, unit)`` from the fairest source, else ``None``."""
        for _ in range(len(self._ring)):
            client = self._ring[0]
            self._ring.rotate(-1)
            for job in self._jobs.get(client, []):
                unit = job.next_unit()
                if unit is not None:
                    return job, unit
        return None

    def has_ready_units(self) -> bool:
        return any(job.units and not job.terminal
                   for jobs in self._jobs.values() for job in jobs)
