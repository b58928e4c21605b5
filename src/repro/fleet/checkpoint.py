"""Periodic checkpoint/resume of a fleet run's accumulator state.

A fleet coordinator folds shard outcomes into integer-only accumulators
(:mod:`repro.fleet.aggregate`) whose merges are order-independent.
That makes the whole run resumable from almost nothing: a checkpoint is
just **the accumulators so far plus the set of completed shard ids** —
a few KB of JSON for a million-device fleet, no per-device state, no
in-flight shard state (a shard is either folded and in the completed
set, or it re-runs from scratch on resume; exactly-once folding by
construction).

Resume is *byte-identical* to an uninterrupted run: the accumulators
are integer-exact under any merge grouping (pinned by
``tests/fleet/``), so folding shards 0..k before a crash and k+1..n
after lands on the same bits as folding 0..n in one process.

File discipline mirrors the result cache: checkpoints are written
through the same :func:`~repro.engine.store.atomic_write` (plus an
``fsync``) so a kill mid-write leaves the previous checkpoint intact,
and an *unreadable* checkpoint is treated as absent — the run restarts
from shard 0, slower but correct.  A
checkpoint that is readable but belongs to a **different fleet spec**
is an error, not a miss: silently folding another spec's accumulators
would corrupt results, so :func:`load_checkpoint` refuses with
:class:`~repro.errors.FleetError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.engine.store import atomic_write
from repro.errors import FleetError
from repro.fleet.aggregate import CohortAccumulator, OracleAccumulator

#: Bump when the checkpoint layout changes incompatibly; old files
#: become misses (restart from scratch), never errors.
CHECKPOINT_SCHEMA_VERSION = 1

#: Default fold count between checkpoint writes.
DEFAULT_CHECKPOINT_EVERY = 64


@dataclass
class FleetCheckpoint:
    """Everything needed to resume a fleet run byte-identically."""

    spec_fingerprint: str
    total_shards: int
    completed: tuple[int, ...]
    devices: int
    cohorts: list[CohortAccumulator]
    oracle: OracleAccumulator | None

    # ------------------------------------------------------------------
    def encode(self) -> dict:
        return {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "spec_fingerprint": self.spec_fingerprint,
            "total_shards": self.total_shards,
            "completed": sorted(self.completed),
            "devices": self.devices,
            "cohorts": [acc.encode() for acc in self.cohorts],
            "oracle": self.oracle.encode() if self.oracle else None,
        }

    @classmethod
    def decode(cls, data: dict) -> "FleetCheckpoint":
        if data["schema"] != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(f"checkpoint schema {data['schema']}")
        return cls(
            spec_fingerprint=data["spec_fingerprint"],
            total_shards=data["total_shards"],
            completed=tuple(data["completed"]),
            devices=data["devices"],
            cohorts=[CohortAccumulator.decode(row)
                     for row in data["cohorts"]],
            oracle=(OracleAccumulator.decode(data["oracle"])
                    if data["oracle"] is not None else None),
        )


def save_checkpoint(path: str, checkpoint: FleetCheckpoint) -> None:
    """Atomic, durable publish: a kill mid-write never clobbers the
    last one."""
    payload = json.dumps(checkpoint.encode(), sort_keys=True,
                         separators=(",", ":"))
    atomic_write(path, payload, fsync=True)


def load_checkpoint(
    path: str, spec_fingerprint: str, total_shards: int
) -> FleetCheckpoint | None:
    """The resumable state at ``path``, or ``None`` to start fresh.

    Missing or unreadable files are misses (restart, stay correct); a
    well-formed checkpoint for a *different* spec raises — resuming it
    would silently poison the report.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        checkpoint = FleetCheckpoint.decode(data)
    except (OSError, ValueError, KeyError, TypeError):
        return None  # missing or corrupt = miss: rerun, byte-identically
    if (checkpoint.spec_fingerprint != spec_fingerprint
            or checkpoint.total_shards != total_shards):
        raise FleetError(
            f"checkpoint {path!r} belongs to a different fleet spec; "
            "refusing to resume from it (delete it to start over)"
        )
    return checkpoint
