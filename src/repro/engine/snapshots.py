"""The third cache tier: prefix snapshots.

Where the result cache (:mod:`repro.engine.cache`) skips *finished* runs,
the snapshot store skips the *shared prefix* of unfinished ones: a
:class:`~repro.sim.snapshot.SystemSnapshot` keyed by the prefix
fingerprint of a request group (see ``RunRequest.prefix_key``).  Memory
tier for groups inside one process; optional disk tier under
``.repro-cache/snapshots/`` so a later process — or a sweep over *new*
divergent values whose results are uncached — still skips the prefix.
The fleet keeps its cohort templates in the same store
(``fleet/run.py``).

Disk entries embed the interpreter version in the directory name:
snapshot payloads contain ``marshal``-serialised code objects, which are
only readable by the exact Python that wrote them.  As with the result
cache, anything unreadable is a miss, never an error.
"""

from __future__ import annotations

import os
import sys

from repro.engine.store import KeyedStore
from repro.errors import SnapshotError
from repro.sim.snapshot import SNAPSHOT_FORMAT_VERSION, SystemSnapshot

_TAG = (f"v{SNAPSHOT_FORMAT_VERSION}"
        f"-py{sys.version_info[0]}{sys.version_info[1]}")


class SnapshotStore(KeyedStore):
    """Memory (+ optional disk) store of prefix snapshots.

    ``root=None`` keeps the store purely in-memory — the per-batch
    ephemeral form used when result caching is off.  ``capacity`` bounds
    the memory tier (``0``: disk only).
    """

    suffix = ".snap"
    # A system the snapshot pickler refuses (e.g. one holding a session
    # tracer) is still usable in memory.
    write_errors = (OSError, SnapshotError)

    def __init__(self, root: "str | os.PathLike | None" = None, *,
                 capacity: "int | None" = None):
        super().__init__(root, _TAG, capacity=capacity)

    def _encode(self, key: str, snap: SystemSnapshot) -> bytes:
        return snap.to_bytes()

    def _decode(self, key: str, data: bytes) -> SystemSnapshot:
        return SystemSnapshot.from_bytes(data)
