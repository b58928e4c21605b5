"""Two-tier content-addressed result cache.

Tier 1 is a plain in-process dict holding the decoded result objects, so
a second experiment in the same process that shares runs with a first
(Fig. 7 and Fig. 8 share all 54 of theirs) never re-simulates or even
re-reads disk.  Tier 2 is a JSON file per result under
``.repro-cache/v<schema>/<kk>/<key>.json``, so a *later* process skips
completed simulations too.  Both tiers are the shared
:class:`~repro.engine.store.KeyedStore`; this module adds the JSON
codec.

Keys are the content fingerprints of :mod:`repro.engine.fingerprint`;
the schema version is folded into both the key and the directory name,
so bumping :data:`~repro.engine.fingerprint.CACHE_SCHEMA_VERSION`
invalidates every old entry without touching the files.

Unreadable or corrupt disk entries are treated as misses — a cache must
never be able to fail a run it could instead repopulate.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.engine.codec import decode_result, encode_result
from repro.engine.fingerprint import CACHE_SCHEMA_VERSION
from repro.engine.store import KeyedStore

DEFAULT_CACHE_ROOT = ".repro-cache"


class ResultCache(KeyedStore):
    """Memory + disk cache of scenario results, keyed by content hash."""

    suffix = ".json"

    def __init__(self, root: "Path | str | None" = Path(DEFAULT_CACHE_ROOT),
                 schema_version: int = CACHE_SCHEMA_VERSION):
        super().__init__(root, f"v{schema_version}")
        self.schema_version = schema_version

    # ``get``/``put`` are spelled out here rather than inherited so that
    # per-layer host tracing can wrap the result cache on its own,
    # without also counting snapshot-store lookups.
    def get(self, key: str) -> tuple[bool, Any]:
        """Look ``key`` up; returns ``(hit, result)``."""
        return super().get(key)

    def put(self, key: str, result: Any) -> None:
        """Store a freshly computed result in both tiers."""
        super().put(key, result)

    # ------------------------------------------------------------------
    def _encode(self, key: str, result: Any) -> str:
        return json.dumps(
            {"key": key, "schema": self.schema_version,
             "result": encode_result(result)},
            sort_keys=True,
        )

    def _decode(self, key: str, data: bytes) -> Any:
        payload = json.loads(data)
        if payload.get("key") != key:
            raise KeyError(key)
        return decode_result(payload["result"])
