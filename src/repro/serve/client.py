"""Thin stdlib client for the simulation daemon.

``repro fleet|oracle|hunt --daemon URL`` go through
:class:`DaemonClient`; the CLI falls back to in-process
execution when the daemon is unreachable (``daemon_available``), which
is safe precisely because both sides build their specs through
``serve/protocol.py`` — the daemon is a warm place to run the same
computation, never a different computation.

One ``http.client`` connection per request, ``Connection: close``
framing throughout; the event stream is read line-by-line off the
response until its terminal event, so partial reports arrive as the
shards fold, not when the job ends.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterator
from urllib.parse import urlparse

from repro.errors import ServeError
from repro.serve.protocol import TERMINAL_EVENTS, decode_event

DEFAULT_TIMEOUT = 30.0


class DaemonClient:
    """Talks the daemon's HTTP + JSON-lines protocol."""

    def __init__(self, url: str, *, timeout: float = DEFAULT_TIMEOUT,
                 client: str = "cli"):
        parsed = urlparse(url if "//" in url else f"http://{url}")
        if parsed.scheme not in ("", "http") or not parsed.hostname:
            raise ServeError(f"not a daemon URL: {url!r} "
                             "(want http://host:port)")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self.client = client

    # ------------------------------------------------------------------
    def _connect(self):
        import http.client

        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _request_json(self, method: str, path: str,
                      body: "dict | None" = None) -> dict:
        conn = self._connect()
        try:
            payload = (json.dumps(body).encode("utf-8")
                       if body is not None else None)
            try:
                conn.request(method, path, body=payload,
                             headers={"Content-Type": "application/json"}
                             if payload else {})
                response = conn.getresponse()
                data = response.read()
            except OSError as exc:
                raise ServeError(
                    f"daemon at {self.host}:{self.port} unreachable: {exc}"
                ) from exc
            try:
                decoded = json.loads(data.decode("utf-8"))
            except ValueError as exc:
                raise ServeError(
                    f"daemon sent a non-JSON response to {method} {path}: "
                    f"{data[:80]!r}"
                ) from exc
            if response.status != 200:
                raise ServeError(
                    decoded.get("error")
                    or f"{method} {path} failed with {response.status}"
                )
            return decoded
        finally:
            conn.close()

    # ------------------------------------------------------------------
    def available(self) -> bool:
        """Can the daemon answer ``GET /status`` right now?"""
        try:
            return "workers" in self.status()
        except ServeError:
            return False

    def status(self) -> dict:
        return self._request_json("GET", "/status")

    def submit(self, kind: str, params: "dict | None" = None) -> str:
        """Submit a job; returns its id (raises on rejection)."""
        response = self._request_json("POST", "/jobs", {
            "kind": kind,
            "params": params or {},
            "client": self.client,
        })
        return response["job"]

    def cancel(self, job_id: str) -> dict:
        return self._request_json("DELETE", f"/jobs/{job_id}")

    def shutdown(self) -> dict:
        return self._request_json("POST", "/shutdown")

    # ------------------------------------------------------------------
    def events(self, job_id: str) -> Iterator[dict]:
        """Yield the job's events (history first) through the terminal
        one; the stream ends there by protocol."""
        conn = self._connect()
        try:
            try:
                conn.request("GET", f"/jobs/{job_id}/events")
                response = conn.getresponse()
            except OSError as exc:
                raise ServeError(
                    f"daemon at {self.host}:{self.port} unreachable: {exc}"
                ) from exc
            if response.status != 200:
                raise ServeError(
                    f"event stream for {job_id} failed "
                    f"with {response.status}"
                )
            terminal = False
            while not terminal:
                line = response.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                event = decode_event(line)
                terminal = event.get("event") in TERMINAL_EVENTS
                yield event
            if not terminal:
                raise ServeError(
                    f"event stream for {job_id} ended without a "
                    "terminal event (daemon died mid-job?)"
                )
        finally:
            conn.close()

    def run(self, kind: str, params: "dict | None" = None,
            on_event: "Callable[[dict], Any] | None" = None) -> dict:
        """Submit and follow a job; returns its terminal event."""
        job_id = self.submit(kind, params)
        last: dict = {}
        for event in self.events(job_id):
            if on_event is not None:
                on_event(event)
            last = event
        return last


def daemon_available(url: str,
                     *, timeout: float = 3.0) -> bool:
    """Quick reachability probe for the CLI's fallback decision."""
    try:
        return DaemonClient(url, timeout=timeout).available()
    except ServeError:
        return False
