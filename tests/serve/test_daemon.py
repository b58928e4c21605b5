"""End-to-end daemon tests: determinism, streaming, cancellation.

The tentpole promise of fleet-as-a-service is that the daemon is a
*warm place to run the same computation* — so the one test that
matters most runs the same fleet four ways (plain CLI subprocess,
``--daemon`` client subprocess, daemon first request, daemon warm
request) and requires all four reports byte-identical.  Cancellation
must leave nothing behind: no orphan ``/dev/shm`` segments, no
checkpoint files, and the next request unaffected.
"""

from __future__ import annotations

import asyncio
import glob
import json
import os
import subprocess
import sys
import time

import pytest

from repro.fleet.arena import arena_available
from repro.fleet.run import run_fleet
from repro.serve.client import DaemonClient, daemon_available
from repro.serve.protocol import fleet_spec_from_params

DEVICES = 6
SEED = 0x5EED
PARAMS = {"devices": DEVICES, "seed": SEED}

pytestmark = pytest.mark.skipif(
    not arena_available(), reason="no shared memory on this host"
)


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _start_daemon(tmp_path, name="daemon"):
    ready = str(tmp_path / f"{name}-ready.json")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "1", "--ready-file", ready,
         "--root", str(tmp_path / f"{name}-root")],
        env=_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + 60.0
    while not os.path.exists(ready):
        assert proc.poll() is None, proc.stdout.read()
        assert time.monotonic() < deadline, "daemon never became ready"
        time.sleep(0.05)
    with open(ready, encoding="utf-8") as handle:
        url = json.load(handle)["url"]
    return proc, url


def _stop_daemon(proc, url):
    try:
        if proc.poll() is None:
            DaemonClient(url).shutdown()
            proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()


def _shm_entries() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*"))


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("serve")
    proc, url = _start_daemon(tmp_path)
    yield url
    _stop_daemon(proc, url)


@pytest.fixture(scope="module")
def reference_report() -> str:
    """The canonical report bytes for PARAMS, computed in-process."""
    return run_fleet(fleet_spec_from_params(PARAMS), jobs=1).to_json()


class TestDeterminism:
    def test_first_and_warm_requests_match_in_process_bytes(
            self, daemon, reference_report):
        client = DaemonClient(daemon, client="tests")
        first = client.run("fleet", PARAMS)
        warm = client.run("fleet", PARAMS)
        assert first["event"] == "done" and first["exit"] == 0
        assert first["report_json"] == reference_report
        assert warm["report_json"] == reference_report

    def test_warm_request_hits_the_resident_arena(self, daemon):
        client = DaemonClient(daemon, client="tests")
        before = client.status()["resident"]["template_warm_hits"]
        client.run("fleet", PARAMS)
        after = client.status()["resident"]["template_warm_hits"]
        assert after > before

    @pytest.mark.parametrize("args, local", [
        (["fleet", "--devices", str(DEVICES), "--seed", str(SEED)],
         ["--jobs", "1"]),
        (["oracle", "fleet.notepad", "--seed", str(SEED)], []),
        (["hunt", "--apps", "4"], ["--jobs", "1"]),
    ], ids=["fleet", "oracle", "hunt"])
    def test_cli_and_daemon_client_agree_byte_for_byte(
            self, daemon, tmp_path, reference_report, args, local):
        plain_out = tmp_path / "plain.json"
        via_daemon_out = tmp_path / "daemon.json"
        base = [sys.executable, "-m", "repro", *args]
        plain = subprocess.run(
            [*base, *local, "-o", str(plain_out)], cwd=tmp_path,
            env=_env(), capture_output=True, text=True, timeout=600,
        )
        via = subprocess.run(
            [*base, "--daemon", daemon, "-o", str(via_daemon_out)],
            cwd=tmp_path,
            env=_env(), capture_output=True, text=True, timeout=600,
        )
        assert plain.returncode == 0, plain.stderr
        assert via.returncode == plain.returncode, via.stderr
        assert plain_out.read_bytes() == via_daemon_out.read_bytes()
        if args[0] == "fleet":
            assert plain_out.read_text().rstrip("\n") == reference_report
        # The rendered report table is identical too: same bytes in,
        # same formatter over them.  Only the trailing "wrote <path>"
        # line may differ (the two runs write different files).
        def table(stdout: str) -> list[str]:
            return [line for line in stdout.splitlines()
                    if not line.startswith("wrote ")]

        assert table(plain.stdout) == table(via.stdout)

    def test_concurrent_clients_both_get_canonical_bytes(
            self, daemon, reference_report):
        alice = DaemonClient(daemon, client="alice")
        bob = DaemonClient(daemon, client="bob")
        job_a = alice.submit("fleet", PARAMS)
        job_b = bob.submit("fleet", PARAMS)
        final_a = list(alice.events(job_a))[-1]
        final_b = list(bob.events(job_b))[-1]
        assert final_a["report_json"] == reference_report
        assert final_b["report_json"] == reference_report


class TestStreaming:
    def test_partials_are_monotone_prefixes_of_the_final_report(
            self, daemon, reference_report):
        client = DaemonClient(daemon, client="stream")
        events = []
        final = client.run("fleet", PARAMS, on_event=events.append)
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events[0]["event"] == "accepted"
        assert events[1]["event"] == "started"
        partials = [e for e in events if e["event"] == "partial"]
        assert partials, "no partial reports streamed"
        covered = [e["covered_shards"] for e in partials]
        assert covered == sorted(covered)  # monotone refinement
        assert covered[-1] < final["covered_shards"]
        total = json.loads(reference_report)["fleet"]
        for partial in partials:
            fleet = json.loads(partial["report_json"])["fleet"]
            assert fleet["devices"] <= total["devices"]
            assert fleet["covered_shards"] == partial["covered_shards"]
            assert fleet["shards"] == total["shards"]
        assert final["report_json"] == reference_report

    def test_late_subscriber_replays_the_identical_stream(self, daemon):
        client = DaemonClient(daemon, client="stream")
        job_id = client.submit("fleet", PARAMS)
        live = list(client.events(job_id))
        replay = list(client.events(job_id))  # job finished: history only
        assert replay == live


class TestOracle:
    def test_oracle_job_matches_the_cli_subprocess(self, daemon, tmp_path):
        out = tmp_path / "oracle.json"
        cli = subprocess.run(
            [sys.executable, "-m", "repro", "oracle", "fleet.notepad",
             "--seed", str(SEED), "-o", str(out)],
            env=_env(), capture_output=True, text=True, timeout=600,
        )
        assert cli.returncode == 0, cli.stderr
        final = DaemonClient(daemon, client="tests").run(
            "oracle", {"app": "fleet.notepad", "seed": SEED}
        )
        assert final["event"] == "done"
        assert final["report_json"] == out.read_text().rstrip("\n")
        assert final["text"] in cli.stdout

    def test_unknown_app_is_rejected_at_submit_with_known_names(
            self, daemon):
        from repro.errors import ServeError

        client = DaemonClient(daemon, client="tests")
        with pytest.raises(ServeError, match="fleet.notepad"):
            client.submit("oracle", {"app": "com.example.absent"})


class TestFallback:
    def test_unreachable_daemon_falls_back_in_process(self, tmp_path):
        assert not daemon_available("http://127.0.0.1:9")
        out = tmp_path / "fallback.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fleet",
             "--devices", str(DEVICES), "--seed", str(SEED),
             "--daemon", "http://127.0.0.1:9", "-o", str(out)],
            env=_env(), capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert "running in-process" in proc.stderr
        assert out.read_text().rstrip("\n") == run_fleet(
            fleet_spec_from_params(PARAMS), jobs=1
        ).to_json()


@pytest.mark.parametrize("kind, params", [
    ("oracle", {"app": "fleet.notepad", "seed": "abc"}),
    ("oracle", {"app": "fleet.notepad", "member": 1.5}),
    ("oracle", {"app": "fleet.notepad", "policies": ["nope"]}),
    ("experiment", {"experiment": "fig14", "seed": "x"}),
])
def test_bad_params_are_rejected_at_submit(tmp_path, kind, params):
    """A request the CLI could not make never reaches a worker: it is
    a 400 at submit, not a failed unit or a report the CLI cannot
    produce."""
    from repro.errors import OracleError, ServeError
    from repro.serve.server import Daemon

    async def submit():
        daemon = Daemon(jobs=1, root=str(tmp_path))
        try:
            with pytest.raises((ServeError, OracleError)):
                daemon.submit(kind, params, "tests")
            assert daemon.jobs == {}
        finally:
            daemon.shutdown()

    asyncio.run(submit())


def test_cancellation_leaves_no_orphans(tmp_path, reference_report):
    """Cancel mid-run, then prove nothing leaked: no new ``/dev/shm``
    segments after shutdown, no checkpoint files in the daemon root,
    and the next request still byte-identical."""
    shm_before = _shm_entries()
    proc, url = _start_daemon(tmp_path, name="cancel")
    root = tmp_path / "cancel-root"
    try:
        client = DaemonClient(url, client="tests")
        client.run("fleet", PARAMS)  # warm the templates
        # Same seed -> same templates, but enough shards that the
        # cancel lands mid-run instead of racing a finished job.
        big_job = client.submit(
            "fleet", {"devices": DEVICES * 60, "seed": SEED}
        )
        assert client.cancel(big_job).get("cancelled") is True
        events = list(client.events(big_job))
        assert events[-1]["event"] == "cancelled"
        assert events[-1]["exit"] == 3
        after = client.run("fleet", PARAMS)
        assert after["report_json"] == reference_report
    finally:
        _stop_daemon(proc, url)
    assert proc.returncode == 0
    assert _shm_entries() == shm_before
    leftovers = [path for path in glob.glob(str(root / "**" / "*"),
                                            recursive=True)
                 if "checkpoint" in os.path.basename(path)
                 or path.endswith(".ckpt")]
    assert leftovers == []


def test_template_store_keeps_nothing_in_memory(tmp_path):
    """The resident arena is the daemon's template memory tier; the
    snapshot store behind it is disk-only, so a long-lived daemon does
    not keep every template it ever captured on its heap."""
    from repro.serve.server import Daemon

    async def run_jobs():
        daemon = Daemon(jobs=1, root=str(tmp_path))
        try:
            for seed in (1, 2, 3):
                job = daemon.submit("fleet", {"devices": 3, "seed": seed},
                                    "tests")
                while not job.terminal:
                    await asyncio.sleep(0.01)
                assert job.state == "done"
            assert daemon.store.stats.stores > 0  # captured and persisted
            assert len(daemon.store) == 0
        finally:
            daemon.shutdown()

    asyncio.run(run_jobs())
