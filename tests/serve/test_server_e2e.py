"""Black-box conformance tests for ``repro-serve``.

The server runs in-process but on its own thread and event loop, bound
to a real ``127.0.0.1`` socket — every test below talks plain HTTP
through :mod:`http.client`, exactly like an external client would. The
load-bearing assertions are the ISSUE's acceptance criteria:

* the live SSE stream's ``data:`` payloads are the run's ``obs.jsonl``
  lines **byte for byte**;
* replay serves the identical event sequence without recomputing
  anything (artifact mtimes pinned);
* cancel → resume produces a ``result.json`` bit-identical to an
  uninterrupted run;
* a client disconnecting mid-stream does not disturb the job;
* concurrent submissions of the same scenario get distinct run ids and
  intact, non-interleaved logs;
* a fresh server over the same runs root recovers the finished jobs;
* a live stream ends as soon as its job does, however long the poll
  interval;
* a pool child killed mid-job fails that job only, and the job resumes
  to the same result as an uninterrupted run, also after a restart.
"""

import asyncio
import contextlib
import http.client
import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.serve.app import ReproServer
from repro.serve.jobs import CANCELLED, DONE, FAILED, QUEUED, RUNNING, TERMINAL

FAST_RUN_TIMEOUT = 120.0


# -- client helpers -----------------------------------------------------

def _request(port, method, path, body=None, timeout=30.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            method,
            path,
            body=json.dumps(body) if body is not None else None,
        )
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, json.loads(raw) if raw else None
    finally:
        conn.close()


class SseClient:
    """A raw SSE subscription over one http.client connection."""

    def __init__(self, port, path, timeout=FAST_RUN_TIMEOUT):
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=timeout
        )
        self.conn.request("GET", path)
        self.resp = self.conn.getresponse()
        assert self.resp.status == 200
        assert self.resp.getheader("Content-Type") == "text/event-stream"

    def events(self, stop_after=None):
        """Yield (event, data) pairs until the ``end`` event (or count)."""
        count = 0
        event, data = None, []
        for raw in self.resp:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith(":"):
                continue  # keepalive
            if line == "":
                if data:
                    payload = "\n".join(data)
                    yield event, payload
                    count += 1
                    if event == "end" or (
                        stop_after is not None and count >= stop_after
                    ):
                        return
                event, data = None, []
            elif line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("data: "):
                data.append(line[len("data: "):])

    def close(self):
        self.conn.close()


def _collect_stream(port, path):
    client = SseClient(port, path)
    try:
        return list(client.events())
    finally:
        client.close()


def _wait_for_state(port, job_id, states, timeout=FAST_RUN_TIMEOUT):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, job = _request(port, "GET", f"/jobs/{job_id}")
        if job["state"] in states:
            return job
        time.sleep(0.05)
    raise AssertionError(
        f"job {job_id} never reached {states}; last: {job}"
    )


def _submit(port, **payload):
    payload.setdefault("experiment_id", "fig8")
    status, job = _request(port, "POST", "/jobs", payload)
    assert status == 202, job
    return job["job_id"]


def _log_lines(server, job_id):
    return (server.run_dir(job_id) / "obs.jsonl").read_text("utf-8").splitlines()


# -- the server under test ---------------------------------------------

@contextlib.contextmanager
def _running_server(runs_root, **options):
    """A ReproServer on a background thread, real socket, port 0."""
    srv = ReproServer(runs_root, **options)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(srv.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, name="repro-serve-test", daemon=True)
    thread.start()
    assert started.wait(30), "server failed to start"
    try:
        yield srv
    finally:
        asyncio.run_coroutine_threadsafe(srv.stop(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    runs_root = tmp_path_factory.mktemp("serve-runs")
    with _running_server(runs_root, workers=2, poll_interval=0.02) as srv:
        yield srv


# -- routing basics -----------------------------------------------------

class TestRouting:
    def test_healthz(self, server):
        status, payload = _request(server.port, "GET", "/healthz")
        assert status == 200
        assert payload["ok"] is True

    def test_unknown_route_404(self, server):
        status, payload = _request(server.port, "GET", "/nope")
        assert status == 404

    def test_unknown_job_404(self, server):
        status, _ = _request(server.port, "GET", "/jobs/ghost")
        assert status == 404
        status, _ = _request(server.port, "POST", "/jobs/ghost/cancel")
        assert status == 404

    def test_submit_validates_experiment_id(self, server):
        status, payload = _request(
            server.port, "POST", "/jobs", {"experiment_id": "no-such"}
        )
        assert status == 400
        assert "no-such" in payload["error"]
        status, _ = _request(server.port, "POST", "/jobs", {})
        assert status == 400

    def test_replay_of_unfinished_job_is_409(self, server):
        # a queued/running job has no finished log to replay
        job_id = _submit(server.port, round_delay_s=0.3)
        try:
            status, _ = _request(
                server.port, "GET", f"/jobs/{job_id}/events?replay=1"
            )
            assert status == 409
        finally:
            # don't leak a slow job into the other tests' wall-clock
            _request(server.port, "POST", f"/jobs/{job_id}/cancel")
            _wait_for_state(server.port, job_id, TERMINAL)


# -- the conformance core ----------------------------------------------

class TestStreamConformance:
    def test_live_stream_is_the_log_byte_for_byte(self, server):
        job_id = _submit(server.port)
        stream = _collect_stream(server.port, f"/jobs/{job_id}/events")

        # terminates with an end event carrying the final state
        assert stream[-1][0] == "end"
        assert json.loads(stream[-1][1])["state"] == DONE

        # every data payload before it is exactly one log line, in order
        payloads = [data for event, data in stream[:-1]]
        assert payloads == _log_lines(server, job_id)

        # the SSE event names match each line's event field
        names = [event for event, _ in stream[:-1]]
        assert names == [json.loads(p)["event"] for p in payloads]
        assert "round" in names and names[0] == "run_meta"

        # the manifest agrees with what was streamed
        _, result = _request(server.port, "GET", f"/jobs/{job_id}/result")
        assert result["manifest"]["status"] == "complete"
        assert result["manifest"]["round_count"] == sum(
            1 for n in names if n == "round"
        )
        assert result["result"]["experiment_id"] == "fig8"

    def test_replay_is_identical_and_recomputes_nothing(self, server):
        job_id = _submit(server.port)
        live = _collect_stream(server.port, f"/jobs/{job_id}/events")

        run_dir = server.run_dir(job_id)
        mtimes_before = {
            p.name: p.stat().st_mtime_ns
            for p in (run_dir / "obs.jsonl", run_dir / "result.json",
                      run_dir / "manifest.json")
        }
        _, before = _request(server.port, "GET", f"/jobs/{job_id}/result")

        replay = _collect_stream(
            server.port, f"/jobs/{job_id}/events?replay=1"
        )
        assert replay == live  # event names, ids aside: same (event, data)

        # replay is a read: no artifact was rewritten, no round re-run
        mtimes_after = {
            p.name: p.stat().st_mtime_ns
            for p in (run_dir / "obs.jsonl", run_dir / "result.json",
                      run_dir / "manifest.json")
        }
        assert mtimes_after == mtimes_before
        _, after = _request(server.port, "GET", f"/jobs/{job_id}/result")
        assert after["manifest"]["round_count"] == before["manifest"]["round_count"]

    def test_paced_replay_same_sequence(self, server):
        # pacing changes the rhythm, never the content; a huge speed
        # factor keeps the test fast
        job_id = _submit(server.port)
        live = _collect_stream(server.port, f"/jobs/{job_id}/events")
        paced = _collect_stream(
            server.port,
            f"/jobs/{job_id}/events?replay=1&paced=1&speed=10000",
        )
        assert paced == live


# -- fault paths --------------------------------------------------------

class TestFaultPaths:
    def test_client_disconnect_mid_stream_leaves_the_job_alone(self, server):
        job_id = _submit(server.port, round_delay_s=0.15)
        client = SseClient(server.port, f"/jobs/{job_id}/events")
        # read a couple of real events, then vanish without goodbye
        got = list(client.events(stop_after=3))
        assert len(got) == 3
        client.close()

        job = _wait_for_state(server.port, job_id, TERMINAL)
        assert job["state"] == DONE
        # the run's artifacts are whole: one header, a clean manifest
        lines = _log_lines(server, job_id)
        headers = [l for l in lines if json.loads(l)["event"] == "run_meta"]
        assert len(headers) == 1
        manifest = json.loads(
            (server.run_dir(job_id) / "manifest.json").read_text()
        )
        assert manifest["status"] == "complete"

    def test_cancel_then_resume_result_is_bit_identical(self, server):
        # reference: the same scenario, never interrupted
        ref_id = _submit(server.port)
        _wait_for_state(server.port, ref_id, {DONE})
        reference = (server.run_dir(ref_id) / "result.json").read_bytes()

        # victim: paced so the cancel lands mid-run
        job_id = _submit(server.port, round_delay_s=0.4)
        client = SseClient(server.port, f"/jobs/{job_id}/events")
        saw_round = False
        for event, _data in client.events():
            if event == "round":
                saw_round = True
                break
        client.close()
        assert saw_round

        status, payload = _request(
            server.port, "POST", f"/jobs/{job_id}/cancel"
        )
        assert status == 202
        job = _wait_for_state(server.port, job_id, TERMINAL)
        assert job["state"] == CANCELLED
        manifest = json.loads(
            (server.run_dir(job_id) / "manifest.json").read_text()
        )
        assert manifest["status"] == "cancelled"

        # double-cancel is a definite 409, not a silent shrug
        status, _ = _request(server.port, "POST", f"/jobs/{job_id}/cancel")
        assert status == 409

        status, payload = _request(
            server.port, "POST", f"/jobs/{job_id}/resume"
        )
        assert status == 202 and payload["attempts"] == 2
        job = _wait_for_state(server.port, job_id, TERMINAL)
        assert job["state"] == DONE

        assert (
            server.run_dir(job_id) / "result.json"
        ).read_bytes() == reference
        # one contiguous log: original attempt + resumed segment
        headers = [
            json.loads(l)
            for l in _log_lines(server, job_id)
            if json.loads(l)["event"] == "run_meta"
        ]
        assert len(headers) == 2 and headers[1]["resumed"] is True

    def test_concurrent_same_scenario_runs_do_not_interleave(self, server):
        a = _submit(server.port, round_delay_s=0.05)
        b = _submit(server.port, round_delay_s=0.05)
        assert a != b  # distinct run ids for the same scenario
        _wait_for_state(server.port, a, {DONE})
        _wait_for_state(server.port, b, {DONE})

        logs = {job: _log_lines(server, job) for job in (a, b)}
        for job, lines in logs.items():
            rows = [json.loads(l) for l in lines]
            assert sum(1 for r in rows if r["event"] == "run_meta") == 1
            assert rows[0]["event"] == "run_meta"
        # same scenario, same work: the two logs tell the same story
        # (event names and round numbers), just under different run ids
        shape = {
            job: [
                (r["event"], r.get("round"))
                for r in (json.loads(l) for l in lines)
            ]
            for job, lines in logs.items()
        }
        assert shape[a] == shape[b]


# -- durability ---------------------------------------------------------

class TestRestartDurability:
    def test_fresh_server_recovers_finished_jobs(self, server):
        job_id = _submit(server.port)
        _wait_for_state(server.port, job_id, {DONE})

        async def recovered_states():
            other = ReproServer(server.runs_root)
            await other.start()
            try:
                return {r.job_id: r.state for r in other.registry.list()}
            finally:
                await other.stop()

        states = asyncio.run(recovered_states())
        assert states[job_id] == DONE
        # everything recovered came from a manifest, so it is terminal
        assert all(state in TERMINAL for state in states.values())


# -- stream latency ------------------------------------------------------

class TestPromptEnd:
    """The ``end`` event follows the job's terminal transition, not the
    next poll: ``poll_interval`` paces only the progress lines."""

    POLL_S = 3.0

    @pytest.fixture(scope="class")
    def slow_poll_server(self, tmp_path_factory):
        runs_root = tmp_path_factory.mktemp("serve-slow-poll")
        with _running_server(
            runs_root, workers=1, poll_interval=self.POLL_S
        ) as srv:
            # warm-up: spawn the pool child and fill its imports
            _wait_for_state(srv.port, _submit(srv.port), {DONE})
            yield srv

    def test_stream_ends_with_the_job(self, slow_poll_server):
        srv = slow_poll_server
        t0 = time.monotonic()
        job_id = _submit(srv.port)
        stream = _collect_stream(srv.port, f"/jobs/{job_id}/events")
        elapsed = time.monotonic() - t0
        assert stream[-1][0] == "end"
        assert json.loads(stream[-1][1])["state"] == DONE
        assert [data for _, data in stream[:-1]] == _log_lines(srv, job_id)
        assert elapsed < self.POLL_S / 2, elapsed

    def test_cancelling_a_queued_job_ends_its_stream(self, slow_poll_server):
        srv = slow_poll_server
        # the only worker is busy, so the second job waits in the queue
        busy = _submit(srv.port, round_delay_s=0.5)
        _wait_for_state(srv.port, busy, {RUNNING})
        queued = _submit(srv.port)
        client = SseClient(srv.port, f"/jobs/{queued}/events")
        try:
            time.sleep(0.2)  # let the stream settle into its wait
            _, job = _request(srv.port, "GET", f"/jobs/{queued}")
            assert job["state"] == QUEUED
            t0 = time.monotonic()
            status, _ = _request(srv.port, "POST", f"/jobs/{queued}/cancel")
            assert status == 202
            stream = list(client.events())
            elapsed = time.monotonic() - t0
        finally:
            client.close()
            _request(srv.port, "POST", f"/jobs/{busy}/cancel")
            _wait_for_state(srv.port, busy, TERMINAL)
        assert stream == [
            ("end", json.dumps({"job_id": queued, "state": CANCELLED}))
        ]
        assert elapsed < self.POLL_S / 2, elapsed


# -- pool crashes --------------------------------------------------------

class TestPoolWorkerCrash:
    def test_killed_child_fails_only_its_own_job(self, tmp_path):
        before = {p.pid for p in multiprocessing.active_children()}
        with _running_server(tmp_path, workers=2, poll_interval=0.02) as srv:
            jobs = [_submit(srv.port, round_delay_s=0.3) for _ in range(2)]
            for job_id in jobs:
                _wait_for_state(srv.port, job_id, {RUNNING})
            children = [
                p.pid for p in multiprocessing.active_children()
                if p.pid not in before
            ]
            # both jobs are mid-run, one per pool child; kill one child
            assert len(children) == 2
            os.kill(children[0], signal.SIGKILL)

            finished = {
                job_id: _wait_for_state(srv.port, job_id, TERMINAL)
                for job_id in jobs
            }
            states = sorted(job["state"] for job in finished.values())
            assert states == [DONE, FAILED]
            killed = next(j for j in jobs if finished[j]["state"] == FAILED)
            survivor = next(j for j in jobs if j != killed)
            assert "BrokenProcessPool" in finished[killed]["error"]

            # the broken pool was replaced: later jobs run normally
            later = _submit(srv.port)
            assert _wait_for_state(srv.port, later, TERMINAL)["state"] == DONE

            # resuming the killed job completes it with the result of an
            # uninterrupted run
            status, _ = _request(srv.port, "POST", f"/jobs/{killed}/resume")
            assert status == 202
            assert _wait_for_state(srv.port, killed, TERMINAL)["state"] == DONE
            deltas = {
                job_id: _request(srv.port, "GET", f"/jobs/{job_id}/result")[1][
                    "manifest"
                ]["final_delta"]
                for job_id in (killed, survivor, later)
            }
            assert deltas[killed] == deltas[survivor] == deltas[later]

    def test_killed_job_survives_a_restart(self, tmp_path):
        before = {p.pid for p in multiprocessing.active_children()}
        with _running_server(tmp_path, workers=1, poll_interval=0.02) as srv:
            killed = _submit(srv.port, round_delay_s=0.3)
            log = srv.run_dir(killed) / "obs.jsonl"
            deadline = time.monotonic() + FAST_RUN_TIMEOUT
            # complete lines only: the child may be mid-write
            while not log.exists() or "round" not in [
                json.loads(line)["event"]
                for line in log.read_text("utf-8").split("\n")[:-1]
            ]:
                assert time.monotonic() < deadline, "no round was logged"
                time.sleep(0.05)
            children = [
                p.pid for p in multiprocessing.active_children()
                if p.pid not in before
            ]
            assert len(children) == 1
            os.kill(children[0], signal.SIGKILL)
            job = _wait_for_state(srv.port, killed, TERMINAL)
            assert job["state"] == FAILED

        # a fresh server over the same runs root lists the job as failed
        with _running_server(tmp_path, workers=1, poll_interval=0.02) as srv:
            _, listed = _request(srv.port, "GET", "/jobs")
            job = next(j for j in listed["jobs"] if j["job_id"] == killed)
            assert job["state"] == FAILED and job["recovered"]

            status, _ = _request(srv.port, "POST", f"/jobs/{killed}/resume")
            assert status == 202
            assert _wait_for_state(srv.port, killed, TERMINAL)["state"] == DONE
            uninterrupted = _submit(srv.port)
            assert _wait_for_state(srv.port, uninterrupted, TERMINAL)["state"] == DONE
            deltas = [
                _request(srv.port, "GET", f"/jobs/{job_id}/result")[1][
                    "manifest"
                ]["final_delta"]
                for job_id in (killed, uninterrupted)
            ]
            assert deltas[0] == deltas[1]
