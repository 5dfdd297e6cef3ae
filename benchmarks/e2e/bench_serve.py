"""The served workload: ``repro-serve`` as a subprocess, one closed-loop client.

The client holds at most one connection at a time and sends the next
job only after the previous one finished: POST ``/jobs``, then the SSE
stream until ``end``, then GET the result. The server runs with one
pool worker, so at most two processes of the workload are busy.

Set-up is what a user waits for before the first steady job: start the
server, wait until it listens, and run one warm-up job (which spawns
the pool worker and fills its imports).
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from bench_workloads import Rep

#: The scenario every job runs, and its round count in fast mode.
EXPERIMENT = "fig8"
JOB_ROUNDS = 8

#: Seconds to wait for the server to listen, and for one job to finish.
START_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 15.0


class ServerProcess:
    """One ``repro-serve`` process group over a private runs root."""

    def __init__(self, root: Path, scratch: Path) -> None:
        self.runs_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._log = open(self.runs_dir.with_suffix(".log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli", "--port", "0",
             "--workers", "1", "--runs-dir", str(self.runs_dir)],
            cwd=str(root), env=env, stdout=subprocess.PIPE,
            stderr=self._log, start_new_session=True,
        )
        self.port = self._wait_listening()

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        stdout = self.proc.stdout
        assert stdout is not None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([stdout], [], [], remaining)[0]:
                break
            line = stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            if line.startswith("repro-serve listening on "):
                # Nothing more is printed until shutdown; the pipe cannot fill.
                return int(line.rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("repro-serve did not start listening")

    def stop(self) -> None:
        """SIGINT for a clean shutdown, then make sure the group is gone."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                    self.proc.wait()
            _reap_group(self.proc.pid)
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self._log.close()
            shutil.rmtree(self.runs_dir, ignore_errors=True)
            self.runs_dir.with_suffix(".log").unlink(missing_ok=True)


def _reap_group(pgid: int) -> None:
    """Wait until no process of the group survives (killing stragglers)."""
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            deadline = time.monotonic() + STOP_TIMEOUT_S
        time.sleep(0.02)


def _request(port: int, method: str, path: str,
             body: Optional[dict] = None) -> Tuple[int, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=JOB_TIMEOUT_S)
    try:
        conn.request(method, path,
                     body=json.dumps(body) if body is not None else None)
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, json.loads(raw) if raw else None
    finally:
        conn.close()


def _stream(port: int, job_id: str, on_first_round) -> List[Tuple[str, str]]:
    """(event, data) pairs of the live SSE stream, through ``end``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=JOB_TIMEOUT_S)
    events: List[Tuple[str, str]] = []
    try:
        conn.request("GET", f"/jobs/{job_id}/events")
        resp = conn.getresponse()
        if resp.status != 200:
            raise RuntimeError(f"events stream answered {resp.status}")
        name, data = None, []
        for raw in resp:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith(":"):
                continue
            if line.startswith("event: "):
                name = line[len("event: "):]
            elif line.startswith("data: "):
                data.append(line[len("data: "):])
            elif line == "" and data:
                events.append((name, "\n".join(data)))
                if name == "round" and on_first_round is not None:
                    on_first_round()
                    on_first_round = None
                if name == "end":
                    break
                name, data = None, []
    finally:
        conn.close()
    return events


def run_job(port: int, tracer=None) -> Dict[str, Any]:
    """Submit one job and follow it to its result; returns timings + payloads."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    marks: Dict[str, float] = {}
    t0 = perf_counter()
    with span("serve.submit"):
        status, job = _request(port, "POST", "/jobs",
                               {"experiment_id": EXPERIMENT, "fast": True})
    if status != 202:
        raise RuntimeError(f"submit answered {status}: {job}")
    with span("serve.stream"):
        events = _stream(port, job["job_id"],
                         lambda: marks.setdefault("first", perf_counter()))
    t_end = perf_counter()
    with span("serve.result"):
        status, result = _request(port, "GET", f"/jobs/{job['job_id']}/result")
    t_result = perf_counter()
    if status != 200:
        raise RuntimeError(f"result answered {status}")
    return {
        "job_s": t_end - t0,
        "cycle_s": t_result - t0,
        "first_event_s": marks.get("first", t_end) - t0,
        "events": events,
        "result": result,
    }


def check_job(job: Dict[str, Any], expected_delta: float) -> Optional[str]:
    """None when the job streamed, finished and scored like the library run."""
    events = job["events"]
    if not events or events[-1][0] != "end":
        return "SSE stream ended without an end event"
    if json.loads(events[-1][1]).get("state") != "done":
        return f"job ended in state {events[-1][1]}"
    rounds = sum(1 for name, _ in events if name == "round")
    if rounds != JOB_ROUNDS:
        return f"{rounds} round events, expected {JOB_ROUNDS}"
    manifest = (job["result"] or {}).get("manifest") or {}
    if manifest.get("status") != "complete":
        return f"manifest status {manifest.get('status')!r}"
    if manifest.get("round_count") != JOB_ROUNDS:
        return f"manifest round_count {manifest.get('round_count')}"
    if manifest.get("final_delta") != expected_delta:
        return (f"final delta {manifest.get('final_delta')} differs from the "
                f"in-process run's {expected_delta}")
    return None


def scenario_in_process() -> float:
    """The job's simulation (``fig8`` fast) run in this process; final delta."""
    from repro.core.problem import OSTDProblem
    from repro.experiments import config
    from repro.sim.engine import MobileSimulation

    field = config.ostd_field()
    problem = OSTDProblem(
        k=100, rc=config.RC, rs=config.RS, region=field.region, field=field,
        speed=config.SPEED, t0=config.T_REFERENCE,
        duration=float(config.FAST.n_rounds),
    )
    sim = MobileSimulation(
        problem, params=config.cma_params(), resolution=config.FAST.resolution
    )
    return float(sim.run().deltas[-1])


class ServedWorkload:
    """Forty-odd sequential ``fig8`` fast jobs against one server."""

    name = "served_job"

    def __init__(self, root: Path, scratch: Path) -> None:
        self.root = root
        self.scratch = scratch
        self.server: Optional[ServerProcess] = None
        self.expected_delta = float("nan")

    def timed_setups(self, n: int) -> List[float]:
        """Start (and warm) the server ``n`` times; the last one stays up."""
        times = []
        for i in range(n):
            t0 = perf_counter()
            server = ServerProcess(self.root, self.scratch)
            try:
                run_job(server.port)
            except BaseException:
                server.stop()
                raise
            times.append(perf_counter() - t0)
            if i < n - 1:
                server.stop()
            else:
                self.server = server
        return times

    def setup(self, seed: int) -> None:
        # The job API takes no seed: every job runs the canonical scenario.
        self.expected_delta = scenario_in_process()

    def warm_up(self) -> None:
        pass

    def run_once(self, sample, tracer=None) -> Rep:
        assert self.server is not None
        before = sample()
        job = run_job(self.server.port, tracer)
        return Rep(wall_s=job["cycle_s"], segments_s=[job["job_s"]],
                   cal_ms=[before, sample()], outcome=job)

    def reference_s(self) -> float:
        """Wall time of the job's simulation run in this process."""
        t0 = perf_counter()
        scenario_in_process()
        return perf_counter() - t0

    def check(self, rep: Rep) -> Optional[str]:
        return check_job(rep.outcome, self.expected_delta)

    def quality(self, rep: Rep) -> Dict[str, float]:
        return {"delta_final": float(rep.outcome["result"]["manifest"]["final_delta"])}

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
