"""The ``repro-serve`` application: submit scenarios, watch them run.

:class:`ReproServer` wires the pieces together on one asyncio loop:

* **intake** — ``POST /jobs`` registers a job in the
  :class:`~repro.serve.jobs.JobRegistry` and enqueues it; the job id *is*
  the run id, minted up front with :func:`~repro.obs.manifest.new_run_id`
  so the run directory is addressable before the first round executes;
* **execution** — a bounded set of worker tasks, each feeding its own
  one-process ``spawn``-context
  :class:`~concurrent.futures.ProcessPoolExecutor` running
  :func:`~repro.serve.worker.execute_job`, which is
  :func:`~repro.experiments.harness.run_recorded` — every job lands in
  the run registry with a manifest, ``obs.jsonl``, ``result.json`` and
  checkpoints, exactly like a CLI run. A pool child that dies (killed,
  out of memory) fails only the job it was running: its worker task
  replaces that one pool and takes the next job;
* **streaming** — ``GET /jobs/<id>/events`` tails the job's own
  ``obs.jsonl`` with the :mod:`repro.obs.watch` line assembler and
  frames each complete log line, verbatim, as one SSE message. Every
  state change the server makes wakes the job's live streams, so the
  closing ``end`` event follows the terminal transition at once;
  ``poll_interval`` paces only the progress lines in between. Replay
  (``?replay=1``) re-reads the same file through the same assembler —
  live and replayed streams are byte-for-byte the same sequence, and
  replay never recomputes anything;
* **control** — cancel (marker file → cooperative preemption at the
  next round boundary, checkpoints kept) and resume (re-queue; the
  child picks up from the newest checkpoint and appends to the log).

The server holds no durable state of its own: restart it over the same
runs root and :meth:`JobRegistry.recover` rebuilds the finished jobs
from their manifests.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import multiprocessing
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.manifest import MANIFEST_NAME, new_run_id
from repro.obs.watch import LineAssembler, parse_event_line, read_new_lines
from repro.serve import worker as worker_mod
from repro.serve.http import (
    HttpError,
    HttpRequest,
    read_request,
    send_json,
    sse_comment,
    sse_message,
    start_sse,
)
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL,
    InvalidTransition,
    JobRegistry,
)

__all__ = ["ReproServer"]

#: Emit an SSE keepalive comment after this many idle polls.
_KEEPALIVE_POLLS = 40
#: Cap a single paced-replay gap (seconds) no matter what the log says.
_MAX_PACED_GAP_S = 30.0


class ReproServer:
    """Scenario-submission job server over a runs root."""

    def __init__(
        self,
        runs_root: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        checkpoint_every: int = 5,
        obs_flush_every: int = 1,
        poll_interval: float = 0.05,
    ) -> None:
        self.runs_root = Path(runs_root)
        self.host = host
        self.port = port
        self.workers = max(1, int(workers))
        self.checkpoint_every = int(checkpoint_every)
        self.obs_flush_every = int(obs_flush_every)
        self.poll_interval = float(poll_interval)
        self.registry = JobRegistry()
        # Created in start(): on 3.9 an asyncio.Queue binds to the loop
        # current at *construction*, and the server's loop may live on
        # another thread than the one that built this object.
        self._queue: Optional["asyncio.Queue[str]"] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker_tasks: List[asyncio.Task] = []
        # One single-process pool per worker task: a child that dies
        # breaks only its own pool, so only the job it was running fails.
        self._pools: List[concurrent.futures.ProcessPoolExecutor] = []
        # Per non-terminal job, the event its live streams wait on; each
        # state change sets it and puts a fresh one in its place.
        self._wakeups: Dict[str, asyncio.Event] = {}

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Recover finished jobs, open the socket, start the workers."""
        self.runs_root.mkdir(parents=True, exist_ok=True)
        self.registry = JobRegistry.recover(self.runs_root)
        self._queue = asyncio.Queue()
        self._pools = [self._new_pool() for _ in range(self.workers)]
        self._worker_tasks = [
            asyncio.get_running_loop().create_task(self._worker_loop(i))
            for i in range(self.workers)
        ]
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, stop the workers, tear down the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        for pool in self._pools:
            pool.shutdown(wait=False)
        self._pools = []

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    def run_dir(self, job_id: str) -> Path:
        return self.runs_root / job_id

    # -- execution ------------------------------------------------------
    @staticmethod
    def _new_pool() -> concurrent.futures.ProcessPoolExecutor:
        # spawn, not fork: the server process runs an event loop and the
        # ambient obs/checkpoint stacks are process-global — children
        # must start clean.
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("spawn")
        )

    def _notify(self, job_id: str) -> None:
        """Wake the job's live streams: its state has just changed."""
        old = self._wakeups.pop(job_id, None)
        record = self.registry.maybe_get(job_id)
        if record is not None and record.state not in TERMINAL:
            self._wakeups[job_id] = asyncio.Event()
        if old is not None:
            old.set()

    async def _worker_loop(self, index: int) -> None:
        loop = asyncio.get_running_loop()
        queue = self._queue
        assert queue is not None
        while True:
            job_id = await queue.get()
            record = self.registry.maybe_get(job_id)
            # Cancelled while still queued: the registry already moved
            # it to `cancelled`; just drop the stale queue entry.
            if record is None or record.state != QUEUED:
                continue
            resume = record.attempts > 1
            self.registry.transition(job_id, RUNNING)
            self._notify(job_id)
            spec = {
                "job_id": job_id,
                "experiment_id": record.experiment_id,
                "runs_dir": str(self.runs_root),
                "resume": resume,
                "checkpoint_every": self.checkpoint_every,
                "obs_flush_every": self.obs_flush_every,
                "fast": record.params.get("fast", True),
                "profile": record.params.get("profile", False),
                "round_delay_s": record.params.get("round_delay_s", 0.0),
            }
            if record.params.get("checkpoint_every") is not None:
                spec["checkpoint_every"] = int(record.params["checkpoint_every"])
            try:
                outcome = await loop.run_in_executor(
                    self._pools[index], worker_mod.execute_job, spec
                )
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # pool died, spec unpicklable, ...
                if isinstance(exc, BrokenProcessPool):
                    # The child died mid-job; a broken pool refuses all
                    # further work, so start a fresh one for the next job.
                    self._pools[index].shutdown(wait=False)
                    self._pools[index] = self._new_pool()
                outcome = {
                    "job_id": job_id,
                    "status": "failed",
                    "error": f"executor error: {exc!r}",
                }
            # The child has exited; a marker it never saw (completion
            # beats cancellation) must not ambush the next attempt.
            worker_mod.clear_cancel_marker(self.run_dir(job_id))
            status = outcome.get("status")
            if status == "complete":
                self.registry.transition(job_id, DONE)
            elif status == "cancelled":
                finished = self.registry.transition(job_id, CANCELLED)
                finished.cancel_requested = False
            else:
                self.registry.transition(
                    job_id, FAILED, error=outcome.get("error") or "unknown"
                )
            self._notify(job_id)

    # -- connection handling --------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                await self._dispatch(request, writer)
            except HttpError as exc:
                await send_json(writer, exc.status, {"error": exc.message})
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                # Client went away (or server shutdown): nothing to
                # answer, and crucially nothing else to tear down — the
                # job itself runs in the pool, not on this connection.
                pass
            except Exception as exc:
                try:
                    await send_json(writer, 500, {"error": repr(exc)})
                except OSError:
                    pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _dispatch(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        method = request.method
        parts = [p for p in request.path.split("/") if p]

        if parts == ["healthz"] and method == "GET":
            await send_json(
                writer, 200, {"ok": True, "jobs": self.registry.counts()}
            )
            return
        if parts == ["jobs"]:
            if method == "GET":
                await send_json(
                    writer,
                    200,
                    {"jobs": [r.as_dict() for r in self.registry.list()]},
                )
                return
            if method == "POST":
                await self._submit(request, writer)
                return
            raise HttpError(405, "use GET or POST on /jobs")
        if len(parts) >= 2 and parts[0] == "jobs":
            job_id = parts[1]
            action = parts[2] if len(parts) == 3 else None
            if len(parts) > 3:
                raise HttpError(404, f"no route {request.path!r}")
            if action is None and method == "GET":
                await send_json(writer, 200, self._job_payload(job_id))
                return
            if action == "cancel" and method == "POST":
                await self._cancel(job_id, writer)
                return
            if action == "resume" and method == "POST":
                await self._resume(job_id, writer)
                return
            if action == "events" and method == "GET":
                await self._events(job_id, request, writer)
                return
            if action == "result" and method == "GET":
                await self._result(job_id, writer)
                return
        raise HttpError(404, f"no route {method} {request.path!r}")

    # -- endpoints ------------------------------------------------------
    async def _submit(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        payload = request.json()
        experiment_id = payload.get("experiment_id")
        if not experiment_id or not isinstance(experiment_id, str):
            raise HttpError(400, "experiment_id (string) is required")
        from repro.experiments.registry import get_experiment

        try:
            get_experiment(experiment_id)
        except KeyError as exc:
            raise HttpError(400, str(exc)) from exc
        params: Dict[str, Any] = {
            "fast": bool(payload.get("fast", True)),
            "profile": bool(payload.get("profile", False)),
            "round_delay_s": float(payload.get("round_delay_s", 0.0)),
        }
        if payload.get("checkpoint_every") is not None:
            params["checkpoint_every"] = int(payload["checkpoint_every"])
        if self._queue is None:
            raise HttpError(500, "server not started")
        job_id = new_run_id(experiment_id)
        record = self.registry.submit(job_id, experiment_id, params)
        self._notify(job_id)
        await self._queue.put(job_id)
        await send_json(writer, 202, record.as_dict())

    def _job_payload(self, job_id: str) -> Dict[str, Any]:
        record = self.registry.maybe_get(job_id)
        if record is None:
            raise HttpError(404, f"no job {job_id!r}")
        return record.as_dict()

    async def _cancel(self, job_id: str, writer: asyncio.StreamWriter) -> None:
        try:
            record = self.registry.request_cancel(job_id)
        except KeyError as exc:
            raise HttpError(404, str(exc)) from exc
        except InvalidTransition as exc:
            raise HttpError(409, str(exc)) from exc
        if record.state == RUNNING:
            # The child confirms at its next round boundary.
            worker_mod.request_cancel_marker(self.run_dir(job_id))
        else:
            self._notify(job_id)  # a queued job cancels at once
        await send_json(writer, 202, record.as_dict())

    async def _resume(self, job_id: str, writer: asyncio.StreamWriter) -> None:
        try:
            record = self.registry.resume(job_id)
        except KeyError as exc:
            raise HttpError(404, str(exc)) from exc
        except InvalidTransition as exc:
            raise HttpError(409, str(exc)) from exc
        self._notify(job_id)
        worker_mod.clear_cancel_marker(self.run_dir(job_id))
        if self._queue is None:
            raise HttpError(500, "server not started")
        await self._queue.put(job_id)
        await send_json(writer, 202, record.as_dict())

    async def _result(self, job_id: str, writer: asyncio.StreamWriter) -> None:
        record = self.registry.maybe_get(job_id)
        if record is None:
            raise HttpError(404, f"no job {job_id!r}")
        run_dir = self.run_dir(job_id)
        payload: Dict[str, Any] = {"job": record.as_dict()}
        result_path = run_dir / "result.json"
        if result_path.exists():
            payload["result"] = json.loads(result_path.read_text("utf-8"))
        manifest_path = run_dir / MANIFEST_NAME
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text("utf-8"))
            payload["manifest"] = {
                "run_id": manifest.get("run_id"),
                "status": manifest.get("status"),
                "params_hash": manifest.get("params_hash"),
                "round_count": manifest.get("round_count"),
                "final_delta": manifest.get("final_delta"),
            }
        if "result" not in payload and record.state == QUEUED:
            raise HttpError(409, f"job {job_id!r} has not started")
        await send_json(writer, 200, payload)

    # -- event streams --------------------------------------------------
    async def _events(
        self, job_id: str, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        record = self.registry.maybe_get(job_id)
        if record is None:
            raise HttpError(404, f"no job {job_id!r}")
        replay = request.query.get("replay", "") in ("1", "true", "yes")
        if replay:
            if record.state not in TERMINAL:
                raise HttpError(
                    409, f"job {job_id!r} is {record.state}; replay needs a finished run"
                )
            paced = request.query.get("paced", "") in ("1", "true", "yes")
            try:
                speed = float(request.query.get("speed", "1"))
            except ValueError as exc:
                raise HttpError(400, "speed must be a number") from exc
            if speed <= 0:
                raise HttpError(400, "speed must be > 0")
            await self._stream_replay(job_id, writer, paced=paced, speed=speed)
        else:
            await self._stream_live(job_id, writer)

    def _log_path(self, job_id: str) -> Path:
        return self.run_dir(job_id) / "obs.jsonl"

    @staticmethod
    def _frame(line: str, seq: int) -> bytes:
        event = parse_event_line(line)
        name = event["event"] if event is not None else "message"
        return sse_message(line, event=name, id=seq)

    async def _stream_live(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        """Tail the job's obs log from byte 0 until terminal and drained.

        The sequence of ``data:`` payloads is exactly the sequence of
        complete lines in ``obs.jsonl`` — the conformance suite holds
        the stream to that, byte for byte. Between reads the stream
        waits up to ``poll_interval`` for new lines, or less when the
        job changes state.
        """
        await start_sse(writer)
        path = self._log_path(job_id)
        assembler = LineAssembler()
        position = 0
        seq = 0
        idle_polls = 0
        while True:
            # Take the wake-up before sampling the state: a transition
            # after this line sets it, so the wait below cannot miss one.
            # (Terminal jobs have none; they never reach the wait.)
            wake = self._wakeups.get(job_id) or asyncio.Event()
            record = self.registry.maybe_get(job_id)
            terminal = record is None or record.state in TERMINAL
            lines, position = read_new_lines(path, position, assembler)
            for line in lines:
                writer.write(self._frame(line, seq))
                seq += 1
            if lines:
                idle_polls = 0
                await writer.drain()
                continue
            # `terminal` was sampled *before* the read: the child had
            # already exited and flushed, so an empty read means drained.
            if terminal:
                break
            idle_polls += 1
            if idle_polls % _KEEPALIVE_POLLS == 0:
                writer.write(sse_comment())
                await writer.drain()
            try:
                await asyncio.wait_for(wake.wait(), self.poll_interval)
            except asyncio.TimeoutError:
                pass
        await self._end_event(job_id, writer)

    async def _stream_replay(
        self,
        job_id: str,
        writer: asyncio.StreamWriter,
        paced: bool = False,
        speed: float = 1.0,
    ) -> None:
        """Re-serve a finished run's stream from its log — no recompute.

        Reads the recorded ``obs.jsonl`` through the same line assembler
        the live path uses, so the framed sequence is identical to what
        a live subscriber saw. ``paced=True`` sleeps the recorded
        inter-event gap (scaled by ``speed``) between messages,
        reproducing the run's rhythm from its ``t`` timestamps.
        """
        path = self._log_path(job_id)
        if not path.exists():
            raise HttpError(404, f"job {job_id!r} has no recorded log")
        await start_sse(writer)
        assembler = LineAssembler()
        lines, _position = read_new_lines(path, 0, assembler)
        prev_t: Optional[float] = None
        for seq, line in enumerate(lines):
            if paced:
                event = parse_event_line(line)
                t = event.get("t") if event is not None else None
                if isinstance(t, (int, float)):
                    if prev_t is not None:
                        gap = max(float(t) - prev_t, 0.0) / speed
                        await asyncio.sleep(min(gap, _MAX_PACED_GAP_S))
                    prev_t = float(t)
            writer.write(self._frame(line, seq))
            await writer.drain()
        await self._end_event(job_id, writer)

    async def _end_event(self, job_id: str, writer: asyncio.StreamWriter) -> None:
        record = self.registry.maybe_get(job_id)
        state = record.state if record is not None else "unknown"
        writer.write(
            sse_message(
                json.dumps({"job_id": job_id, "state": state}), event="end"
            )
        )
        await writer.drain()
