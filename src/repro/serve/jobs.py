"""Job lifecycle for ``repro-serve``: states, transitions, durability.

A *job* is one scenario submission: it is born ``queued``, a worker
takes it to ``running``, and it ends in exactly one of ``done``,
``failed`` or ``cancelled``. Two non-terminal edges close the loop:
a queued job can be cancelled before it ever starts, and a cancelled
(or failed) job can be re-queued — that is the resume path, which picks
the run up from its newest checkpoint.

The :class:`JobRegistry` is the server's in-memory view of that state
machine. It is deliberately *not* the durable store: durability lives in
the run registry (:mod:`repro.obs.registry`) — every executed job lands
a :class:`~repro.obs.manifest.RunManifest` under the runs root, and
:meth:`JobRegistry.recover` rebuilds the terminal jobs from those
manifests on restart. A run writes a ``running`` manifest before it
starts, so a job whose worker died mid-run comes back as ``failed`` and
can be resumed. A job that never started has no run directory and
therefore (correctly) does not survive a restart: nothing about it is
durable.

Transitions are validated — an illegal edge raises
:class:`InvalidTransition` rather than silently corrupting the view —
and every mutation happens under one lock, so the asyncio handlers and
any test poking from another thread see a consistent picture.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Union

__all__ = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "STATES",
    "TERMINAL",
    "TRANSITIONS",
    "InvalidTransition",
    "JobRecord",
    "JobRegistry",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Every state a job can be in.
STATES: FrozenSet[str] = frozenset({QUEUED, RUNNING, DONE, FAILED, CANCELLED})

#: States with no outgoing *automatic* edges (resume re-queues two of them).
TERMINAL: FrozenSet[str] = frozenset({DONE, FAILED, CANCELLED})

#: The full transition relation; anything not listed is invalid.
TRANSITIONS: Dict[str, FrozenSet[str]] = {
    QUEUED: frozenset({RUNNING, CANCELLED}),
    RUNNING: frozenset({DONE, FAILED, CANCELLED}),
    DONE: frozenset(),
    FAILED: frozenset({QUEUED}),
    CANCELLED: frozenset({QUEUED}),
}

#: Manifest ``status`` → job state, for :meth:`JobRegistry.recover`. A
#: ``running`` manifest outlived its run: the process died before the
#: final manifest replaced it.
_MANIFEST_STATES: Dict[str, str] = {
    "complete": DONE,
    "failed": FAILED,
    "cancelled": CANCELLED,
    "running": FAILED,
}


class InvalidTransition(ValueError):
    """An edge outside :data:`TRANSITIONS` was attempted."""

    def __init__(self, job_id: str, current: str, requested: str) -> None:
        self.job_id = job_id
        self.current = current
        self.requested = requested
        legal = sorted(TRANSITIONS.get(current, ())) or "none"
        super().__init__(
            f"job {job_id!r}: illegal transition {current!r} -> "
            f"{requested!r} (legal: {legal})"
        )


@dataclass
class JobRecord:
    """One job's view-state (the durable truth is its run manifest)."""

    job_id: str
    experiment_id: str
    params: Dict[str, Any] = dataclass_field(default_factory=dict)
    state: str = QUEUED
    #: Monotone submission sequence number — listing order.
    seq: int = 0
    #: Times the job has been enqueued (1 + number of resumes).
    attempts: int = 1
    #: Why the job failed, when it did.
    error: Optional[str] = None
    #: A cancel has been requested but the worker has not confirmed yet.
    cancel_requested: bool = False
    #: True for jobs rebuilt from manifests by :meth:`JobRegistry.recover`.
    recovered: bool = False

    def as_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "experiment_id": self.experiment_id,
            "params": self.params,
            "state": self.state,
            "attempts": self.attempts,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
            "recovered": self.recovered,
        }


class JobRegistry:
    """Validated in-memory job state, rebuildable from the runs root."""

    def __init__(self) -> None:
        self._jobs: Dict[str, JobRecord] = {}
        self._seq = 0
        self._lock = threading.Lock()

    # -- intake ---------------------------------------------------------
    def submit(
        self,
        job_id: str,
        experiment_id: str,
        params: Optional[Dict[str, Any]] = None,
    ) -> JobRecord:
        """Register a new queued job; duplicate ids are an error."""
        with self._lock:
            if job_id in self._jobs:
                raise ValueError(f"duplicate job id {job_id!r}")
            self._seq += 1
            record = JobRecord(
                job_id=job_id,
                experiment_id=experiment_id,
                params=dict(params or {}),
                seq=self._seq,
            )
            self._jobs[job_id] = record
            return record

    # -- queries --------------------------------------------------------
    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"no job {job_id!r}") from None

    def maybe_get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> List[JobRecord]:
        """All jobs in submission order (recovered jobs first)."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda r: r.seq)

    def counts(self) -> Dict[str, int]:
        """How many jobs sit in each state (states with zero omitted)."""
        out: Dict[str, int] = {}
        with self._lock:
            for record in self._jobs.values():
                out[record.state] = out.get(record.state, 0) + 1
        return out

    # -- transitions ----------------------------------------------------
    def transition(
        self, job_id: str, new_state: str, error: Optional[str] = None
    ) -> JobRecord:
        """Move one job along a legal edge (or raise)."""
        if new_state not in STATES:
            raise InvalidTransition(job_id, "?", new_state)
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise KeyError(f"no job {job_id!r}")
            if new_state not in TRANSITIONS[record.state]:
                raise InvalidTransition(job_id, record.state, new_state)
            record.state = new_state
            if new_state == FAILED:
                record.error = error
            elif error is not None:
                record.error = error
            return record

    def request_cancel(self, job_id: str) -> JobRecord:
        """Ask for a job to stop.

        A queued job cancels immediately (it never started, there is
        nothing to wind down); a running job gets ``cancel_requested``
        set — the worker confirms the edge when the run actually stops
        at its next round boundary. Cancelling a terminal job is an
        :class:`InvalidTransition`: there is nothing left to stop.
        """
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise KeyError(f"no job {job_id!r}")
            if record.state == QUEUED:
                record.state = CANCELLED
                record.cancel_requested = False
                return record
            if record.state == RUNNING:
                record.cancel_requested = True
                return record
            raise InvalidTransition(job_id, record.state, CANCELLED)

    def resume(self, job_id: str) -> JobRecord:
        """Re-queue a cancelled or failed job (the resume/retry path)."""
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise KeyError(f"no job {job_id!r}")
            if QUEUED not in TRANSITIONS[record.state]:
                raise InvalidTransition(job_id, record.state, QUEUED)
            record.state = QUEUED
            record.cancel_requested = False
            record.error = None
            record.attempts += 1
            return record

    # -- durability -----------------------------------------------------
    @classmethod
    def recover(cls, runs_root: Union[str, Path]) -> "JobRegistry":
        """Rebuild the terminal jobs from the runs root's manifests.

        Exactly the durable jobs come back: one record per readable
        manifest whose status maps to a job state (``complete`` →
        ``done``, ``failed`` and ``running`` → ``failed``, ``cancelled``
        → ``cancelled``), ordered by ``started_at``. Unreadable manifests
        and unknown statuses are skipped — recovery must never refuse to
        start the server over one corrupt run.
        """
        from repro.obs.registry import RunRegistry

        registry = cls()
        manifests, _problems = RunRegistry(runs_root).scan()
        manifests.sort(key=lambda m: (m.started_at, m.run_id))
        for manifest in manifests:
            state = _MANIFEST_STATES.get(manifest.status)
            if state is None:
                continue
            record = registry.submit(
                manifest.run_id, manifest.scenario_id, manifest.params
            )
            record.state = state
            record.recovered = True
            if manifest.status == "running":
                record.error = "the run stopped before its final manifest"
        return registry
