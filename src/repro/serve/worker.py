"""The serve worker side: job execution in a child process.

Jobs do not run inside the server process. The instrumentation,
checkpoint and profiling contexts are *ambient* (process-global stacks —
see :func:`repro.obs.use_instrumentation`), so two jobs in one process
would cross-contaminate each other's obs logs. Each job therefore runs
through :func:`execute_job` inside a ``spawn``-context process pool: a
fresh interpreter per worker, one ambient stack each, and no
fork-while-threaded hazards under the asyncio server.

Cancellation crosses the process boundary as a *marker file*,
``cancel.requested``, dropped in the job's run directory by the server.
The child polls it from the :class:`~repro.runtime.CheckpointConfig`
interrupt hook — once per completed round — and winds down through the
normal preemption path: off-schedule checkpoint, ``status="cancelled"``
manifest, :class:`~repro.runtime.RunPreempted`. No signals, no pipes;
the marker is also inspectable post-mortem.
"""

from __future__ import annotations

import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

__all__ = [
    "CANCEL_MARKER",
    "cancel_pending",
    "clear_cancel_marker",
    "execute_job",
    "make_interrupt",
    "request_cancel_marker",
]

#: Marker file in a run directory that asks the child to preempt.
CANCEL_MARKER = "cancel.requested"


def request_cancel_marker(run_dir: Union[str, Path]) -> Path:
    """Drop the cancel marker into ``run_dir`` (creating it if needed)."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    marker = run_dir / CANCEL_MARKER
    marker.write_text("cancel requested\n", encoding="utf-8")
    return marker


def clear_cancel_marker(run_dir: Union[str, Path]) -> bool:
    """Remove a pending marker; True if one was there."""
    marker = Path(run_dir) / CANCEL_MARKER
    try:
        marker.unlink()
        return True
    except OSError:
        return False


def cancel_pending(run_dir: Union[str, Path]) -> bool:
    """Is a cancel marker currently set for this run directory?"""
    return (Path(run_dir) / CANCEL_MARKER).exists()


def make_interrupt(
    run_dir: Union[str, Path], round_delay_s: float = 0.0
) -> Callable[[], bool]:
    """Build the per-round interrupt hook for one run.

    Called by :func:`~repro.runtime.checkpoint.drive_run` after every
    completed round; returning True preempts. ``round_delay_s`` — a
    deliberate per-round sleep — is the pacing knob that makes an
    otherwise sub-second scenario observable and cancellable mid-flight
    (the e2e tests and the CI smoke job rely on it).
    """
    run_dir = Path(run_dir)

    def interrupt() -> bool:
        if round_delay_s > 0:
            time.sleep(round_delay_s)
        return cancel_pending(run_dir)

    return interrupt


def execute_job(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job to a terminal state; the pool-worker entry point.

    ``spec`` is a plain picklable dict::

        {"job_id", "experiment_id", "runs_dir",
         "fast", "profile", "checkpoint_every", "obs_flush_every",
         "round_delay_s", "resume"}

    Returns ``{"job_id", "status", "error"}`` with status one of
    ``"complete"``, ``"cancelled"`` (preempted at a round boundary,
    checkpoints in place) or ``"failed"`` (error carries the traceback).
    Never raises: the parent maps the status onto the job state machine
    and must see a verdict even when the run blew up.
    """
    from repro.experiments.harness import run_recorded
    from repro.runtime.checkpoint import RunPreempted

    job_id = spec["job_id"]
    runs_dir = Path(spec["runs_dir"])
    run_dir = runs_dir / job_id
    # A marker surviving from a cancelled attempt must not instantly
    # kill the resumed one.
    clear_cancel_marker(run_dir)
    try:
        run_recorded(
            spec["experiment_id"],
            runs_dir,
            fast=bool(spec.get("fast", True)),
            profile=bool(spec.get("profile", False)),
            obs_flush_every=spec.get("obs_flush_every", 1),
            checkpoints=True,
            checkpoint_every=int(spec.get("checkpoint_every", 5)),
            run_id=job_id,
            resume=bool(spec.get("resume", False)),
            interrupt=make_interrupt(
                run_dir, float(spec.get("round_delay_s", 0.0))
            ),
        )
        return {"job_id": job_id, "status": "complete", "error": None}
    except RunPreempted:
        clear_cancel_marker(run_dir)
        return {"job_id": job_id, "status": "cancelled", "error": None}
    except BaseException:
        return {
            "job_id": job_id,
            "status": "failed",
            "error": traceback.format_exc(limit=20),
        }
