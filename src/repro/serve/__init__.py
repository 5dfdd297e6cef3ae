"""Simulation-as-a-service: the ``repro-serve`` async job server.

Submit scenarios as jobs over HTTP, watch them execute round by round
over Server-Sent Events, cancel at a checkpoint boundary and resume
later, and replay any finished run's event stream straight from its
recorded log — never by recomputing:

* :mod:`.jobs` — the job state machine
  (``queued → running → {done, failed, cancelled}``, with
  cancelled/failed re-queueable) and the :class:`JobRegistry`, which is
  rebuilt from run manifests on restart rather than persisted itself;
* :mod:`.worker` — job execution in ``spawn`` pool children via
  :func:`~repro.experiments.harness.run_recorded` (every job is a
  normal registry run: manifest + ``obs.jsonl`` + ``result.json`` +
  checkpoints), with cancellation delivered as a marker file the child
  polls once per round;
* :mod:`.http` — a stdlib-only HTTP/1.1 + SSE micro-layer
  (one request per connection, ``Connection: close``);
* :mod:`.app` — :class:`ReproServer`, the asyncio application: routes,
  the worker tasks (one single-process pool each), and the live/replay
  streams that tail the job's own JSONL log with
  :mod:`repro.obs.watch`'s line assembler, so the SSE payloads are the
  log's lines byte for byte;
* :mod:`.cli` — the ``repro-serve`` console entry point.

Quick start::

    repro-serve --port 8787 --runs-dir runs &
    curl -s -XPOST localhost:8787/jobs -d '{"experiment_id": "fig8"}'
    curl -sN localhost:8787/jobs/<id>/events        # live SSE
    curl -sN 'localhost:8787/jobs/<id>/events?replay=1'
"""

from repro.serve.app import ReproServer
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
    STATES,
    TERMINAL,
    TRANSITIONS,
    InvalidTransition,
    JobRecord,
    JobRegistry,
)
from repro.serve.worker import (
    CANCEL_MARKER,
    cancel_pending,
    clear_cancel_marker,
    execute_job,
    make_interrupt,
    request_cancel_marker,
)

__all__ = [
    "CANCELLED",
    "CANCEL_MARKER",
    "DONE",
    "FAILED",
    "HttpError",
    "HttpRequest",
    "InvalidTransition",
    "JobRecord",
    "JobRegistry",
    "QUEUED",
    "RUNNING",
    "ReproServer",
    "STATES",
    "TERMINAL",
    "TRANSITIONS",
    "cancel_pending",
    "clear_cancel_marker",
    "execute_job",
    "make_interrupt",
    "read_request",
    "request_cancel_marker",
    "send_json",
    "sse_comment",
    "sse_message",
    "start_sse",
]
