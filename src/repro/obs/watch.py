"""Live run monitoring: tail a growing JSONL log, render a dashboard.

``repro-exp watch run.jsonl`` follows a run log *while the run writes
it* (pair with ``--obs-log``'s ``--obs-flush-every`` so events reach the
file promptly) and keeps a terminal view current:

* the latest round's δ / RMSE / components / alive count, with a δ
  sparkline over the recent window,
* per-phase wall-time totals from the ``span`` events,
* network counters summed over the networked exchange's per-round
  ``net`` events (sent, delivered, lost, stale-served, ...).

The tailer (:func:`follow`) is deliberately boring: poll the file,
yield complete lines, keep a partial trailing line buffered until its
newline arrives (a half-written JSON object is *pending*, not an
error), and pick up content that existed before the watcher started.
It is also the read side ``repro-serve`` streams over SSE.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "LineAssembler",
    "follow",
    "parse_event_line",
    "read_new_lines",
    "WatchState",
    "render_watch",
    "watch",
]

_SPARK = "▁▂▃▄▅▆▇█"


class LineAssembler:
    """Reassemble complete lines from an arbitrarily-chunked text stream.

    A tailer reads whatever bytes the writer has flushed so far — which
    can end mid-line when the writer's buffer boundary falls inside a
    JSON object. :meth:`push` returns only the *complete* (newline-
    terminated) lines of the stream and keeps the partial tail buffered
    until its newline arrives, so a half-written line is *pending*, not
    malformed. Lines come back verbatim (minus the terminator), which is
    what lets ``repro-serve`` re-serve log lines byte-for-byte over SSE.
    """

    def __init__(self) -> None:
        self._buffer = ""

    @property
    def pending(self) -> str:
        """The buffered partial line (empty when aligned on a newline)."""
        return self._buffer

    def push(self, chunk: str) -> List[str]:
        """Fold in one chunk; return the newly completed lines."""
        self._buffer += chunk
        if "\n" not in self._buffer:
            return []
        *lines, self._buffer = self._buffer.split("\n")
        return lines

    def reset(self) -> None:
        """Drop the buffered tail (the file was rotated/truncated)."""
        self._buffer = ""


def read_new_lines(
    path: Union[str, Path],
    position: int,
    assembler: LineAssembler,
) -> Tuple[List[str], int]:
    """One poll step of a tail: new complete lines plus the new offset.

    Reads whatever ``path`` holds past ``position``, feeds it through
    ``assembler`` and returns the completed lines. A file that is
    missing yields nothing; a file *shorter* than ``position`` means the
    writer rotated or truncated it — the tail restarts from byte 0 with
    the assembler's partial buffer dropped (the old pre-rotation tail
    can never complete). This is the shared substrate of :func:`follow`
    and the ``repro-serve`` SSE event streams.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
    except OSError:
        return [], position
    if size < position:
        position = 0
        assembler.reset()
    if size == position:
        return [], position
    with path.open("r", encoding="utf-8") as fh:
        fh.seek(position)
        chunk = fh.read()
        position = fh.tell()
    return assembler.push(chunk), position


def parse_event_line(line: str) -> Optional[Dict[str, Any]]:
    """One JSONL log line → event dict, or ``None`` when unusable.

    A newline-terminated but unparseable line is a crashed writer's torn
    tail (skip it — matching the "parseable up to the last newline"
    contract of :class:`~repro.obs.sinks.JsonlSink`); a parseable row
    without an ``event`` field is not an event.
    """
    line = line.strip()
    if not line:
        return None
    try:
        row = json.loads(line)
    except json.JSONDecodeError:
        return None
    if isinstance(row, dict) and "event" in row:
        return row
    return None


def follow(
    path: Union[str, Path],
    poll_interval: float = 0.5,
    stop: Optional[Callable[[], bool]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Iterator[Dict[str, Any]]:
    """Yield event dicts from a growing JSONL file until ``stop()``.

    Starts at the beginning (existing content is replayed first), then
    polls for appended bytes. A trailing line without its newline stays
    buffered — mid-write JSON is pending, not malformed (see
    :class:`LineAssembler`). A line that *is* newline-terminated but
    unparseable is skipped (a crashed writer's torn tail). A file that
    shrinks under the tailer (log rotation, truncate-and-rewrite) is
    picked up again from the start instead of stalling forever at the
    stale offset.

    ``stop`` is checked between polls; ``stop=lambda: True`` drains the
    current file content exactly once and returns (the ``--once`` mode).
    """
    path = Path(path)
    assembler = LineAssembler()
    position = 0
    while True:
        lines, position = read_new_lines(path, position, assembler)
        for line in lines:
            row = parse_event_line(line)
            if row is not None:
                yield row
        if stop is not None and stop():
            return
        sleep(poll_interval)


@dataclass
class WatchState:
    """Everything the dashboard shows, updated event by event."""

    n_events: int = 0
    #: The log's ``run_meta`` header fields, when one has been seen.
    run_meta: Optional[Dict[str, Any]] = None
    last_round: Optional[Dict[str, Any]] = None
    deltas: List[float] = dataclass_field(default_factory=list)
    phase_totals: Dict[str, float] = dataclass_field(default_factory=dict)
    phase_counts: Dict[str, int] = dataclass_field(default_factory=dict)
    #: Sums of the ``net`` events' counts, in the events' field order.
    net_counts: Dict[str, int] = dataclass_field(default_factory=dict)

    #: δ history kept for the sparkline (bounded).
    max_deltas: int = 120

    def feed(self, row: Dict[str, Any]) -> None:
        """Fold one event dict into the view state."""
        self.n_events += 1
        name = row.get("event")
        if name == "run_meta":
            self.run_meta = {
                k: v for k, v in row.items() if k not in ("event", "t")
            }
        elif name == "round":
            self.last_round = row
            delta = row.get("delta")
            if isinstance(delta, (int, float)) and not (
                isinstance(delta, float) and math.isnan(delta)
            ):
                self.deltas.append(float(delta))
                if len(self.deltas) > self.max_deltas:
                    self.deltas.pop(0)
        elif name == "span":
            path = str(row.get("path", row.get("phase", "?")))
            self.phase_totals[path] = (
                self.phase_totals.get(path, 0.0)
                + float(row.get("dur_s", 0.0))
            )
            self.phase_counts[path] = self.phase_counts.get(path, 0) + 1
        elif name == "net":
            for key, value in row.items():
                if key not in ("event", "t", "round"):
                    self.net_counts[key] = self.net_counts.get(key, 0) + value


def _sparkline(values: List[float], width: int = 40) -> str:
    if not values:
        return ""
    tail = values[-width:]
    lo, hi = min(tail), max(tail)
    if hi <= lo:
        return _SPARK[0] * len(tail)
    span = hi - lo
    return "".join(
        _SPARK[int((v - lo) / span * (len(_SPARK) - 1))] for v in tail
    )


def _fmt_seconds(s: float) -> str:
    return f"{s * 1e3:.1f}ms" if s < 1.0 else f"{s:.2f}s"


def render_watch(state: WatchState, title: str = "run") -> str:
    """Render the live view as plain text (one frame)."""
    lines = [f"== watching: {title} ==  events: {state.n_events}"]
    if state.run_meta:
        meta = state.run_meta
        parts = [f"scenario {meta.get('scenario_id', '?')}"]
        if "seed" in meta:
            parts.append(f"seed {meta['seed']}")
        if "params_hash" in meta:
            parts.append(f"params {meta['params_hash']}")
        lines.append("   ".join(parts))
    r = state.last_round
    if r is not None:
        delta = r.get("delta")
        rmse = r.get("rmse")
        delta_s = f"{delta:.4g}" if isinstance(delta, (int, float)) else "-"
        rmse_s = f"{rmse:.4g}" if isinstance(rmse, (int, float)) else "-"
        lines.append(
            f"round {r.get('round', '?'):>4}   delta {delta_s}   "
            f"rmse {rmse_s}   alive {r.get('n_alive', '?')}   "
            f"components {r.get('n_components', '?')}   "
            f"moved {r.get('n_moved', '?')}"
        )
    else:
        lines.append("round    -   (no round events yet)")
    if state.deltas:
        lines.append(
            f"delta {_sparkline(state.deltas)}  "
            f"[{min(state.deltas):.4g} .. {max(state.deltas):.4g}]"
        )
    if state.phase_totals:
        lines.append("-- phase wall time --")
        for path in sorted(state.phase_totals):
            total = state.phase_totals[path]
            count = state.phase_counts[path]
            mean = total / count if count else 0.0
            lines.append(
                f"  {path:<24} {_fmt_seconds(total):>10}  "
                f"n={count:<6} mean {_fmt_seconds(mean)}"
            )
    if state.net_counts:
        lines.append("network: " + "  ".join(
            f"{name}={total}" for name, total in state.net_counts.items()
        ))
    return "\n".join(lines)


def watch(
    path: Union[str, Path],
    interval: float = 1.0,
    once: bool = False,
    out: Callable[[str], None] = print,
    max_frames: Optional[int] = None,
    clear: bool = False,
) -> WatchState:
    """Tail ``path`` and render the dashboard every ``interval`` seconds.

    ``once`` drains the log's current content, renders a single frame
    and returns — the scriptable/testable mode. ``max_frames`` bounds
    the number of rendered frames (``None`` = until interrupted).
    Returns the final :class:`WatchState`.
    """
    state = WatchState()
    title = str(path)
    if once:
        for row in follow(path, stop=lambda: True):
            state.feed(row)
        out(render_watch(state, title))
        return state
    frames = 0
    last_render = 0.0
    try:
        for row in follow(path, poll_interval=min(interval, 0.5)):
            state.feed(row)
            now = time.monotonic()
            if now - last_render >= interval:
                last_render = now
                frames += 1
                out(("\x1b[2J\x1b[H" if clear else "") +
                    render_watch(state, title))
                if max_frames is not None and frames >= max_frames:
                    break
    except KeyboardInterrupt:
        pass
    out(render_watch(state, title))
    return state

