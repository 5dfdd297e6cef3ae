"""Run diffing: align two run logs, find the first divergence.

Checking that two runs of one scenario (a resumed run against an
uninterrupted one, a traced run against an untraced one, a refactor
against its parent) are bit-identical needs more than a yes or no:
when they differ, the useful answer is not "the final δ differs" but
"**round 17** is the first divergent round, and the first divergent
*event* is the
``msg_deliver`` at index 2041". That localisation is what
``repro-exp obs diff A B`` does, entirely from the two JSONL logs:

* **round alignment** — ``round`` events are matched by round index and
  compared field by field (wall-clock fields ignored; float fields
  compared exactly by default, with an optional tolerance for
  cross-platform comparisons);
* **event alignment** — the deterministic event sequence (everything
  except pure-timing payloads: ``span``, ``metrics``, ``profile.*``) is
  compared
  position by position to find the first divergent event, which usually
  sits *earlier* than the first divergent round and names the phase or
  message where the runs forked;
* **phase-time deltas** — per-phase wall-time totals from both logs,
  reported side by side. Timing is never part of the divergence verdict
  (wall clocks differ run to run by construction); it is reported for
  the perf question ("where did run B get slower?").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.report import load_run_log

__all__ = [
    "FieldDivergence",
    "EventDivergence",
    "PhaseDelta",
    "RunDiff",
    "diff_runs",
    "diff_run_logs",
    "format_diff",
]

#: Payload keys that are timing/wall-clock, never determinism.
_TIME_KEYS = frozenset({"t", "dur_s"})

#: Event kinds whose payloads are pure timing or aggregation — excluded
#: from the deterministic event-sequence comparison. ``profile.*``
#: events are CPU/allocation measurements, and ``log_warning`` records a
#: shard-merge repair — none of it is determinism.
_TIMING_EVENTS = frozenset({
    "span", "metrics", "profile.phase", "profile.round", "log_warning",
})


@dataclass(frozen=True)
class FieldDivergence:
    """First differing field of the first divergent round."""

    round: int
    field: str
    value_a: Any
    value_b: Any


@dataclass(frozen=True)
class EventDivergence:
    """First position where the deterministic event sequences differ."""

    index: int
    event_a: Optional[Dict[str, Any]]
    event_b: Optional[Dict[str, Any]]

    @property
    def kind(self) -> str:
        a = self.event_a.get("event") if self.event_a else "<end>"
        b = self.event_b.get("event") if self.event_b else "<end>"
        return a if a == b else f"{a} vs {b}"


@dataclass(frozen=True)
class PhaseDelta:
    """One phase's wall-time totals in both runs."""

    path: str
    total_a: float
    total_b: float

    @property
    def pct(self) -> float:
        if self.total_a <= 0.0:
            return float("inf") if self.total_b > 0.0 else 0.0
        return (self.total_b / self.total_a - 1.0) * 100.0


@dataclass
class RunDiff:
    """Everything :func:`diff_runs` finds between two logs."""

    n_rounds_a: int
    n_rounds_b: int
    first_divergent_round: Optional[FieldDivergence] = None
    first_divergent_event: Optional[EventDivergence] = None
    phase_deltas: List[PhaseDelta] = dataclass_field(default_factory=list)

    @property
    def identical(self) -> bool:
        """True when the deterministic content of the runs matches."""
        return (
            self.first_divergent_round is None
            and self.first_divergent_event is None
            and self.n_rounds_a == self.n_rounds_b
        )


def _values_differ(a: Any, b: Any, rtol: float, atol: float) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        try:
            fa, fb = float(a), float(b)
        except (TypeError, ValueError):
            return a != b
        if math.isnan(fa) and math.isnan(fb):
            return False
        if rtol == 0.0 and atol == 0.0:
            return fa != fb
        return not math.isclose(fa, fb, rel_tol=rtol, abs_tol=atol)
    return a != b


def _payload(row: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in row.items() if k not in _TIME_KEYS}


def _first_round_divergence(
    rounds_a: List[Dict[str, Any]],
    rounds_b: List[Dict[str, Any]],
    rtol: float,
    atol: float,
) -> Optional[FieldDivergence]:
    by_round_b = {int(r.get("round", i)): r
                  for i, r in enumerate(rounds_b)}
    for i, row_a in enumerate(rounds_a):
        rnd = int(row_a.get("round", i))
        row_b = by_round_b.get(rnd)
        if row_b is None:
            return FieldDivergence(
                round=rnd, field="<missing round>",
                value_a="present", value_b="absent",
            )
        keys = sorted(
            (set(_payload(row_a)) | set(_payload(row_b))) - {"event"}
        )
        for key in keys:
            va, vb = row_a.get(key), row_b.get(key)
            if _values_differ(va, vb, rtol, atol):
                return FieldDivergence(
                    round=rnd, field=key, value_a=va, value_b=vb
                )
    return None


def _first_event_divergence(
    events_a: List[Dict[str, Any]],
    events_b: List[Dict[str, Any]],
    rtol: float,
    atol: float,
) -> Optional[EventDivergence]:
    det_a = [r for r in events_a
             if r.get("event") not in _TIMING_EVENTS]
    det_b = [r for r in events_b
             if r.get("event") not in _TIMING_EVENTS]
    for i in range(max(len(det_a), len(det_b))):
        row_a = det_a[i] if i < len(det_a) else None
        row_b = det_b[i] if i < len(det_b) else None
        if row_a is None or row_b is None:
            return EventDivergence(index=i, event_a=row_a, event_b=row_b)
        pa, pb = _payload(row_a), _payload(row_b)
        if set(pa) != set(pb) or any(
            _values_differ(pa[k], pb[k], rtol, atol) for k in pa
        ):
            return EventDivergence(index=i, event_a=row_a, event_b=row_b)
    return None


def _phase_totals(events: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for row in events:
        if row.get("event") != "span":
            continue
        path = str(row.get("path", row.get("phase", "?")))
        totals[path] = totals.get(path, 0.0) + float(row.get("dur_s", 0.0))
    return totals


def diff_runs(
    events_a: Iterable[Dict[str, Any]],
    events_b: Iterable[Dict[str, Any]],
    rtol: float = 0.0,
    atol: float = 0.0,
) -> RunDiff:
    """Diff two event-dict streams (see module docstring).

    The default tolerances demand *bit-identical* numeric fields — the
    contract of a same-behaviour refactor. Pass ``rtol``/``atol`` to compare
    runs across platforms or after numerically benign refactors.
    """
    a = list(events_a)
    b = list(events_b)
    rounds_a = [r for r in a if r.get("event") == "round"]
    rounds_b = [r for r in b if r.get("event") == "round"]
    diff = RunDiff(n_rounds_a=len(rounds_a), n_rounds_b=len(rounds_b))
    diff.first_divergent_round = _first_round_divergence(
        rounds_a, rounds_b, rtol, atol
    )
    diff.first_divergent_event = _first_event_divergence(a, b, rtol, atol)
    totals_a = _phase_totals(a)
    totals_b = _phase_totals(b)
    diff.phase_deltas = [
        PhaseDelta(
            path=path,
            total_a=totals_a.get(path, 0.0),
            total_b=totals_b.get(path, 0.0),
        )
        for path in sorted(set(totals_a) | set(totals_b))
    ]
    return diff


def diff_run_logs(
    path_a: Union[str, Path],
    path_b: Union[str, Path],
    rtol: float = 0.0,
    atol: float = 0.0,
) -> RunDiff:
    """Load and diff two JSONL run logs."""
    return diff_runs(
        load_run_log(path_a), load_run_log(path_b), rtol=rtol, atol=atol
    )


def _fmt_seconds(s: float) -> str:
    return f"{s * 1e3:.2f}ms" if s < 1.0 else f"{s:.2f}s"


def format_diff(
    diff: RunDiff, title_a: str = "A", title_b: str = "B"
) -> str:
    """Render a :class:`RunDiff` for the terminal."""
    lines = [f"== obs diff: {title_a} vs {title_b} =="]
    lines.append(
        f"rounds: {diff.n_rounds_a} vs {diff.n_rounds_b}"
        + ("" if diff.n_rounds_a == diff.n_rounds_b else "  (LENGTH DIFFERS)")
    )
    if diff.identical:
        lines.append("runs are identical on all deterministic fields")
    if diff.first_divergent_round is not None:
        d = diff.first_divergent_round
        lines.append(
            f"first divergent round: {d.round}  field {d.field!r}: "
            f"{d.value_a!r} vs {d.value_b!r}"
        )
    if diff.first_divergent_event is not None:
        e = diff.first_divergent_event
        lines.append(
            f"first divergent event: #{e.index} ({e.kind})"
        )
        for label, row in ((title_a, e.event_a), (title_b, e.event_b)):
            if row is None:
                lines.append(f"  {label}: <stream ended>")
            else:
                payload = {k: v for k, v in row.items() if k != "t"}
                lines.append(f"  {label}: {payload}")
    if diff.phase_deltas:
        lines.append("-- phase wall time (informational, never divergence) --")
        width = max(len(p.path) for p in diff.phase_deltas) + 2
        lines.append(
            f"{'phase'.ljust(width)}{title_a:>12}{title_b:>12}  change"
        )
        for p in diff.phase_deltas:
            lines.append(
                f"{p.path.ljust(width)}"
                f"{_fmt_seconds(p.total_a):>12}"
                f"{_fmt_seconds(p.total_b):>12}"
                f"  {p.pct:+7.1f}%"
            )
    return "\n".join(lines)
