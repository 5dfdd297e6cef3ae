"""Cross-worker metric aggregation: N shard snapshots → one fleet view.

``run_all --processes N`` gives every
worker its own :class:`~repro.obs.metrics.MetricsRegistry`; each worker
closes its instrumentation with its *own* final ``metrics`` event. The
merged run log then carries N disjoint snapshots, and "how many beacons
did the fleet send" has no single answer in the log. This module merges
those snapshots into one rollup with per-kind semantics:

* **counter** — sum across shards (counts add);
* **gauge** — last write wins, in shard order (matches what a single
  process would have ended with);
* **summary** — ``count``/``total`` sum exactly, ``min``/``max`` are
  the extrema, ``mean`` is recomputed as ``total/count`` (exact);
  quantiles cannot be merged exactly from snapshots, so ``p50``/``p95``
  are count-weighted averages, flagged approximate by construction.

Counter totals merged this way are **bitwise-consistent** with the
single-process run whenever increments are integral (they are: message
counts, move counts) — so a multi-process run's totals can be checked
against a single-process run of the same work.

Kind information travels in the ``metrics`` event's ``kinds`` field
(written by :meth:`Instrumentation.close` since this module landed).
Logs that predate it still merge: dict-valued entries are summaries,
and scalars default to counter (sum) semantics — the dominant scalar
kind in this codebase — unless a ``kinds`` override says otherwise.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "aggregate_metrics_events",
    "aggregate_run_log",
    "merge_snapshots",
    "merge_summary_parts",
]


def merge_summary_parts(parts: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Merge summary-snapshot dicts (``{count,total,mean,min,max,p50,p95}``).

    ``count``/``total``/``min``/``max``/``mean`` are exact; quantiles are
    count-weighted averages of the per-shard quantiles (the best estimate
    a snapshot permits — the raw samples are gone).
    """
    count = int(sum(int(p.get("count", 0)) for p in parts))
    total = float(sum(float(p.get("total", 0.0)) for p in parts))
    nonempty = [p for p in parts if int(p.get("count", 0)) > 0]
    if nonempty:
        lo = min(float(p.get("min", 0.0)) for p in nonempty)
        hi = max(float(p.get("max", 0.0)) for p in nonempty)
    else:
        lo = hi = 0.0

    def weighted(key: str) -> float:
        if count == 0:
            return 0.0
        return sum(
            float(p.get(key, 0.0)) * int(p.get("count", 0)) for p in nonempty
        ) / count

    return {
        "count": count,
        "total": total,
        "mean": (total / count) if count else 0.0,
        "min": lo,
        "max": hi,
        "p50": weighted("p50"),
        "p95": weighted("p95"),
    }


def merge_snapshots(
    snapshots: Sequence[Dict[str, Any]],
    kinds: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """Merge per-worker registry snapshots into one fleet-level snapshot.

    ``snapshots`` are what :meth:`MetricsRegistry.snapshot` returns, in
    shard order (registration order for the harness pool — the order a
    sequential run would have seen). ``kinds`` maps metric names to
    ``"counter"``/``"gauge"``/``"summary"``; names absent from it fall
    back to shape-based defaults (dict → summary, scalar → counter).
    Metric name sets may be disjoint across shards — a metric missing
    from a shard simply contributes nothing.
    """
    kinds = kinds or {}
    merged: Dict[str, Any] = {}
    names: List[str] = []
    seen = set()
    for snap in snapshots:
        for name in snap:
            if name not in seen:
                seen.add(name)
                names.append(name)
    for name in sorted(names):
        values = [snap[name] for snap in snapshots if name in snap]
        kind = kinds.get(name)
        if kind is None:
            kind = "summary" if isinstance(values[0], dict) else "counter"
        if kind == "summary":
            merged[name] = merge_summary_parts(
                [v for v in values if isinstance(v, dict)]
            )
        elif kind == "gauge":
            merged[name] = float(values[-1])
        else:  # counter
            merged[name] = float(sum(float(v) for v in values))
    return merged


def _merge_kind_maps(rows: Sequence[Dict[str, Any]]) -> Dict[str, str]:
    kinds: Dict[str, str] = {}
    for row in rows:
        for name, kind in (row.get("kinds") or {}).items():
            kinds[str(name)] = str(kind)
    return kinds


def aggregate_metrics_events(
    rows: Iterable[Dict[str, Any]],
) -> Tuple[Dict[str, Any], int]:
    """Merge every ``metrics`` event in an event stream into one rollup.

    Returns ``(merged_snapshot, n_snapshots)``. Snapshots already marked
    ``aggregated`` (a previous rollup written back into the log) are
    skipped so re-aggregating a merged log is idempotent rather than
    double-counting.
    """
    metric_rows = [
        r for r in rows
        if r.get("event") == "metrics" and not r.get("aggregated")
    ]
    snapshots = [r.get("snapshot") or {} for r in metric_rows]
    snapshots = [s for s in snapshots if s]
    kinds = _merge_kind_maps(metric_rows)
    return merge_snapshots(snapshots, kinds=kinds), len(snapshots)


def aggregate_run_log(
    path: Union[str, Path],
) -> Tuple[Dict[str, Any], int]:
    """Load a JSONL run log and aggregate its ``metrics`` events."""
    from repro.obs.report import load_run_log

    return aggregate_metrics_events(load_run_log(path))
