"""Summary statistics shared by the runner, the snapshot and compare.py.

Quartiles use :func:`statistics.quantiles` with its default (exclusive)
method, so a spread computed here equals the one any reader recomputes
from the same values with the standard library.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(n * p / 100)
    return float(ordered[int(rank) - 1])


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest ladder percentile with >= MIN_BEYOND samples beyond it.

    Returns ``(p, value)``, or ``None`` when even the lowest rung lacks
    the samples: a tail estimated from fewer is noise, not a tail.
    """
    best = None
    n = len(values)
    for p in TAIL_LADDER:
        if round(n * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:
            best = (p, percentile(values, p))
    return best


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of one metric's values."""
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}
