"""Host calibration: a fixed kernel that measures how fast this host is now.

The speed of a shared host drifts, in bursts lasting a few seconds, so
a raw wall time is not comparable across runs. The workloads time
:func:`kernel` (about 2 ms) in the same process before their first
segment and after every segment (a CMA round, one k of the FRA sweep).
A segment's time is reported as ``raw * CAL_REF_MS / cal_now_ms``,
with ``cal_now_ms`` the mean of the kernel timings on either side of
it: the time the segment would have taken on a host where the kernel
takes ``CAL_REF_MS``.

The kernel mixes the two kinds of work the program does: small-array
NumPy calls and pure-Python dict/float loops. It imports nothing from
the program, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List, Sequence, Tuple

import numpy as np

#: Median kernel time (ms) on the reference host the snapshot was taken on.
CAL_REF_MS = 2.14


def kernel() -> float:
    """About 2 ms of mixed NumPy and interpreter work; returns a checksum."""
    rng = np.random.default_rng(12345)
    pts = rng.random((64, 2))
    acc = 0.0
    for _ in range(12):
        d = pts[:, None, :] - pts[None, :, :]
        r = np.sqrt((d * d).sum(axis=2))
        acc += float(np.sort(r, axis=1)[:, 1].sum())
    table: dict = {}
    for i in range(1300):
        key = i % 97
        table[key] = table.get(key, 0.0) + (i * 0.5) ** 0.5
    return acc + sum(table.values())


def sample() -> float:
    """One kernel timing in milliseconds."""
    t0 = perf_counter()
    kernel()
    return (perf_counter() - t0) * 1e3


def calibrated(raw: float, cal_ms: float) -> float:
    """``raw`` (any time unit) in reference-host units of the same unit."""
    if cal_ms <= 0:
        raise ValueError(f"calibration time must be positive, got {cal_ms}")
    return raw * CAL_REF_MS / cal_ms


def calibrate_steps(segments_s: Sequence[float], cal_ms: Sequence[float],
                    wall_s: float, per_step: int = 1
                    ) -> Tuple[List[float], float]:
    """Calibrated step times and whole-repetition time, in seconds.

    ``cal_ms`` holds one kernel timing before the first segment and one
    after each; a step is ``per_step`` consecutive segments. Time outside
    the segments (building the engine, say) is calibrated with the
    repetition's median kernel timing.
    """
    if len(cal_ms) != len(segments_s) + 1:
        raise ValueError(f"{len(segments_s)} segments need "
                         f"{len(segments_s) + 1} kernel timings, got {len(cal_ms)}")
    segments = [calibrated(s, (cal_ms[i] + cal_ms[i + 1]) / 2)
                for i, s in enumerate(segments_s)]
    steps = [sum(segments[i:i + per_step])
             for i in range(0, len(segments), per_step)]
    rest = max(wall_s - sum(segments_s), 0.0)
    return steps, sum(segments) + calibrated(rest, statistics.median(cal_ms))
