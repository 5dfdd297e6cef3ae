"""Per-phase profiling: where inside a round the CPU and memory go.

The obs layer's span events answer "how long did the sense phase take";
they cannot say whether that time was CPU or blocking, how much memory
the phase allocated, or which phase drove the ``geom.*``/``net.*``
counters. :class:`PhaseProfiler` is an opt-in per-engine recorder that
the engines enter around each round and each phase; it records, per
phase and per round:

* **CPU time** — ``time.process_time`` deltas (user+system of this
  process), so a phase that sleeps shows wall > cpu;
* **allocation deltas** — net allocated bytes and the phase's peak,
  from :mod:`tracemalloc`, only when ``ProfileConfig(memory=True)``
  asks for them (``--profile=mem``). Its bookkeeping slows every
  allocation several-fold, so it would inflate the very times the
  profiler records; a bare ``--profile`` leaves it off;
* **counter deltas** — per-round deltas of every scalar counter in the
  engine's metrics registry, attributing ``net.sent`` or
  ``geom.pairs_checked`` growth to the round that caused it.
* **its own cost** — each round's wall time and ``overhead_s``, the
  ``perf_counter`` time the profiler spent on its clock, counter and
  tracemalloc reads and its emits, so a summary shows how much the
  profiling itself added to the times it reports.

Emitted as ``profile.phase`` / ``profile.round`` events on the normal
bus, so they land in the same JSONL log, survive shard merging, and are
summarised offline by :func:`summarize_profile` — no new file formats.

Cost discipline: profiling is **off unless requested**. The engines
consult :func:`get_profile_config` once, at construction; when no
ambient config is installed no profiler is built and a run pays
nothing — the ≤2% disabled-instrumentation budget pinned in
``benchmarks/test_bench_obs.py`` is untouched. Turn it on with::

    with use_profiling():
        MobileSimulation(problem, obs=obs).run()

or ``repro-exp run fig10 --profile --obs-log run.jsonl`` (CPU and
counters) and ``--profile=mem`` (allocations too).
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, Iterable, Iterator, List, Optional

__all__ = [
    "PhaseProfile",
    "PhaseProfiler",
    "ProfileConfig",
    "ProfileSummary",
    "format_profile",
    "get_profile_config",
    "summarize_profile",
    "use_profiling",
]


@dataclass(frozen=True)
class ProfileConfig:
    """What the profiler records.

    CPU time and counter deltas default on. ``memory`` (tracemalloc) is
    opt-in: tracing allocations slows the phases it measures.
    """

    cpu: bool = True
    memory: bool = False
    counters: bool = True


_current: List[ProfileConfig] = []


def get_profile_config() -> Optional[ProfileConfig]:
    """The ambient profile config, or ``None`` when profiling is off."""
    return _current[-1] if _current else None


@contextmanager
def use_profiling(
    config: Optional[ProfileConfig] = None,
) -> Iterator[ProfileConfig]:
    """Install an ambient :class:`ProfileConfig` for a code region.

    Engines constructed inside the region build a :class:`PhaseProfiler`
    (when their instrumentation is enabled — profile events need a bus
    to land on).
    """
    cfg = config if config is not None else ProfileConfig()
    _current.append(cfg)
    try:
        yield cfg
    finally:
        _current.pop()


class PhaseProfiler:
    """Emits ``profile.*`` events for one engine's rounds (see module doc).

    The engine enters :meth:`round` inside its ``step`` span and
    :meth:`phase` inside each phase's span, so the measured window is
    the phase body, not the span bookkeeping around it. Both read
    ``engine.obs`` and ``engine.round_index`` when they run.
    """

    def __init__(
        self,
        engine: Any,
        config: Optional[ProfileConfig] = None,
    ) -> None:
        self._engine = engine
        self.config = config if config is not None else ProfileConfig()
        if self.config.memory and not tracemalloc.is_tracing():
            tracemalloc.start()
        # Wall time of this profiler's own bookkeeping (clock, counter
        # and tracemalloc reads, emits) not yet reported in a round.
        self._overhead_s = 0.0

    def _scalar_counters(self) -> Dict[str, float]:
        registry = self._engine.obs.metrics
        kinds = registry.kinds()
        snap: Dict[str, float] = {}
        for name, kind in kinds.items():
            if kind == "counter":
                snap[name] = float(registry.counter(name).value)
        return snap

    @contextmanager
    def round(self) -> Iterator[None]:
        """Time one round; emits ``profile.round`` when it ends.

        ``wall_s`` is the round's wall time, bookkeeping included, and
        ``overhead_s`` the part of it the profiler spent on itself (the
        previous ``profile.round`` emit counts towards this round).
        """
        start = time.perf_counter()
        round_index = self._engine.round_index
        counters0 = self._scalar_counters() if self.config.counters else {}
        cpu0 = time.process_time() if self.config.cpu else 0.0
        self._overhead_s += time.perf_counter() - start
        try:
            yield
        finally:
            end = time.perf_counter()
            fields: Dict[str, Any] = {"round": round_index}
            if self.config.cpu:
                fields["cpu_s"] = time.process_time() - cpu0
            if self.config.counters:
                after = self._scalar_counters()
                fields["counter_deltas"] = {
                    name: after[name] - counters0.get(name, 0.0)
                    for name in after
                    if after[name] != counters0.get(name, 0.0)
                }
            before_emit = time.perf_counter()
            fields["wall_s"] = before_emit - start
            fields["overhead_s"] = self._overhead_s + (before_emit - end)
            self._engine.obs.emit("profile.round", **fields)
            self._overhead_s = time.perf_counter() - before_emit

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one phase; emits ``profile.phase`` when it ends."""
        start = time.perf_counter()
        mem = self.config.memory and tracemalloc.is_tracing()
        if mem:
            tracemalloc.reset_peak()
            alloc0, _ = tracemalloc.get_traced_memory()
        cpu0 = time.process_time() if self.config.cpu else 0.0
        wall0 = time.perf_counter()
        self._overhead_s += wall0 - start
        try:
            yield
        finally:
            wall1 = time.perf_counter()
            fields: Dict[str, Any] = {
                "phase": name,
                "round": self._engine.round_index,
                "wall_s": wall1 - wall0,
            }
            if self.config.cpu:
                fields["cpu_s"] = time.process_time() - cpu0
            if mem:
                alloc1, peak = tracemalloc.get_traced_memory()
                fields["alloc_delta_b"] = alloc1 - alloc0
                fields["alloc_peak_b"] = max(0, peak - alloc0)
            self._engine.obs.emit("profile.phase", **fields)
            self._overhead_s += time.perf_counter() - wall1


# ----------------------------------------------------------------------
# Offline summarisation (the read side, log-only like obs.report)


@dataclass
class PhaseProfile:
    """Aggregated profile of one phase across every round."""

    phase: str
    count: int = 0
    cpu_s: float = 0.0
    wall_s: float = 0.0
    alloc_delta_b: int = 0
    alloc_peak_b: int = 0

    @property
    def cpu_mean_s(self) -> float:
        return self.cpu_s / self.count if self.count else 0.0


@dataclass
class ProfileSummary:
    """Everything :func:`summarize_profile` extracts from profile events."""

    phases: List[PhaseProfile] = dataclass_field(default_factory=list)
    n_rounds: int = 0
    cpu_total_s: float = 0.0
    counter_totals: Dict[str, float] = dataclass_field(default_factory=dict)
    #: Whether any phase row carried allocation fields (``--profile=mem``).
    memory: bool = False
    #: The profiler's own bookkeeping and the rounds' wall time, summed
    #: over the rounds that report them (``None`` when none does).
    overhead_s: Optional[float] = None
    wall_total_s: float = 0.0

    @property
    def has_data(self) -> bool:
        return bool(self.phases) or self.n_rounds > 0


def summarize_profile(rows: Iterable[Dict[str, Any]]) -> ProfileSummary:
    """Aggregate ``profile.*`` events from an event-dict stream."""
    summary = ProfileSummary()
    by_phase: Dict[str, PhaseProfile] = {}
    for row in rows:
        name = row.get("event")
        if name == "profile.phase":
            phase = str(row.get("phase", "?"))
            agg = by_phase.setdefault(phase, PhaseProfile(phase=phase))
            agg.count += 1
            agg.cpu_s += float(row.get("cpu_s", 0.0))
            agg.wall_s += float(row.get("wall_s", 0.0))
            summary.memory = summary.memory or "alloc_delta_b" in row
            agg.alloc_delta_b += int(row.get("alloc_delta_b", 0) or 0)
            agg.alloc_peak_b = max(
                agg.alloc_peak_b, int(row.get("alloc_peak_b", 0) or 0)
            )
        elif name == "profile.round":
            summary.n_rounds += 1
            summary.cpu_total_s += float(row.get("cpu_s", 0.0))
            if "overhead_s" in row:
                summary.overhead_s = (
                    (summary.overhead_s or 0.0) + float(row["overhead_s"])
                )
                summary.wall_total_s += float(row.get("wall_s", 0.0))
            for cname, delta in (row.get("counter_deltas") or {}).items():
                summary.counter_totals[str(cname)] = (
                    summary.counter_totals.get(str(cname), 0.0)
                    + float(delta)
                )
    summary.phases = sorted(
        by_phase.values(), key=lambda p: p.cpu_s, reverse=True
    )
    return summary


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return f"{value:+.1f}{unit}" if unit == "B" else f"{value:+.2f}{unit}"
        value /= 1024.0
    return f"{value:+.2f}GiB"  # pragma: no cover - loop always returns


def _fmt_seconds(s: float) -> str:
    return f"{s * 1e3:.2f}ms" if s < 1.0 else f"{s:.2f}s"


def format_profile(summary: ProfileSummary, title: str = "run") -> str:
    """Render the per-phase CPU / allocation table for the terminal."""
    lines = [f"== profile: {title} =="]
    if not summary.has_data:
        lines.append("(no profile.* events — run with --profile)")
        return "\n".join(lines)
    lines.append(
        f"rounds profiled: {summary.n_rounds}   "
        f"cpu total: {_fmt_seconds(summary.cpu_total_s)}"
    )
    if summary.phases:
        width = max(len(p.phase) for p in summary.phases) + 2
        mem = summary.memory
        lines.append(
            f"{'phase'.ljust(width)}{'cpu':>10}{'wall':>10}{'cpu/round':>12}"
            + (f"{'alloc':>12}{'peak':>12}" if mem else "")
            + f"{'n':>7}"
        )
        for p in summary.phases:
            lines.append(
                f"{p.phase.ljust(width)}"
                f"{_fmt_seconds(p.cpu_s):>10}"
                f"{_fmt_seconds(p.wall_s):>10}"
                f"{_fmt_seconds(p.cpu_mean_s):>12}"
                + (
                    f"{_fmt_bytes(p.alloc_delta_b):>12}"
                    f"{_fmt_bytes(p.alloc_peak_b):>12}"
                    if mem else ""
                )
                + f"{p.count:>7}"
            )
    if summary.overhead_s is not None:
        share = (
            100.0 * summary.overhead_s / summary.wall_total_s
            if summary.wall_total_s > 0 else 0.0
        )
        lines.append(
            f"profiler overhead: {summary.overhead_s * 1e3:.2f} ms "
            f"({share:.2f}% of profiled wall time)"
        )
    if summary.counter_totals:
        lines.append("-- counter deltas over profiled rounds --")
        for name in sorted(summary.counter_totals):
            lines.append(f"  {name}: {summary.counter_totals[name]:g}")
    return "\n".join(lines)
