"""Per-phase profiling: opt-in profiler, profile.* events, read side."""

import tracemalloc

import pytest

from repro.core.problem import OSTDProblem
from repro.fields.greenorbs import GreenOrbsLightField
from repro.obs import (
    Instrumentation,
    PhaseProfiler,
    ProfileConfig,
    format_profile,
    get_profile_config,
    summarize_profile,
    use_instrumentation,
    use_profiling,
)
from repro.sim.engine import MobileSimulation


def make_problem(duration=2.0):
    field = GreenOrbsLightField(side=50.0, seed=7, freeze_sun_at=600.0)
    return OSTDProblem(
        k=16, rc=10.0, rs=5.0, region=field.region, field=field,
        speed=1.0, t0=600.0, duration=duration,
    )


class TestAmbientConfig:
    def test_off_by_default(self):
        assert get_profile_config() is None

    def test_use_profiling_installs_and_restores(self):
        with use_profiling() as cfg:
            assert get_profile_config() is cfg
            assert cfg == ProfileConfig()
        assert get_profile_config() is None

    def test_nested_innermost_wins(self):
        outer = ProfileConfig(memory=False)
        inner = ProfileConfig(cpu=False)
        with use_profiling(outer):
            with use_profiling(inner):
                assert get_profile_config() is inner
            assert get_profile_config() is outer


class TestEngineWiring:
    def test_no_middleware_without_ambient_config(self):
        sim = MobileSimulation(make_problem(), resolution=21)
        assert sim.profiler is None

    def test_no_middleware_when_obs_disabled(self):
        # Profiling needs a bus to land on; disabled obs means no profiler
        # (and no tracemalloc cost) even inside a use_profiling region.
        with use_profiling(ProfileConfig(memory=False)):
            sim = MobileSimulation(make_problem(), resolution=21)
        assert sim.profiler is None

    def test_profiler_built_when_instrumented(self):
        with use_profiling() as cfg:
            sim = MobileSimulation(
                make_problem(), resolution=21, obs=Instrumentation.in_memory()
            )
        assert isinstance(sim.profiler, PhaseProfiler)
        assert sim.profiler.config is cfg

    def test_profiled_run_emits_events(self):
        # The default records CPU and counters; tracemalloc stays off, so
        # the profiler does not slow the phases it times.
        assert not tracemalloc.is_tracing()
        obs = Instrumentation.in_memory()
        with use_instrumentation(obs), use_profiling():
            MobileSimulation(make_problem(), resolution=21).run()
        assert not tracemalloc.is_tracing()
        names = [e.name for e in obs.memory_events()]
        assert "profile.phase" in names
        assert "profile.round" in names
        phase_rows = [
            e.fields for e in obs.memory_events()
            if e.name == "profile.phase"
        ]
        phases = {r["phase"] for r in phase_rows}
        assert {"sense", "plan", "measure"} <= phases
        sample = phase_rows[0]
        assert sample["wall_s"] >= 0.0
        assert "cpu_s" in sample
        assert "alloc_delta_b" not in sample

    def test_memory_is_opt_in(self):
        obs = Instrumentation.in_memory()
        with use_instrumentation(obs), use_profiling(ProfileConfig(memory=True)):
            MobileSimulation(make_problem(), resolution=21).run()
        assert tracemalloc.is_tracing()
        sample = next(
            e.fields for e in obs.memory_events()
            if e.name == "profile.phase"
        )
        assert "alloc_delta_b" in sample and "alloc_peak_b" in sample

    def test_round_counter_deltas_attributed(self):
        obs = Instrumentation.in_memory()
        with use_instrumentation(obs), use_profiling():
            MobileSimulation(make_problem(), resolution=21).run()
        rounds = [
            e.fields for e in obs.memory_events()
            if e.name == "profile.round"
        ]
        assert rounds
        # Per-round deltas sum to the final counter totals.
        totals = {}
        for r in rounds:
            for name, delta in r["counter_deltas"].items():
                totals[name] = totals.get(name, 0.0) + delta
        finals = {
            name: value
            for name, value in obs.metrics.snapshot().items()
            if obs.metrics.kinds().get(name) == "counter"
        }
        for name, total in totals.items():
            assert total == pytest.approx(finals[name]), name

    def test_round_reports_its_own_overhead(self):
        obs = Instrumentation.in_memory()
        with use_instrumentation(obs), use_profiling():
            MobileSimulation(make_problem(), resolution=21).run()
        rounds = [
            e.fields for e in obs.memory_events()
            if e.name == "profile.round"
        ]
        phases = [
            e.fields for e in obs.memory_events()
            if e.name == "profile.phase"
        ]
        assert rounds
        for r in rounds:
            assert 0.0 < r["overhead_s"] < r["wall_s"]
            in_round = sum(p["wall_s"] for p in phases
                           if p["round"] == r["round"])
            # The phases' windows and the profiler's bookkeeping both
            # fall inside the round's wall time.
            assert in_round < r["wall_s"]

    def test_dimensions_can_be_disabled(self):
        obs = Instrumentation.in_memory()
        cfg = ProfileConfig(cpu=False, memory=False, counters=False)
        with use_instrumentation(obs), use_profiling(cfg):
            MobileSimulation(make_problem(), resolution=21).run()
        phase_rows = [
            e.fields for e in obs.memory_events()
            if e.name == "profile.phase"
        ]
        assert phase_rows
        assert "cpu_s" not in phase_rows[0]
        assert "alloc_delta_b" not in phase_rows[0]
        round_rows = [
            e.fields for e in obs.memory_events()
            if e.name == "profile.round"
        ]
        assert "counter_deltas" not in round_rows[0]


class TestReadSide:
    def _rows(self, config=None):
        obs = Instrumentation.in_memory()
        with use_instrumentation(obs), use_profiling(config):
            MobileSimulation(make_problem(), resolution=21).run()
        return [
            {"event": e.name, "t": e.t, **e.fields}
            for e in obs.memory_events()
        ]

    def test_summarize_and_format(self):
        rows = self._rows()
        summary = summarize_profile(rows)
        assert summary.has_data
        assert summary.n_rounds == 2
        by_phase = {p.phase: p for p in summary.phases}
        assert "measure" in by_phase
        assert by_phase["measure"].count == 2
        # Sorted hottest-first by CPU.
        assert summary.phases == sorted(
            summary.phases, key=lambda p: p.cpu_s, reverse=True
        )
        text = format_profile(summary, title="t")
        assert "== profile: t ==" in text
        assert "measure" in text
        assert "rounds profiled: 2" in text
        # No allocation data without memory tracing, so no such columns.
        assert not summary.memory
        assert "alloc" not in text
        assert summary.overhead_s > 0.0
        assert summary.wall_total_s > summary.overhead_s
        share = 100.0 * summary.overhead_s / summary.wall_total_s
        assert (
            f"profiler overhead: {summary.overhead_s * 1e3:.2f} ms "
            f"({share:.2f}% of profiled wall time)"
        ) in text

    def test_logs_without_overhead_print_no_overhead_line(self):
        rows = [r for r in self._rows() if r["event"] != "profile.round"]
        rows.append({"event": "profile.round", "t": 0.0, "round": 0,
                     "cpu_s": 0.1})
        summary = summarize_profile(rows)
        assert summary.overhead_s is None
        assert "profiler overhead" not in format_profile(summary)

    def test_format_shows_allocations_when_traced(self):
        summary = summarize_profile(self._rows(ProfileConfig(memory=True)))
        assert summary.memory
        header = format_profile(summary).splitlines()[2]
        assert "alloc" in header and "peak" in header

    def test_empty_stream(self):
        summary = summarize_profile([{"event": "round", "t": 0.0}])
        assert not summary.has_data
        assert "no profile.* events" in format_profile(summary)
