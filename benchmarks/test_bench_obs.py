"""Benchmarks proving the instrumentation layer's overhead claims.

The contract (ISSUE 1): instrumentation is off by default and a disabled
``Instrumentation`` must add ≤ 2% to ``MobileSimulation.step``. A step
makes a bounded number of instrumentation touches — 10 no-op spans, a few
``enabled`` checks — so the proof is direct: measure the per-step cost of
exactly those touches, measure a real step, and bound the ratio. The
margin is orders of magnitude (microseconds vs tens of milliseconds),
so the assertion stays robust on noisy CI boxes.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro.core.problem import OSTDProblem
from repro.fields.greenorbs import GreenOrbsLightField
from repro.obs import (
    Instrumentation,
    MemorySink,
    get_instrumentation,
)
from repro.sim.engine import MobileSimulation, round_scope
from repro.sim.netmodel import NetworkModel


def make_sim(obs=None, k=100, resolution=101, **kwargs):
    field = GreenOrbsLightField(seed=7, freeze_sun_at=600.0)
    problem = OSTDProblem(
        k=k, rc=10.0, rs=5.0, region=field.region, field=field,
        speed=1.0, t0=600.0, duration=45.0,
    )
    return MobileSimulation(problem, resolution=resolution, obs=obs, **kwargs)


def noop_step_touches(sim):
    """The exact instrumentation sequence one disabled step executes:

    the engine's round frame (:func:`round_scope`: the ambient
    ``use_instrumentation`` push/pop and its ``enabled`` check), a no-op
    profiler timer around each of the eight phases, six phase spans, the
    ``read``/``fit`` spans inside ``sense``, the ``enabled`` guards of
    ``lcm``'s counters and the round event, and the reconstruction's ambient
    lookups (one in reconstruction, one in the grid evaluation) with the
    ``triangulate``, ``rasterize``, ``extrapolate`` and ``score`` spans
    inside ``reconstruct``.
    """
    obs = sim.obs
    with round_scope(sim) as timed:
        with timed("capture"):
            pass
        with obs.span("sense"), timed("sense"):
            with obs.span("read"):
                pass
            with obs.span("fit"):
                pass
        with obs.span("exchange"), timed("exchange"):
            pass
        with obs.span("plan"), timed("plan"):
            pass
        with obs.span("constrain_move"), timed("constrain_move"):
            pass
        with obs.span("lcm"), timed("lcm"):
            if obs.enabled:  # lcm's counter guard
                pass
        with timed("trace"):
            pass
        with obs.span("measure"), timed("measure"):
            with obs.span("reconstruct"):
                with obs.span("triangulate"):
                    pass
                get_instrumentation()  # evaluate_grid's ambient lookup
                with obs.span("rasterize"):
                    pass
                with obs.span("extrapolate"):
                    pass
                with obs.span("score"):
                    pass
            if obs.enabled:  # reconstruct metrics guard
                pass
    if obs.enabled:  # round-event guard
        pass


def test_disabled_overhead_below_two_percent():
    sim = make_sim()
    assert sim.obs.enabled is False
    sim.step()  # warm caches (field grids, interpolator paths)

    start = perf_counter()
    sim.step()
    step_seconds = perf_counter() - start

    n = 20_000
    start = perf_counter()
    for _ in range(n):
        noop_step_touches(sim)
    touch_seconds = (perf_counter() - start) / n

    overhead = touch_seconds / step_seconds
    assert overhead <= 0.02, (
        f"disabled instrumentation costs {touch_seconds * 1e6:.2f}µs/step, "
        f"{overhead:.2%} of a {step_seconds * 1e3:.1f}ms step "
        f"(budget: 2%)"
    )


def test_disabled_overhead_with_tracing_below_two_percent():
    """A disabled networked step's only addition for the network counts
    is ``NetworkModel.exchange``'s one ambient
    ``get_instrumentation().enabled`` check — the 2% budget must still
    hold."""
    sim = make_sim(network=NetworkModel())
    assert sim.obs.enabled is False
    sim.step()  # warm caches

    start = perf_counter()
    sim.step()
    step_seconds = perf_counter() - start

    n = 20_000
    start = perf_counter()
    for _ in range(n):
        noop_step_touches(sim)
        get_instrumentation().enabled  # the exchange's count guard
    touch_seconds = (perf_counter() - start) / n

    overhead = touch_seconds / step_seconds
    assert overhead <= 0.02, (
        f"disabled instrumentation + network count guard costs "
        f"{touch_seconds * 1e6:.2f}µs/step, {overhead:.2%} of a "
        f"{step_seconds * 1e3:.1f}ms networked step (budget: 2%)"
    )


def test_disabled_overhead_unchanged_by_profiling_layer():
    """ISSUE 8 re-assertion: with the per-phase profiler in the tree, a
    run that did not opt in pays only the engine's construction-time
    :func:`get_profile_config` lookup — no profiler is built, no
    tracemalloc is started, and the disabled-step budget still holds."""
    import tracemalloc

    from repro.obs.profile import get_profile_config

    assert get_profile_config() is None  # off unless use_profiling is active
    sim = make_sim()
    assert sim.profiler is None
    assert not tracemalloc.is_tracing()
    sim.step()  # warm caches

    start = perf_counter()
    sim.step()
    step_seconds = perf_counter() - start

    n = 20_000
    start = perf_counter()
    for _ in range(n):
        noop_step_touches(sim)
        get_profile_config()  # the construction-time lookup, amortised
    touch_seconds = (perf_counter() - start) / n

    overhead = touch_seconds / step_seconds
    assert overhead <= 0.02, (
        f"disabled instrumentation + profile lookup costs "
        f"{touch_seconds * 1e6:.2f}µs/step, {overhead:.2%} of a "
        f"{step_seconds * 1e3:.1f}ms step (budget: 2%)"
    )


def test_bench_noop_instrumentation_touches(benchmark):
    """Absolute cost of a disabled step's instrumentation touches."""
    sim = make_sim(k=25, resolution=41)
    benchmark(noop_step_touches, sim)


def test_bench_step_instrumented_memory_sink(benchmark):
    """A fully instrumented step (in-memory sink) for comparison with
    ``test_bench_cma_round`` in test_bench_micro.py."""
    obs = Instrumentation.in_memory()
    sim = make_sim(obs=obs)
    record = benchmark.pedantic(sim.step, rounds=3, iterations=1,
                                warmup_rounds=0)
    assert record.n_alive == 100
    assert any(e.name == "round" for e in obs.memory_events())


def test_bench_event_emit(benchmark):
    """Cost of one enabled emit reaching a memory sink."""
    obs = Instrumentation(sinks=[MemorySink()], enabled=True)
    benchmark(obs.emit, "tick", a=1.0, b=2)


@pytest.mark.parametrize("enabled", [False, True])
def test_bench_span_enter_exit(benchmark, enabled):
    """Span cost in both modes; the disabled one is the hot-path budget."""
    obs = (
        Instrumentation(sinks=[MemorySink()], enabled=True)
        if enabled
        else Instrumentation.disabled()
    )

    def one_span():
        with obs.span("phase"):
            pass

    benchmark(one_span)
