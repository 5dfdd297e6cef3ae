"""Cross-cutting round-loop concerns as scheduler middleware.

The pre-runtime engines wired observability spans, failure injection and
recorder dispatch inline into their round loops — twice, once per engine.
Here each concern is one :class:`Middleware` the
:class:`~repro.runtime.scheduler.Scheduler` threads through every round:

* :class:`ObsMiddleware` — the ``step`` span around the round, one span
  per phase, and the per-round ``round`` event + metrics after the round;
* :class:`FailureInjectionMiddleware` — scheduled node deaths and
  energy-budget exhaustion at the start of the round (the old "phase 0");
* :class:`RecorderMiddleware` — fan the finished record out to the
  engine's :class:`~repro.sim.recorders.Recorder` list.

Hook order matters and mirrors the original inline code: ``around_round``
context managers enclose ``on_round_start`` hooks and every phase;
``on_round_end`` hooks run *after* the round span has closed, in
middleware order (obs before recorders, so the ``round`` event precedes
any recorder side effects, exactly as before).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, ContextManager, Optional

import numpy as np

from repro.runtime.phase import Phase, RoundContext

__all__ = [
    "Middleware",
    "ObsMiddleware",
    "FailureInjectionMiddleware",
    "RecorderMiddleware",
]

_NULL = nullcontext()


class Middleware:
    """Base middleware: every hook is a no-op; override what you need."""

    def around_round(self, ctx: RoundContext) -> ContextManager:
        """Context manager enclosing the whole round (phases + start hooks)."""
        return _NULL

    def on_round_start(self, ctx: RoundContext) -> None:
        """Runs inside ``around_round``, before the first phase."""

    def around_phase(self, phase: Phase, ctx: RoundContext) -> ContextManager:
        """Context manager enclosing one phase's ``run``."""
        return _NULL

    def on_round_end(self, ctx: RoundContext, record: Any) -> None:
        """Runs after ``around_round`` has exited, with the round's record."""


class ObsMiddleware(Middleware):
    """Observability spans + the per-round event, as the engine emitted them.

    Reads ``engine.obs`` dynamically (not captured at construction) so an
    instrumentation swapped onto the facade after construction is
    honoured, matching the old ``self.obs`` lookups in ``step()``.
    ``record_event`` is the engine-specific publisher for the finished
    record (the mobile engine passes
    :func:`repro.sim.recorders.record_round`); engines without a
    round-event schema pass ``None``.
    """

    def __init__(self, engine: Any, record_event=None) -> None:
        self._engine = engine
        self._record_event = record_event

    def around_round(self, ctx: RoundContext) -> ContextManager:
        obs = self._engine.obs
        if not obs.enabled:
            return obs.span("step")  # the shared no-op span
        return self._traced_round(obs)

    @contextmanager
    def _traced_round(self, obs):
        """The ``step`` span with the round index threaded onto every span.

        ``push_context(round=N)`` stamps the engine's current round onto
        each ``span`` event emitted inside the round — the trace context
        that lets the exporter and differ line phase timings up with the
        ``round`` and ``msg_*`` events without timestamp matching.
        """
        previous = obs.timer.push_context(round=self._engine.round_index)
        try:
            with obs.span("step"):
                yield
        finally:
            obs.timer.pop_context(previous)

    def around_phase(self, phase: Phase, ctx: RoundContext) -> ContextManager:
        if phase.span_name is None:
            return _NULL
        return self._engine.obs.span(phase.span_name)

    def on_round_end(self, ctx: RoundContext, record: Any) -> None:
        obs = self._engine.obs
        if self._record_event is not None and obs.enabled:
            self._record_event(obs, record)


class FailureInjectionMiddleware(Middleware):
    """Node-level fault injection at the start of each round.

    Fires inside the round span (it was the round's "phase 0" before the
    refactor), in a fixed order so the injected fault sequence — and
    with it every RNG stream — is deterministic:

    1. scheduled permanent deaths (``failure_schedule``),
    2. transient crash/recovery (``crash_model`` — a
       :class:`~repro.sim.netmodel.churn.CrashSchedule` or
       :class:`~repro.sim.netmodel.churn.RandomChurn`),
    3. energy depletion (``energy_model``), then the legacy
       movement-distance ``energy_budget``.

    Reads every model off the engine each round so a facade
    reconfigured between rounds behaves as it always did.
    """

    def __init__(self, engine: Any) -> None:
        self._engine = engine

    def on_round_start(self, ctx: RoundContext) -> None:
        engine = self._engine
        state = engine.state
        schedule = getattr(engine, "failure_schedule", None)
        if schedule is not None:
            for node_id in schedule.failures_due(engine.t):
                if 0 <= node_id < state.k:
                    state.kill(node_id, engine.t)
        crash_model = getattr(engine, "crash_model", None)
        if crash_model is not None:
            crash_model.step(engine.t, engine.round_index, state)
        energy_model = getattr(engine, "energy_model", None)
        if energy_model is not None:
            energy_model.step(engine.t, engine.round_index, state)
        budget = getattr(engine, "energy_budget", None)
        if budget is not None:
            spent = state.alive & (state.distance_travelled >= budget)
            state.kill(np.flatnonzero(spent), engine.t)


class RecorderMiddleware(Middleware):
    """Dispatch each finished record to the engine's recorder list."""

    def __init__(self, engine: Any) -> None:
        self._engine = engine

    def on_round_end(self, ctx: RoundContext, record: Any) -> None:
        for recorder in self._engine.recorders:
            recorder.on_round(record)
