"""The scheduler: drive a phase sequence, thread middleware through it.

One :meth:`Scheduler.run_round` call is one simulation round: enter every
middleware's ``around_round`` context, fire ``on_round_start`` hooks,
execute each phase inside its ``around_phase`` contexts, exit the round
contexts, fire ``on_round_end`` with the finished record, then advance
the engine clock. The scheduler knows nothing about CMA, radios or
fields — both engines (and any future controller, e.g. a
coverage-control iteration) drive their rounds through this one loop.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.runtime.middleware import Middleware
from repro.runtime.phase import Phase, RoundContext

__all__ = ["Scheduler"]


class Scheduler:
    """Run phase pipelines round by round.

    Parameters
    ----------
    phases:
        The ordered phase sequence of one round.
    middleware:
        Cross-cutting hooks (see :mod:`repro.runtime.middleware`), applied
        in list order.
    advance:
        Called once per round after the end hooks — the engine's clock
        tick (``t += dt; round_index += 1``). Optional so partial rounds
        can be driven in tests without touching the clock.
    """

    def __init__(
        self,
        phases: Sequence[Phase],
        middleware: Iterable[Middleware] = (),
        advance: Optional[Callable[[RoundContext], None]] = None,
    ) -> None:
        self.phases = list(phases)
        self.middleware = list(middleware)
        self.advance = advance

    def run_round(self, ctx: RoundContext) -> Any:
        """Execute one full round; returns the round's record."""
        with ExitStack() as round_stack:
            for mw in self.middleware:
                round_stack.enter_context(mw.around_round(ctx))
            for mw in self.middleware:
                mw.on_round_start(ctx)
            for phase in self.phases:
                with ExitStack() as phase_stack:
                    for mw in self.middleware:
                        phase_stack.enter_context(mw.around_phase(phase, ctx))
                    phase.run(ctx)
        record = ctx.record
        for mw in self.middleware:
            mw.on_round_end(ctx, record)
        if self.advance is not None:
            self.advance(ctx)
        return record
