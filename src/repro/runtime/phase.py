"""The :class:`Phase` protocol and the per-round scratch context.

A phase is one composable unit of a simulation round — "sense",
"exchange", "plan", ... Each phase reads and writes the shared
:class:`RoundContext` and mutates engine state through the engine it was
bound to at construction. The :class:`~repro.runtime.scheduler.Scheduler`
drives a phase sequence in order, letting middleware wrap each phase
(observability spans) without the phases knowing.

Phases declare a ``name`` (stable identifier, used in logs and tests) and
a ``span_name`` — the observability span to open around the phase, or
``None`` for phases that historically ran un-spanned (the trace-sampling
step between LCM and measure). Keeping ``span_name`` separate preserves
the exact event stream the pre-runtime engines emitted.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, runtime_checkable

__all__ = ["Phase", "RoundContext"]


class RoundContext:
    """Scratch space one round's phases communicate through.

    ``engine`` is the owning facade (phases reach durable state through
    it); ``record`` is set by the measuring phase and is what the
    scheduler returns; everything else phases need to hand each other
    lives in typed attributes of an engine-specific slotted subclass.
    """

    __slots__ = ("engine", "record")

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self.record: Any = None


@runtime_checkable
class Phase(Protocol):
    """One unit of the round pipeline."""

    #: Stable phase identifier.
    name: str
    #: Observability span to open around :meth:`run` (None = no span).
    span_name: Optional[str]

    def run(self, ctx: RoundContext) -> None:
        """Execute the phase against the shared round context."""
        ...
