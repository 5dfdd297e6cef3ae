"""Nestable phase timers built on ``perf_counter``.

A *span* brackets one phase of work. Spans nest: entering ``sense``
while ``step`` is open produces the path ``step/sense``, so a run log
groups naturally into a phase tree. On exit each span

* observes its duration in the registry summary ``span.<path>``, and
* emits a ``span`` event (``phase``, ``path``, ``dur_s``, ``depth``)
  on the bus.

The no-op span used while instrumentation is disabled is a single shared
object whose ``__enter__``/``__exit__`` do nothing — the hot-path cost of
a disabled span is one attribute load and two empty calls.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry

__all__ = ["PhaseTimer", "Span", "NULL_SPAN"]


class _NullSpan:
    """Context manager that does nothing; shared singleton."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


NULL_SPAN = _NullSpan()


class Span:
    """One live phase timing; created by :meth:`PhaseTimer.span`."""

    __slots__ = ("_timer", "name", "path", "depth", "t0", "dur_s")

    def __init__(self, timer: "PhaseTimer", name: str) -> None:
        self._timer = timer
        self.name = name
        self.path = name
        self.depth = 0
        self.t0 = 0.0
        #: Duration in seconds, set on exit.
        self.dur_s: Optional[float] = None

    def __enter__(self) -> "Span":
        stack = self._timer._stack
        if stack:
            self.path = stack[-1].path + "/" + self.name
        self.depth = len(stack)
        stack.append(self)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        dur = perf_counter() - self.t0
        self.dur_s = dur
        stack = self._timer._stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - misnested exit; recover, don't corrupt
            try:
                stack.remove(self)
            except ValueError:
                pass
        self._timer._finish(self, dur)


class PhaseTimer:
    """Factory and stack for nested spans.

    One timer per instrumentation context; the stack is what turns flat
    span names into slash-joined phase paths.
    """

    def __init__(
        self,
        bus: Optional[EventBus] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.bus = bus
        self.registry = registry
        self._stack: List[Span] = []
        self._context: Dict[str, Any] = {}

    # -- span context fields -------------------------------------------
    def push_context(self, **fields: Any) -> Dict[str, Any]:
        """Stamp ``fields`` onto every span event until ``pop_context``.

        The engines use this to thread the current round index through
        the phase spans — each ``span`` event then carries ``round=N``,
        so phase timings group by round without timestamp heuristics.
        Returns the previous context (pass it back to
        :meth:`pop_context`); nesting merges, innermost wins.
        """
        previous = self._context
        self._context = {**previous, **fields}
        return previous

    def pop_context(self, previous: Dict[str, Any]) -> None:
        """Restore the context returned by the matching ``push_context``."""
        self._context = previous

    @property
    def current_path(self) -> str:
        """Slash-joined path of the innermost open span ('' at top level)."""
        return self._stack[-1].path if self._stack else ""

    def span(self, name: str) -> Span:
        """A context manager timing one phase named ``name``."""
        return Span(self, name)

    def _finish(self, span: Span, dur: float) -> None:
        if self.registry is not None:
            self.registry.summary(f"span.{span.path}").observe(dur)
        if self.bus is not None:
            self.bus.emit(
                "span",
                phase=span.name,
                path=span.path,
                dur_s=dur,
                depth=span.depth,
                **self._context,
            )
