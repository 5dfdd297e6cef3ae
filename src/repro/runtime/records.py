"""Round records and result containers for both simulation engines.

These used to live inside :mod:`repro.sim.engine` and
:mod:`repro.sim.centralized`; the runtime refactor moved them down here
so the phase functions (:mod:`repro.runtime.cma_phases`,
:mod:`repro.runtime.centralized_phases`) can construct records without
importing the engines (which import the phases — a cycle). The
engines re-export every name, so ``from repro.sim.engine import
RoundRecord`` keeps working.

Series accessors (``times``/``deltas``/``rmses``) are cached per
instance: experiments poll them in loops, and rebuilding a fresh array
from a list comprehension on every access was measurable on long runs.
The cache is invalidated by length — ``rounds`` is a plain list that the
engines append to, so each property compares ``len(rounds)`` against the
length the cached array was built from and rebuilds only when rounds
were added (or removed). Cached arrays are handed out read-only; callers
that want to mutate a series take a ``.copy()`` (mutating the shared
cache in place was never sound, it just used to go unnoticed).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "RoundRecord",
    "SimulationResult",
    "CentralizedRound",
    "CentralizedResult",
]


class _SeriesCache:
    """Per-instance cache of derived series, invalidated by list length."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[str, Tuple[int, np.ndarray]] = {}

    def get(self, name: str, rounds: List[Any], build) -> np.ndarray:
        n = len(rounds)
        hit = self._entries.get(name)
        if hit is not None and hit[0] == n:
            return hit[1]
        arr = build()
        arr.setflags(write=False)  # shared across callers; must stay frozen
        self._entries[name] = (n, arr)
        return arr


@dataclass
class RoundRecord:
    """Everything measured about one completed round."""

    round_index: int
    t: float
    positions: np.ndarray
    delta: float
    rmse: float
    connected: bool
    n_components: int
    n_alive: int
    n_moved: int
    n_lcm_moves: int
    mean_force: float
    n_trace_samples: int = 0


@dataclass
class SimulationResult:
    """The full run: per-round records plus convenience accessors."""

    rounds: List[RoundRecord] = dataclass_field(default_factory=list)
    _cache: _SeriesCache = dataclass_field(
        default_factory=_SeriesCache, repr=False, compare=False
    )

    @property
    def times(self) -> np.ndarray:
        return self._cache.get(
            "times", self.rounds,
            lambda: np.asarray([r.t for r in self.rounds], dtype=float),
        )

    @property
    def deltas(self) -> np.ndarray:
        return self._cache.get(
            "deltas", self.rounds,
            lambda: np.asarray([r.delta for r in self.rounds], dtype=float),
        )

    @property
    def rmses(self) -> np.ndarray:
        return self._cache.get(
            "rmses", self.rounds,
            lambda: np.asarray([r.rmse for r in self.rounds], dtype=float),
        )

    @property
    def final_positions(self) -> np.ndarray:
        if not self.rounds:
            raise ValueError("simulation produced no rounds")
        return self.rounds[-1].positions

    @property
    def always_connected(self) -> bool:
        return all(r.connected for r in self.rounds)

    def converged_after(self, movement_tolerance: float = 0.05) -> Optional[float]:
        """First time from which mean displacement stays below tolerance.

        This is the paper's "the nodes converge from 10:30" measurement.
        Returns ``None`` if the run never settles.
        """
        if len(self.rounds) < 2:
            return None
        moves = np.asarray([
            float(np.linalg.norm(b.positions - a.positions, axis=1).mean())
            for a, b in zip(self.rounds, self.rounds[1:])
        ])
        # The answer is the round right after the last above-tolerance
        # move — one reverse scan, not a suffix re-check per index.
        over = moves > movement_tolerance
        if not over.any():
            return self.rounds[1].t
        last_over = len(moves) - 1 - int(np.argmax(over[::-1]))
        if last_over == len(moves) - 1:
            return None
        return self.rounds[last_over + 2].t


@dataclass
class CentralizedRound:
    """Measurements of one centralized-control round."""

    round_index: int
    t: float
    positions: np.ndarray
    delta: float
    connected: bool
    n_components: int
    #: Multi-hop messages spent this round (reports up + commands down).
    n_messages: int
    #: Age (rounds) of the information the current targets derive from.
    information_age: int


@dataclass
class CentralizedResult:
    rounds: List[CentralizedRound] = dataclass_field(default_factory=list)
    _cache: _SeriesCache = dataclass_field(
        default_factory=_SeriesCache, repr=False, compare=False
    )

    @property
    def times(self) -> np.ndarray:
        return self._cache.get(
            "times", self.rounds,
            lambda: np.asarray([r.t for r in self.rounds], dtype=float),
        )

    @property
    def deltas(self) -> np.ndarray:
        return self._cache.get(
            "deltas", self.rounds,
            lambda: np.asarray([r.delta for r in self.rounds], dtype=float),
        )

    @property
    def total_messages(self) -> int:
        return sum(r.n_messages for r in self.rounds)

    @property
    def always_connected(self) -> bool:
        return all(r.connected for r in self.rounds)
