"""The fleet state of a simulation run, as arrays.

:class:`WorldState` is the complete mutable state of an engine between
rounds: everything a checkpoint must capture for a resumed run to
reproduce the remaining :class:`~repro.runtime.records.RoundRecord`
series bit for bit. Each engine holds exactly one and its phases read
and write its arrays in place; ``capture_state()`` / ``restore_state()``
copy it out and in, and the checkpoint layer
(:mod:`repro.runtime.checkpoint`) serialises it NumPy-natively.

The core fields cover what every engine has (positions, liveness, the
round clock); per-engine extras go in the two escape hatches:

* ``arrays`` — named NumPy arrays (e.g. the centralized planner's current
  ``targets`` matrix);
* ``aux`` — JSON-able scalars/lists (e.g. the fired entries of a
  :class:`~repro.sim.netmodel.failures.NodeFailureSchedule`).

RNG states are the ``bit_generator.state`` dicts of the run's
:class:`numpy.random.Generator` instances, keyed by role ("sensor",
"message_loss", ...). They contain arbitrary-precision integers, which is
why they serialise through JSON rather than fixed-width arrays.

Liveness has one rule, kept by :meth:`WorldState.kill`,
:meth:`~WorldState.crash` and :meth:`~WorldState.recover`: ``alive``
false with ``died_at`` NaN is a crash (recoverable); ``died_at`` set is
death, and death is final.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

__all__ = ["WorldState"]

#: One node id or several (any integer sequence or array).
NodeIds = Union[int, Sequence[int], np.ndarray]


@dataclass
class WorldState:
    """Everything mutable about a run, as arrays + JSON-able scalars."""

    #: Rounds completed so far (the next round to execute).
    round_index: int
    #: Simulation time (minutes) of the next round.
    t: float
    #: ``(k, 2)`` node positions.
    positions: np.ndarray
    #: ``(k,)`` on the air this round (false when crashed or dead).
    alive: np.ndarray
    #: ``(k,)`` per-node curvature cache (last sensed own-curvature).
    curvature: np.ndarray
    #: ``(k,)`` cumulative movement distance (the energy proxy).
    distance_travelled: np.ndarray
    #: ``(k,)`` death times; ``nan`` for nodes that have not died
    #: (running or merely crashed).
    died_at: np.ndarray
    #: Deployment-time curvature calibration (None before the first round).
    curvature_scale: Optional[float] = None
    #: ``numpy.random`` bit-generator states keyed by role.
    rng_states: Dict[str, Any] = field(default_factory=dict)
    #: Engine-specific named arrays.
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Engine-specific JSON-able extras.
    aux: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.round_index = int(self.round_index)
        self.t = float(self.t)
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 2)
        k = len(self.positions)
        self.alive = np.asarray(self.alive, dtype=bool).reshape(k)
        self.curvature = np.asarray(self.curvature, dtype=float).reshape(k)
        self.distance_travelled = np.asarray(
            self.distance_travelled, dtype=float
        ).reshape(k)
        self.died_at = np.asarray(self.died_at, dtype=float).reshape(k)

    @classmethod
    def initial(cls, positions: np.ndarray, t: float) -> "WorldState":
        """Round 0: every node alive, nothing sensed or travelled yet.

        ``positions`` is copied, so the caller's array never aliases the
        fleet.
        """
        positions = np.array(positions, dtype=float).reshape(-1, 2)
        k = len(positions)
        return cls(
            round_index=0,
            t=t,
            positions=positions,
            alive=np.ones(k, dtype=bool),
            curvature=np.zeros(k),
            distance_travelled=np.zeros(k),
            died_at=np.full(k, np.nan),
        )

    @property
    def k(self) -> int:
        """Fleet size."""
        return len(self.positions)

    @property
    def dead(self) -> np.ndarray:
        """``(k,)`` mask of permanently dead nodes."""
        return ~np.isnan(self.died_at)

    def move(self, node_id: int, destination: np.ndarray) -> float:
        """Move one node; returns (and accumulates) the distance covered."""
        dest = np.asarray(destination, dtype=float).reshape(2)
        step = float(np.linalg.norm(dest - self.positions[node_id]))
        self.positions[node_id] = dest
        self.distance_travelled[node_id] += step
        return step

    def kill(self, ids: NodeIds, t: float) -> None:
        """Mark nodes permanently dead as of time ``t``; idempotent.

        Keyed on ``died_at`` rather than ``alive``, so a node that is
        merely crashed can still die for good, and a node that already
        died keeps its first death time.
        """
        ids = self._not_dead(ids)
        self.alive[ids] = False
        self.died_at[ids] = t

    def crash(self, ids: NodeIds) -> None:
        """Take nodes off the air, recoverably (``died_at`` stays NaN)."""
        self.alive[self._not_dead(ids)] = False

    def recover(self, ids: NodeIds) -> None:
        """Bring crashed nodes back; permanent death is final."""
        self.alive[self._not_dead(ids)] = True

    def _not_dead(self, ids: NodeIds) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.intp).reshape(-1)
        return ids[np.isnan(self.died_at[ids])]

    def copy(self) -> "WorldState":
        """Deep, independent copy (arrays are copied, not aliased)."""
        return WorldState(
            round_index=self.round_index,
            t=self.t,
            positions=self.positions.copy(),
            alive=self.alive.copy(),
            curvature=self.curvature.copy(),
            distance_travelled=self.distance_travelled.copy(),
            died_at=self.died_at.copy(),
            curvature_scale=self.curvature_scale,
            rng_states=copy.deepcopy(self.rng_states),
            arrays={k: v.copy() for k, v in self.arrays.items()},
            aux=copy.deepcopy(self.aux),
        )

    def allclose(self, other: "WorldState", atol: float = 0.0) -> bool:
        """Exact (default) or tolerant equality of two states."""
        if (
            self.round_index != other.round_index
            or self.t != other.t
            or self.k != other.k
            or self.curvature_scale != other.curvature_scale
        ):
            return False
        def eq(a: np.ndarray, b: np.ndarray) -> bool:
            if atol == 0.0:
                return bool(np.array_equal(a, b, equal_nan=True))
            return bool(np.allclose(a, b, atol=atol, equal_nan=True))
        core = (
            eq(self.positions, other.positions)
            and bool(np.array_equal(self.alive, other.alive))
            and eq(self.curvature, other.curvature)
            and eq(self.distance_travelled, other.distance_travelled)
            and eq(self.died_at, other.died_at)
        )
        if not core:
            return False
        if set(self.arrays) != set(other.arrays):
            return False
        return all(eq(v, other.arrays[k]) for k, v in self.arrays.items()) and (
            self.rng_states == other.rng_states and self.aux == other.aux
        )
