"""Per-node CMA planner: the test oracle for the fleet planner.

These are the one-node-at-a-time forms of :func:`repro.core.cma.plan_move`,
:func:`repro.core.cma.estimate_own_curvature` and the constrain-move
ladder of :func:`repro.runtime.cma_phases.clip_move`, as the
engine ran them before the fleet was planned in one pass. The fleet
functions must agree with them bit for bit, row by row
(``tests/core/test_cma_fleet.py``). One node's sensing is a
:class:`LocalSensing`; :func:`pack` lays a fleet's of them end to end as
the :class:`repro.core.cma.FleetSensing` the fleet functions take.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.cma import CMAParams, FleetSensing, NeighborObservation
from repro.core.forces import ForceBreakdown, resultant_force
from repro.geometry.primitives import BoundingBox
from repro.geometry.spatial_index import radius_adjacency
from repro.surfaces.quadric import QuadricFitMode, fit_quadric

#: Step fractions tried when clipping a move against link constraints.
ALPHA_LADDER = (1.0, 0.75, 0.5, 0.25, 0.1, 0.0)


@dataclass(frozen=True)
class LocalSensing:
    """What one node sensed inside its ``Rs`` disk this round.

    ``positions``/``values`` are the ``m`` sensed samples (Table 2's
    ``M[m][3]``); ``curvatures`` are locally estimated curvature weights at
    those positions (Table 2's ``MdG``), produced by the sensing model.
    """

    positions: np.ndarray
    values: np.ndarray
    curvatures: np.ndarray

    def __post_init__(self) -> None:
        if not (
            len(self.positions) == len(self.values) == len(self.curvatures)
        ):
            raise ValueError("sensing arrays must have equal length")

    @property
    def m(self) -> int:
        return len(self.positions)


def pack(sensings: Sequence[LocalSensing]) -> FleetSensing:
    """The nodes' sensings end to end, node ``i`` at ``offsets[i]``."""
    offsets = np.zeros(len(sensings) + 1, dtype=np.intp)
    np.cumsum([s.m for s in sensings], out=offsets[1:])

    def joined(arrays, tail=()):
        # The leading empty float block fixes the dtype and makes an
        # empty fleet well-shaped.
        return np.concatenate(
            [np.empty((0, *tail))]
            + [np.reshape(a, (-1, *tail)) for a in arrays]
        )

    return FleetSensing(
        positions=joined([s.positions for s in sensings], (2,)),
        values=joined([s.values for s in sensings]),
        curvatures=joined([s.curvatures for s in sensings]),
        offsets=offsets,
    )


@dataclass
class NodePlan:
    """One node's decision for the round."""

    node_id: int
    origin: np.ndarray
    destination: np.ndarray
    breakdown: ForceBreakdown
    own_curvature: float
    neighbor_table: List[NeighborObservation] = field(default_factory=list)

    @property
    def moved(self) -> bool:
        return bool(np.linalg.norm(self.destination - self.origin) > 0.0)


def peak(sensing: LocalSensing) -> tuple:
    """``pc``: the sensed position of maximum curvature weight."""
    if sensing.m == 0:
        return None, 0.0
    idx = int(np.argmax(sensing.curvatures))
    return sensing.positions[idx], float(sensing.curvatures[idx])


def estimate_own_curvature(
    sensing: LocalSensing,
    position: np.ndarray,
    params: CMAParams,
) -> float:
    """``G(n'_i)`` via the least-squares quadric of Eqns. 11–13."""
    needed = 3 if params.quadric_mode is QuadricFitMode.PAPER else 6
    if sensing.m < needed:
        return 0.0
    fit = fit_quadric(
        sensing.positions,
        sensing.values,
        center=(float(position[0]), float(position[1])),
        mode=params.quadric_mode,
    )
    g = fit.gaussian_curvature()
    return g if params.signed_curvature else abs(g)


def plan_move(
    node_id: int,
    position: np.ndarray,
    sensing: LocalSensing,
    neighbors: Sequence[NeighborObservation],
    params: CMAParams,
    region: BoundingBox,
    own_curvature: Optional[float] = None,
) -> NodePlan:
    """Lines 6–18 of Table 2 for one node."""
    pos = np.asarray(position, dtype=float).reshape(2)
    if own_curvature is None:
        own_curvature = estimate_own_curvature(sensing, pos, params)

    peak_pos, peak_curv = peak(sensing)
    usable: List[NeighborObservation] = [
        n for n in neighbors
        if params.max_beacon_age is None or n.staleness <= params.max_beacon_age
    ]
    nbr_pos = (
        np.asarray([n.position for n in usable], dtype=float).reshape(-1, 2)
        if usable
        else np.empty((0, 2))
    )
    nbr_curv = np.asarray(
        [
            n.curvature if n.staleness == 0
            else n.curvature * params.stale_weight_decay**n.staleness
            for n in usable
        ],
        dtype=float,
    )

    breakdown = resultant_force(
        pos, peak_pos, peak_curv, nbr_pos, nbr_curv, params.force_params(),
        region=region,
    )
    magnitude = breakdown.magnitude
    if magnitude <= params.stop_threshold:
        destination = pos.copy()
    else:
        direction = breakdown.fs / magnitude
        step = min(params.max_step, params.step_gain * magnitude)
        destination = region.clamp(pos + direction * step).as_array()

    return NodePlan(
        node_id=node_id,
        origin=pos,
        destination=destination,
        breakdown=breakdown,
        own_curvature=own_curvature,
        neighbor_table=usable,
    )


def constrain_move(
    positions: np.ndarray,
    alive: np.ndarray,
    plan: NodePlan,
    rc: float,
) -> np.ndarray:
    """Largest fraction of the planned step that breaks no unbridged link.

    Rungs are tried lazily, and the neighbour-pair link matrix is built
    only once a rung breaks a direct link.
    """
    nbr_ids = [o.node_id for o in plan.neighbor_table if alive[o.node_id]]
    if not nbr_ids:
        return plan.destination
    origin = positions[plan.node_id].copy()
    step_vec = plan.destination - origin
    nbr_pos = positions[nbr_ids]
    pair_linked = None
    for alpha in ALPHA_LADDER:
        candidate = origin + alpha * step_vec
        diff = nbr_pos - candidate[None, :]
        near = np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2) <= rc
        if near.all():
            return candidate
        if pair_linked is None:
            pair_linked = radius_adjacency(nbr_pos, rc)
        if bool((pair_linked[~near] & near).any(axis=1).all()):
            return candidate
    return origin
