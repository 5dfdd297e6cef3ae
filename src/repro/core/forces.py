"""The virtual-force model of paper Eqns. 14–18.

Three forces act on a mobile node ``ni``:

* **F1** (Eqn. 14) — attraction toward the highest-curvature position
  ``pc`` sensed inside ``Rs``:  ``F1 = d(ni, pc) · G(pc)``, where
  ``d(·,·)`` is the displacement *vector* — the pull weakens as the node
  closes in, so F1 → 0 at the target.
* **F2** (Eqn. 15) — attraction toward single-hop neighbours weighted by
  their curvature: ``F2 = Σ_j d(ni, nj) · G(nj)``. At equilibrium this is
  exactly the CWD pivot condition of Eqn. 9.
* **Fr** (Eqn. 17) — repulsion keeping spacing: each neighbour within
  ``Rc`` pushes with magnitude ``Rc − d(ni, nj)`` along the line away from
  it.

Resultant (Eqn. 18): ``Fs = F1 + F2 + β·Fr`` with β an empirical constant
(β = 2 in the paper's evaluation).

A fourth term implements CWD requirement #2 (Section 5.1: "there must
exist several nodes whose communication range can cover the borders of the
square region"): a node that is *locally outermost* toward a wall — it
hears no neighbour between itself and that wall — and farther than
``Rc/2`` from it is pulled toward the wall (:func:`border_attraction`).
Without this anchor the one-sided neighbour attraction contracts the whole
swarm away from the region borders. The region border is part of every
node's configuration (Table 2 lists "border of region A" as a CMA input),
so the term is still fully local.

Curvature weights default to |G| per DESIGN.md §6.5 (a signed Gaussian
curvature would make saddles *repel*); pass signed values to study the
paper-literal variant.

:func:`resultant_force` evaluates the forces on one node;
:func:`fleet_resultant_force` evaluates them on every node of a round at
once, bit for bit the same per node (DESIGN.md §6.16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.geometry.primitives import BoundingBox


@dataclass(frozen=True)
class VirtualForceParams:
    """Tunables of the force model.

    ``beta`` is the repulsion weight of Eqn. 18; ``stop_threshold`` is the
    |Fs| below which a node declares itself balanced and stops (the
    pseudocode's exact ``Fs == 0`` test never fires in floating point).
    """

    rc: float
    rs: float
    beta: float = 2.0
    stop_threshold: float = 1e-3
    #: Weight of the border-anchoring force (CWD requirement #2).
    border_gain: float = 2.0

    def __post_init__(self) -> None:
        if self.rc <= 0:
            raise ValueError(f"Rc must be positive, got {self.rc}")
        if self.rs <= 0:
            raise ValueError(f"Rs must be positive, got {self.rs}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.stop_threshold < 0:
            raise ValueError(f"stop_threshold must be >= 0, got {self.stop_threshold}")


@dataclass(frozen=True)
class ForceBreakdown:
    """The individual force vectors acting on one node, plus the resultant.

    :func:`fleet_resultant_force` stacks them: each field is then ``(n, 2)``
    with one row per node.
    """

    f1: np.ndarray
    f2: np.ndarray
    fr: np.ndarray
    fb: np.ndarray
    fs: np.ndarray

    @property
    def magnitude(self) -> float:
        """|Fs|."""
        return float(np.linalg.norm(self.fs))


def attraction_to_peak(
    position: np.ndarray,
    peak_position: Optional[np.ndarray],
    peak_curvature: float,
) -> np.ndarray:
    """Eqn. 14: ``F1 = d(ni, pc) · G(pc)``.

    ``peak_position`` may be ``None`` (nothing interesting sensed), giving
    a zero force.
    """
    pos = np.asarray(position, dtype=float).reshape(2)
    if peak_position is None:
        return np.zeros(2)
    peak = np.asarray(peak_position, dtype=float).reshape(2)
    return (peak - pos) * float(peak_curvature)


def attraction_to_neighbors(
    position: np.ndarray,
    neighbor_positions: np.ndarray,
    neighbor_curvatures: np.ndarray,
) -> np.ndarray:
    """Eqn. 15: ``F2 = Σ_j d(ni, nj) · G(nj)`` over single-hop neighbours."""
    pos = np.asarray(position, dtype=float).reshape(2)
    nbrs = np.asarray(neighbor_positions, dtype=float).reshape(-1, 2)
    curv = np.asarray(neighbor_curvatures, dtype=float).reshape(-1)
    if len(nbrs) != len(curv):
        raise ValueError(f"{len(nbrs)} neighbours but {len(curv)} curvatures")
    if len(nbrs) == 0:
        return np.zeros(2)
    return ((nbrs - pos) * curv[:, None]).sum(axis=0)


def repulsion_from_neighbors(
    position: np.ndarray,
    neighbor_positions: np.ndarray,
    rc: float,
) -> np.ndarray:
    """Eqn. 17: each neighbour within ``Rc`` pushes with magnitude ``Rc − d``.

    A coincident neighbour (d = 0) has no defined direction; it contributes
    a deterministic unit push along +x so stacked nodes still separate.
    """
    pos = np.asarray(position, dtype=float).reshape(2)
    nbrs = np.asarray(neighbor_positions, dtype=float).reshape(-1, 2)
    if len(nbrs) == 0:
        return np.zeros(2)
    away = pos - nbrs
    dists = np.linalg.norm(away, axis=1)
    force = np.zeros(2)
    for vec, d in zip(away, dists):
        if d > rc:
            continue
        if d == 0.0:
            force = force + np.array([rc, 0.0])
        else:
            force = force + (rc - d) * (vec / d)
    return force


def border_attraction(
    position: np.ndarray,
    neighbor_positions: np.ndarray,
    region: BoundingBox,
    rc: float,
    margin: Optional[float] = None,
) -> np.ndarray:
    """CWD requirement #2: locally-outermost nodes anchor the region border.

    For each of the four walls, the node checks whether any neighbour is
    strictly nearer that wall than itself. If none is — the node is the
    local frontier toward that wall — and it is between ``margin``
    (default ``Rc/2``, the distance at which its radio disk still covers
    the wall) and ``2.5·Rc`` from it, the node is pulled toward the wall
    with magnitude ``min(distance − margin, Rc)``.
    """
    pos = np.asarray(position, dtype=float).reshape(2)
    nbrs = np.asarray(neighbor_positions, dtype=float).reshape(-1, 2)
    m = rc / 2.0 if margin is None else float(margin)
    force = np.zeros(2)

    walls = (
        (0, -1.0, pos[0] - region.xmin),  # x = xmin: pull in -x
        (0, +1.0, region.xmax - pos[0]),  # x = xmax: pull in +x
        (1, -1.0, pos[1] - region.ymin),  # y = ymin: pull in -y
        (1, +1.0, region.ymax - pos[1]),  # y = ymax: pull in +y
    )
    for axis, sign, dist in walls:
        # Only near-frontier nodes anchor; deeper nodes rely on the
        # repulsion chain from the anchored frontier.
        if dist <= m or dist > 2.5 * rc:
            continue
        covered = any(sign * (nbr[axis] - pos[axis]) > 1e-9 for nbr in nbrs)
        if not covered:
            force[axis] += sign * min(dist - m, rc)
    return force


def resultant_force(
    position: np.ndarray,
    peak_position: Optional[np.ndarray],
    peak_curvature: float,
    neighbor_positions: np.ndarray,
    neighbor_curvatures: np.ndarray,
    params: VirtualForceParams,
    region: Optional[BoundingBox] = None,
) -> ForceBreakdown:
    """Eqn. 18 plus the border anchor: ``Fs = F1 + F2 + β·Fr + γ·Fb``."""
    f1 = attraction_to_peak(position, peak_position, peak_curvature)
    f2 = attraction_to_neighbors(position, neighbor_positions, neighbor_curvatures)
    fr = repulsion_from_neighbors(position, neighbor_positions, params.rc)
    fb = (
        border_attraction(position, neighbor_positions, region, params.rc)
        if region is not None
        else np.zeros(2)
    )
    fs = f1 + f2 + params.beta * fr + params.border_gain * fb
    return ForceBreakdown(f1=f1, f2=f2, fr=fr, fb=fb, fs=fs)


def _sum_in_order(terms: np.ndarray, present: np.ndarray) -> np.ndarray:
    """``Σ_j terms[:, j]`` over the present slots, left to right, from 0.

    ``terms`` is ``(n, d, 2)``. This is the sum both a per-node loop and
    numpy's ``sum(axis=0)`` over a node's ``(q, 2)`` terms make. Absent
    slots add ``-0.0``, the exact additive identity, so they leave every
    partial sum unchanged, signed zeros included.
    """
    padded = np.where(present[..., None], terms, -0.0)
    total = np.zeros((len(terms), 2))
    for j in range(padded.shape[1]):
        total = total + padded[:, j]
    return total


def fleet_resultant_force(
    positions: np.ndarray,
    peak_positions: np.ndarray,
    peak_curvatures: np.ndarray,
    has_peak: np.ndarray,
    neighbor_positions: np.ndarray,
    neighbor_curvatures: np.ndarray,
    neighbor_mask: np.ndarray,
    params: VirtualForceParams,
    region: BoundingBox,
) -> ForceBreakdown:
    """:func:`resultant_force` for ``n`` nodes at once, row for row.

    ``positions``/``peak_positions`` are ``(n, 2)`` and ``peak_curvatures``
    ``(n,)``; a node with ``has_peak`` false sensed nothing and gets no
    F1. Node ``i``'s neighbours are the slots ``j`` of
    ``neighbor_positions[i]`` (``(n, d, 2)``) and
    ``neighbor_curvatures[i]`` (``(n, d)``) where ``neighbor_mask[i, j]``
    holds. Every row is bit-identical to :func:`resultant_force` on that
    node alone: the same elementwise formulas, and the neighbour sums
    taken in slot order (DESIGN.md §6.16).
    """
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    nbrs = np.asarray(neighbor_positions, dtype=float)
    mask = np.asarray(neighbor_mask, dtype=bool)
    rc = params.rc

    f1 = np.where(
        has_peak[:, None],
        (peak_positions - pos) * peak_curvatures[:, None],
        0.0,
    )
    f2 = _sum_in_order(
        (nbrs - pos[:, None, :]) * neighbor_curvatures[..., None], mask
    )

    # Eqn. 17, as repulsion_from_neighbors: d is the norm(axis=1)
    # formula, a coincident neighbour pushes along +x, and one beyond Rc
    # does not push at all.
    away = pos[:, None, :] - nbrs
    sq = away * away
    dists = np.sqrt(sq[..., 0] + sq[..., 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        push = (rc - dists)[..., None] * (away / dists[..., None])
    push = np.where((dists == 0.0)[..., None], np.array([rc, 0.0]), push)
    fr = _sum_in_order(push, mask & (dists <= rc))

    # CWD requirement #2, as border_attraction: wall by wall, in its order.
    margin = rc / 2.0
    fb = np.zeros_like(pos)
    walls = (
        (0, -1.0, pos[:, 0] - region.xmin),
        (0, +1.0, region.xmax - pos[:, 0]),
        (1, -1.0, pos[:, 1] - region.ymin),
        (1, +1.0, region.ymax - pos[:, 1]),
    )
    for axis, sign, dist in walls:
        ahead = sign * (nbrs[..., axis] - pos[:, axis, None]) > 1e-9
        covered = (ahead & mask).any(axis=1)
        pulls = ~((dist <= margin) | (dist > 2.5 * rc)) & ~covered
        fb[:, axis] = np.where(
            pulls, fb[:, axis] + sign * np.minimum(dist - margin, rc),
            fb[:, axis],
        )

    fs = f1 + f2 + params.beta * fr + params.border_gain * fb
    return ForceBreakdown(f1=f1, f2=f2, fr=fr, fb=fb, fs=fs)
