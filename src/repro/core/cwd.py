"""The Curvature-Weighted Distribution pattern (paper Section 5.1).

CWD is the *target* layout of the mobile system: every node is a pivot
balancing the curvature weights of its single-hop neighbours,

    Σ_j d(ni, nj) · G(nj) = 0            (Eqn. 9)

with total curvature maximised,

    max Σ_i G(ni),                        (Eqn. 10)

while the topology still spans the region. This module provides

* :func:`balance_residuals` / :func:`total_curvature` — Eqns. 9–10 as
  diagnostics over any layout,
* :func:`solve_cwd` — a *global-information* solver (Fig. 3(c)): the same
  virtual forces CMA uses, but fed oracle curvature from the fully known
  reference surface, iterated to a fixed point. It is the upper bound the
  distributed CMA is compared to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.baselines import uniform_grid_placement
from repro.core.forces import VirtualForceParams, resultant_force
from repro.fields.base import GridSample
from repro.fields.grid import GridField
from repro.geometry.primitives import BoundingBox
from repro.graphs.geometric import unit_disk_graph
from repro.surfaces.curvature import grid_gaussian_curvature


@dataclass
class CWDResult:
    """A converged (or max-iteration) curvature-weighted layout."""

    positions: np.ndarray
    n_iterations: int
    converged: bool
    #: Max per-node Eqn. 9 residual at the final layout.
    final_residual: float
    #: Σ_i G(ni) at the final layout (Eqn. 10).
    total_curvature: float


def _curvature_field(
    reference: GridSample,
    threshold: float = 1.0,
    cap: float = 3.0,
) -> GridField:
    """Normalised curvature-weight field of the reference surface.

    |Gaussian curvature|, rescaled by its mean, soft-thresholded and
    capped — the same weight transform the distributed CMA applies (see
    :class:`repro.core.cma.CMAParams`), so the oracle solver and the
    distributed algorithm chase the same pattern.
    """
    k = np.abs(grid_gaussian_curvature(reference))
    mean = float(k.mean())
    if mean > 0.0:
        k = np.clip(k / mean - threshold, 0.0, cap)
    return GridField(GridSample(xs=reference.xs, ys=reference.ys, values=k))


def balance_residuals(
    positions: np.ndarray,
    curvatures: np.ndarray,
    rc: float,
) -> np.ndarray:
    """Per-node magnitude of Eqn. 9's left-hand side.

    ``curvatures[i]`` is ``G(n'_i)``. A perfect CWD layout has all residuals
    zero; the solver drives their maximum toward zero.
    """
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    curv = np.asarray(curvatures, dtype=float).reshape(-1)
    if len(pts) != len(curv):
        raise ValueError(f"{len(pts)} positions but {len(curv)} curvatures")
    indptr, indices = unit_disk_graph(pts, rc)
    residuals = np.zeros(len(pts))
    for i in range(len(pts)):
        nbrs = indices[indptr[i]:indptr[i + 1]]
        if len(nbrs) == 0:
            continue
        vec = ((pts[nbrs] - pts[i]) * curv[nbrs][:, None]).sum(axis=0)
        residuals[i] = float(np.linalg.norm(vec))
    return residuals


def total_curvature(positions: np.ndarray, curvature_field: GridField) -> float:
    """Eqn. 10's objective: the summed curvature weight over node positions."""
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    return float(curvature_field.sample(pts).sum())


def solve_cwd(
    reference: GridSample,
    k: int,
    rc: float,
    rs: float = 5.0,
    beta: float = 2.0,
    initial: Optional[np.ndarray] = None,
    max_iterations: int = 300,
    step: float = 1.0,
    tolerance: float = 1e-2,
    curvature_threshold: float = 1.0,
    curvature_cap: float = 3.0,
) -> CWDResult:
    """Iterate virtual forces with oracle curvature to a CWD layout.

    Parameters mirror the CMA force model; ``step`` is the per-iteration
    movement cap (the solver is not speed-limited — it is an offline
    optimiser, not a robot). Convergence = every node's planned move is
    below ``tolerance``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    region = reference.region
    curv_field = _curvature_field(
        reference, threshold=curvature_threshold, cap=curvature_cap
    )
    params = VirtualForceParams(rc=rc, rs=rs, beta=beta)

    pts = (
        np.asarray(initial, dtype=float).reshape(-1, 2).copy()
        if initial is not None
        else uniform_grid_placement(region, k)
    )
    if len(pts) != k:
        raise ValueError(f"initial layout has {len(pts)} nodes, expected {k}")

    peak_cache = _PeakFinder(reference, curv_field, rs)
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        curv = curv_field.sample(pts)
        indptr, indices = unit_disk_graph(pts, rc)
        moves = np.zeros_like(pts)
        for i in range(len(pts)):
            nbrs = indices[indptr[i]:indptr[i + 1]]
            peak_pos, peak_curv = peak_cache.find(pts[i])
            breakdown = resultant_force(
                pts[i],
                peak_pos,
                peak_curv,
                pts[nbrs],
                curv[nbrs],
                params,
                region=region,
            )
            magnitude = breakdown.magnitude
            if magnitude <= params.stop_threshold:
                continue
            direction = breakdown.fs / magnitude
            moves[i] = direction * min(step, magnitude)
        if not np.any(np.linalg.norm(moves, axis=1) > tolerance):
            converged = True
            break
        pts = pts + moves
        pts[:, 0] = np.clip(pts[:, 0], region.xmin, region.xmax)
        pts[:, 1] = np.clip(pts[:, 1], region.ymin, region.ymax)

    curv = curv_field.sample(pts)
    residuals = balance_residuals(pts, curv, rc)
    return CWDResult(
        positions=pts,
        n_iterations=iterations,
        converged=converged,
        final_residual=float(residuals.max()) if len(residuals) else 0.0,
        total_curvature=total_curvature(pts, curv_field),
    )


class _PeakFinder:
    """Highest-|curvature| grid position within Rs of a query point."""

    def __init__(self, reference: GridSample, curv_field: GridField, rs: float):
        self.xs = reference.xs
        self.ys = reference.ys
        self.curv = np.abs(curv_field.sample_data.values)
        self.rs = float(rs)

    def find(self, position: np.ndarray):
        x, y = float(position[0]), float(position[1])
        ix0 = int(np.searchsorted(self.xs, x - self.rs))
        ix1 = int(np.searchsorted(self.xs, x + self.rs, side="right"))
        iy0 = int(np.searchsorted(self.ys, y - self.rs))
        iy1 = int(np.searchsorted(self.ys, y + self.rs, side="right"))
        if ix0 >= ix1 or iy0 >= iy1:
            return None, 0.0
        sub = self.curv[iy0:iy1, ix0:ix1]
        sub_x, sub_y = np.meshgrid(self.xs[ix0:ix1], self.ys[iy0:iy1])
        mask = (sub_x - x) ** 2 + (sub_y - y) ** 2 <= self.rs**2
        if not mask.any():
            return None, 0.0
        masked = np.where(mask, sub, -np.inf)
        flat = int(np.argmax(masked))
        iy, ix = divmod(flat, masked.shape[1])
        return (
            np.array([sub_x[iy, ix], sub_y[iy, ix]]),
            float(sub[iy, ix]),
        )
