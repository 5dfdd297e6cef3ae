"""Local-error trackers the FRA fan update is checked against.

:class:`WindowErrorTracker` is the update FRA ran before the fan kernel:
after each insert it builds a :class:`LinearSurfaceInterpolator` over the
new triangles alone and rasterises them onto the window of grid cells
around the retriangulated cavity, writing ``|f − DT|`` where the window
is covered. :class:`FullRecomputeTracker` re-evaluates the whole grid
after every insert. Both take the ``(reference, obs)`` arguments of
``repro.core.fra._ErrorTracker`` and expose the same ``insert`` / ``err``,
so either can stand in for it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.fields.base import GridSample
from repro.geometry.delaunay import DelaunayTriangulation
from repro.geometry.interpolation import LinearSurfaceInterpolator


class WindowErrorTracker:
    """The cavity-window local-error update (the fan update's oracle)."""

    def __init__(self, reference: GridSample, obs=None) -> None:
        self.reference = reference
        self.tri = DelaunayTriangulation()
        self.vertex_values: List[float] = []
        self.err = np.zeros_like(reference.values)

    def insert(self, x: float, y: float, z: float) -> int:
        index = self.tri.insert((x, y))
        if index != len(self.vertex_values):
            raise RuntimeError("triangulation index out of sync with values")
        self.vertex_values.append(z)
        if self.tri.n_points >= 3 and self.tri.simplices.size:
            self._update(index)
        return index

    def _interpolator(
        self, simplices: Optional[np.ndarray] = None, extrapolate: str = "clamp"
    ) -> LinearSurfaceInterpolator:
        return LinearSurfaceInterpolator(
            self.tri.points,
            np.asarray(self.vertex_values, dtype=float),
            triangulation=self.tri.simplices if simplices is None else simplices,
            extrapolate=extrapolate,
        )

    def _recompute_all(self) -> None:
        approx = self._interpolator().evaluate_grid(
            self.reference.xs, self.reference.ys
        )
        self.err = np.abs(self.reference.values - approx)

    def _update(self, new_index: int) -> None:
        """Re-evaluate |f − DT| only inside the retriangulated cavity."""
        simp = self.tri.simplices
        new_tris = simp[(simp == new_index).any(axis=1)]
        if len(new_tris) == 0:
            self._recompute_all()
            return
        pts = self.tri.points
        cavity = pts[np.unique(new_tris)]
        xs, ys = self.reference.xs, self.reference.ys
        ix0 = int(np.searchsorted(xs, cavity[:, 0].min() - 1e-9))
        ix1 = int(np.searchsorted(xs, cavity[:, 0].max() + 1e-9))
        iy0 = int(np.searchsorted(ys, cavity[:, 1].min() - 1e-9))
        iy1 = int(np.searchsorted(ys, cavity[:, 1].max() + 1e-9))
        ix0, iy0 = max(ix0 - 1, 0), max(iy0 - 1, 0)
        ix1, iy1 = min(ix1 + 1, len(xs)), min(iy1 + 1, len(ys))
        if ix0 >= ix1 or iy0 >= iy1:
            return
        window = self._interpolator(
            simplices=np.asarray(new_tris, dtype=int), extrapolate="nan"
        ).evaluate_grid(xs[ix0:ix1], ys[iy0:iy1])
        inside = ~np.isnan(window)
        ref_window = self.reference.values[iy0:iy1, ix0:ix1]
        err_window = self.err[iy0:iy1, ix0:ix1]
        err_window[inside] = np.abs(ref_window - window)[inside]


class FullRecomputeTracker(WindowErrorTracker):
    """Re-evaluates the whole local-error grid after every insert."""

    def _update(self, new_index: int) -> None:
        self._recompute_all()
