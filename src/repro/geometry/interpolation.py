"""Piecewise-linear evaluation of a triangulated surface ``z* = DT(x, y)``.

The paper's quality metric (Theorem 3.1) integrates ``|f - DT|`` over the
whole region, so ``DT`` must be evaluated at every grid cell — tens of
thousands of queries per FRA step and per CMA round.

Kernel design
-------------
* :meth:`LinearSurfaceInterpolator.evaluate_grid` is a *grid-bucketed
  rasteriser*: each triangle locates its bounding box in the sorted tensor
  grid with two ``searchsorted`` calls per axis and evaluates barycentric
  weights only on that bounding-box **slice** of the output, so total work
  is O(Σ triangle-bbox areas) ≈ O(grid) instead of O(m · grid) full-grid
  boolean masks per triangle.
* Barycentric edge coefficients, determinants and vertex values are
  precomputed once per interpolator as per-triangle arrays; the rasteriser
  applies them with the same floating-point formula as
  :func:`repro.geometry.predicates.barycentric_weights`, so the fast path
  is bit-compatible with the per-triangle scan of
  :meth:`LinearSurfaceInterpolator.evaluate_grid_reference` (the tests'
  oracle).
* Out-of-hull extrapolation finds each query's least-violated triangle
  with a chunked whole-array scan over (triangle, query) pairs or, for
  large workloads, a Morton-blocked search that skips the pairs whose
  affine lower bound provably loses. Both walk their queries in chunks
  of about ``_EXTRAP_CHUNK_ELEMS`` (triangle, query) or (affine row,
  block) elements, so their working memory does not grow with the mesh
  times the query count. A hull-edge-only candidate set would be ~6x
  smaller but can pick a *different* least-violated triangle for far
  queries (a large interior triangle can out-score a boundary sliver),
  so exactness wins: both searches reproduce the sequential reference
  bit-for-bit.

Outside the convex hull of the samples ``DT`` is undefined; per DESIGN.md
§6.3 we extrapolate with the clamped barycentric coordinates of the
least-violated triangle. The extension is continuous, but it is not
nearest-point projection onto the hull: the two differ in most outside
cells of a fig10 round (DESIGN.md §6.3 has the measurement).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.geometry.delaunay import DelaunayTriangulation, delaunay_mesh
from repro.geometry.predicates import barycentric_weights
from repro.geometry.spatial_index import morton_argsort
from repro.obs.instrument import get_instrumentation

#: Barycentric slack treated as "inside" to absorb rounding on shared edges.
_INSIDE_TOL = 1e-9

#: Target elements per broadcast chunk in the vectorised extrapolation.
_EXTRAP_CHUNK_ELEMS = 500_000

#: Queries per block in the pruned extrapolation winner search.
_PRUNE_BLOCK = 16

#: Below this (triangles x queries) size the dense scan is cheaper than
#: setting up the block-pruned search.
_DENSE_EXTRAP_MAX = 150_000


def barycentric_coordinates(
    point: Tuple[float, float],
    a: Tuple[float, float],
    b: Tuple[float, float],
    c: Tuple[float, float],
) -> Tuple[float, float, float]:
    """Barycentric coordinates of one point w.r.t. triangle ``abc``."""
    px = np.asarray(point[0], dtype=float)
    py = np.asarray(point[1], dtype=float)
    wa, wb, wc = barycentric_weights(px, py, a, b, c)
    return float(wa), float(wb), float(wc)


class LinearSurfaceInterpolator:
    """Evaluate the piecewise-linear surface over a triangulation.

    Parameters
    ----------
    points:
        ``(n, 2)`` sample positions.
    values:
        ``(n,)`` sampled field values ``z_i``.
    triangulation:
        Either a :class:`DelaunayTriangulation` over exactly these points, an
        ``(m, 3)`` index array, or ``None`` to build the Delaunay
        triangulation internally with
        :func:`repro.geometry.delaunay.delaunay_mesh` (duplicates
        collapsed, the first value kept; the triangles, in canonical
        order, depend only on the point set, see :func:`delaunay_mesh`).
    extrapolate:
        ``"clamp"`` (default) extends the surface outside the sample hull via
        clamped barycentric coordinates; ``"nan"`` returns NaN there.
    mesher:
        What builds the triangulation when ``triangulation`` is ``None``:
        a callable with the ``(kept, simplices)`` contract of
        :func:`delaunay_mesh`, such as a
        :class:`repro.geometry.delaunay.DelaunayMesher` carried between
        calls. Defaults to :func:`delaunay_mesh`.
    """

    def __init__(
        self,
        points: np.ndarray,
        values: np.ndarray,
        triangulation: Union[DelaunayTriangulation, np.ndarray, None] = None,
        extrapolate: str = "clamp",
        mesher: Optional[
            Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
        ] = None,
    ) -> None:
        if extrapolate not in ("clamp", "nan"):
            raise ValueError(f"unknown extrapolate mode: {extrapolate!r}")
        self.points = np.asarray(points, dtype=float).reshape(-1, 2)
        self.values = np.asarray(values, dtype=float).reshape(-1)
        if len(self.points) != len(self.values):
            raise ValueError(
                f"{len(self.points)} points but {len(self.values)} values"
            )
        if len(self.points) == 0:
            raise ValueError("cannot interpolate zero samples")
        self.extrapolate = extrapolate

        if triangulation is None:
            # Build internally, collapsing duplicate positions (keeping the
            # first value seen) so triangle indices stay aligned with the
            # point/value arrays.
            kept, self.simplices = (mesher or delaunay_mesh)(self.points)
            self.points = self.points[kept]
            self.values = self.values[kept]
        elif isinstance(triangulation, DelaunayTriangulation):
            self.simplices = triangulation.simplices
        else:
            self.simplices = np.asarray(triangulation, dtype=int).reshape(-1, 3)
        if self.simplices.size and self.simplices.max() >= len(self.points):
            raise ValueError("triangle index out of range for the point set")
        self.simplices = self._drop_degenerate(self.simplices)
        self._tables: Optional[Tuple[np.ndarray, ...]] = None
        self._prune: Optional[Tuple[np.ndarray, ...]] = None
        self._viol_table: Optional[np.ndarray] = None

    def _drop_degenerate(self, simplices: np.ndarray) -> np.ndarray:
        """Remove numerically degenerate (near-zero-area) triangles.

        Near-collinear sample layouts (e.g. mobile nodes snapped onto a
        common Rc circle by the connectivity mechanism) can yield sliver
        triangles whose barycentric transform is singular; they carry no
        area, so dropping them changes the surface nowhere.
        """
        if not simplices.size:
            return simplices
        a = self.points[simplices[:, 0]]
        b = self.points[simplices[:, 1]]
        c = self.points[simplices[:, 2]]
        det = (b[:, 1] - c[:, 1]) * (a[:, 0] - c[:, 0]) + (
            c[:, 0] - b[:, 0]
        ) * (a[:, 1] - c[:, 1])
        return simplices[np.abs(det) > 1e-9]

    def _bary_tables(self) -> Tuple[np.ndarray, ...]:
        """Per-triangle barycentric coefficients, built once, lazily.

        The weight of vertex ``a`` at query ``(x, y)`` is
        ``(ea1·(x − cx) + ea2·(y − cy)) / det`` — identical terms, in
        identical order, to :func:`barycentric_weights`.
        """
        if self._tables is None:
            simp = self.simplices
            a = self.points[simp[:, 0]]
            b = self.points[simp[:, 1]]
            c = self.points[simp[:, 2]]
            det = (b[:, 1] - c[:, 1]) * (a[:, 0] - c[:, 0]) + (
                c[:, 0] - b[:, 0]
            ) * (a[:, 1] - c[:, 1])
            ea1, ea2 = b[:, 1] - c[:, 1], c[:, 0] - b[:, 0]
            eb1, eb2 = c[:, 1] - a[:, 1], a[:, 0] - c[:, 0]
            va = self.values[simp[:, 0]]
            vb = self.values[simp[:, 1]]
            vc = self.values[simp[:, 2]]
            xs3 = np.stack([a[:, 0], b[:, 0], c[:, 0]])
            ys3 = np.stack([a[:, 1], b[:, 1], c[:, 1]])
            self._tables = (
                det, ea1, ea2, eb1, eb2, c[:, 0], c[:, 1], va, vb, vc,
                xs3.min(axis=0), xs3.max(axis=0),
                ys3.min(axis=0), ys3.max(axis=0),
            )
        return self._tables

    # ------------------------------------------------------------------
    def __call__(self, x, y):
        """Evaluate at scalar or array coordinates (broadcast together)."""
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        xa, ya = np.broadcast_arrays(xa, ya)
        flat = self._evaluate(xa.ravel(), ya.ravel())
        result = flat.reshape(xa.shape)
        if result.shape == ():
            return float(result)
        return result

    def evaluate_grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Evaluate on the tensor grid ``ys x xs``; returns ``(len(ys), len(xs))``.

        Uses the grid-bucketed rasteriser when both axes are sorted
        ascending (every grid in this library); falls back to the scattered
        reference path otherwise. The grid path's two stages, rasterising
        the hull and extrapolating outside it, are timed as the
        ``rasterize`` and ``extrapolate`` spans of the ambient
        instrumentation.
        """
        xs = np.asarray(xs, dtype=float).reshape(-1)
        ys = np.asarray(ys, dtype=float).reshape(-1)
        if (
            self.simplices.size == 0
            or (len(xs) > 1 and np.any(np.diff(xs) < 0))
            or (len(ys) > 1 and np.any(np.diff(ys) < 0))
        ):
            return self.evaluate_grid_reference(xs, ys)

        obs = get_instrumentation()
        n_cols, n_rows = len(xs), len(ys)
        with obs.span("rasterize"):
            out, win_cell = self._rasterize(xs, ys)
        if len(win_cell) < out.size and self.extrapolate == "clamp":
            with obs.span("extrapolate"):
                filled = np.zeros(out.size, dtype=bool)
                filled[win_cell] = True
                # flat indices ascend, so queries arrive in row-major order
                # just as the reference's np.nonzero(unfilled) produces them.
                miss = np.flatnonzero(~filled)
                out[miss] = self._extrapolate_clamped(
                    xs[miss % n_cols], ys[miss // n_cols]
                )
        return out.reshape(n_rows, n_cols)

    def _rasterize(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rasterise the triangles onto the grid, flattened row-major.

        Returns the values (NaN in cells no triangle covers) and the
        flat indices of the covered cells.
        """
        n_cols, n_rows = len(xs), len(ys)
        (det, ea1, ea2, eb1, eb2, cx, cy, va, vb, vc,
         xmin, xmax, ymin, ymax) = self._bary_tables()
        # Bounding-box index windows, matching the reference candidate test
        # px >= xmin - tol and px <= xmax + tol (ditto y).
        ix0 = np.searchsorted(xs, xmin - _INSIDE_TOL)
        ix1 = np.searchsorted(xs, xmax + _INSIDE_TOL, side="right")
        iy0 = np.searchsorted(ys, ymin - _INSIDE_TOL)
        iy1 = np.searchsorted(ys, ymax + _INSIDE_TOL, side="right")
        width = ix1 - ix0
        n_cells = width * (iy1 - iy0)

        # Flatten every (triangle, bbox cell) pair into one 1-D batch: `tid`
        # repeats each triangle id over its bbox, and integer div/mod on the
        # within-bbox rank recovers the (row, col) offsets. Total work is
        # O(sum of bbox areas), with no per-triangle Python iteration.
        total = int(n_cells.sum())
        start = np.concatenate(([0], np.cumsum(n_cells)[:-1]))
        tid = np.repeat(np.arange(len(det)), n_cells)
        rank = np.arange(total) - np.repeat(start, n_cells)
        row, col = np.divmod(rank, np.maximum(width, 1)[tid])
        jj = iy0[tid] + row
        ii = ix0[tid] + col

        dx = xs[ii] - cx[tid]
        dy = ys[jj] - cy[tid]
        wa = (ea1[tid] * dx + ea2[tid] * dy) / det[tid]
        wb = (eb1[tid] * dx + eb2[tid] * dy) / det[tid]
        wc = 1.0 - wa - wb
        inside = (wa >= -_INSIDE_TOL) & (wb >= -_INSIDE_TOL) & (wc >= -_INSIDE_TOL)

        # A grid cell on a shared edge is claimed by several triangles; the
        # reference scan keeps the first in `simplices` order, so resolve
        # each cell to its lowest claiming `tid` (lexsort is stable and
        # `tid` is ascending within equal cells already by construction,
        # but sort both keys to be explicit).
        cell = jj[inside] * n_cols + ii[inside]
        order = np.lexsort((tid[inside], cell))
        cell_sorted = cell[order]
        first = np.ones(len(cell_sorted), dtype=bool)
        first[1:] = cell_sorted[1:] != cell_sorted[:-1]
        win = order[first]
        win_cell = cell_sorted[first]

        out = np.full(n_rows * n_cols, np.nan, dtype=float)
        win_tid = tid[inside][win]
        out[win_cell] = (
            wa[inside][win] * va[win_tid]
            + wb[inside][win] * vb[win_tid]
            + wc[inside][win] * vc[win_tid]
        )
        return out, win_cell

    def evaluate_grid_reference(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> np.ndarray:
        """Rasteriser-free grid evaluation (the tests' equivalence oracle)."""
        xx, yy = np.meshgrid(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
        return self._evaluate(xx.ravel(), yy.ravel()).reshape(xx.shape)

    # ------------------------------------------------------------------
    def _evaluate(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Scattered-point evaluation: per-triangle scan over all queries.

        This is the pre-rasteriser algorithm, kept as the scattered-query
        path (``__call__``) and as the oracle the grid fast path is
        property-tested against.
        """
        out = np.full(px.shape, np.nan, dtype=float)
        if self.simplices.size == 0:
            # Degenerate sample set (collinear or < 3 points): nearest sample.
            if self.extrapolate == "clamp":
                return self._nearest(px, py)
            return out

        unfilled = np.ones(px.shape, dtype=bool)
        for ia, ib, ic in self.simplices:
            if not unfilled.any():
                break
            a, b, c = self.points[ia], self.points[ib], self.points[ic]
            xmin, xmax = min(a[0], b[0], c[0]), max(a[0], b[0], c[0])
            ymin, ymax = min(a[1], b[1], c[1]), max(a[1], b[1], c[1])
            cand = (
                unfilled
                & (px >= xmin - _INSIDE_TOL)
                & (px <= xmax + _INSIDE_TOL)
                & (py >= ymin - _INSIDE_TOL)
                & (py <= ymax + _INSIDE_TOL)
            )
            if not cand.any():
                continue
            idx = np.nonzero(cand)[0]
            wa, wb, wc = barycentric_weights(px[idx], py[idx], a, b, c)
            inside = (wa >= -_INSIDE_TOL) & (wb >= -_INSIDE_TOL) & (wc >= -_INSIDE_TOL)
            if not inside.any():
                continue
            sel = idx[inside]
            out[sel] = (
                wa[inside] * self.values[ia]
                + wb[inside] * self.values[ib]
                + wc[inside] * self.values[ic]
            )
            unfilled[sel] = False

        if unfilled.any() and self.extrapolate == "clamp":
            out[unfilled] = self._extrapolate_clamped(px[unfilled], py[unfilled])
        return out

    def _extrapolate_clamped(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Clamped-barycentric extension for points outside the hull.

        For each query, every triangle proposes the value obtained by
        clamping the barycentric weights to ``[0, 1]`` and renormalising;
        the triangle whose raw weights are least violated wins. For a query
        just outside the hull the winning triangle is the hull triangle it
        faces, so this coincides with projecting the query onto the hull.

        Stage 1 finds each query's winning triangle — via a dense scan for
        small workloads or the block-pruned search for large ones — and
        stage 2 computes the clamped value for the single winner per query
        at O(q) cost. Both stages use the exact weight formula (and hence
        every rounding step) of `barycentric_weights`, so the result matches
        a sequential per-triangle scan (the tests' oracle) bit-for-bit.
        """
        px = np.asarray(px, dtype=float).reshape(-1)
        py = np.asarray(py, dtype=float).reshape(-1)
        q = px.size
        out = np.empty(q, dtype=float)
        if q == 0:
            return out
        (det, ea1, ea2, eb1, eb2, cx, cy, va, vb, vc,
         _, _, _, _) = self._bary_tables()
        m = len(det)
        if m * q > _DENSE_EXTRAP_MAX and m >= 8 and q >= 4 * _PRUNE_BLOCK:
            winner = self._extrapolate_winners_pruned(px, py)
        else:
            winner = self._extrapolate_winners_dense(px, py)

        wdx = px - cx[winner]
        wdy = py - cy[winner]
        wwa = (ea1[winner] * wdx + ea2[winner] * wdy) / det[winner]
        wwb = (eb1[winner] * wdx + eb2[winner] * wdy) / det[winner]
        wwc = 1.0 - wwa - wwb
        ca = np.clip(wwa, 0.0, None)
        cb = np.clip(wwb, 0.0, None)
        cc = np.clip(wwc, 0.0, None)
        out[:] = (
            ca * va[winner] + cb * vb[winner] + cc * vc[winner]
        ) / (ca + cb + cc)
        return out

    def _violations(
        self, tid: np.ndarray, qx: np.ndarray, qy: np.ndarray
    ) -> np.ndarray:
        """Violation of each ``(triangle[tid[i]], query[i])`` pair.

        Uses the canonical `barycentric_weights` term order so the values
        equal the reference scan's elementwise. The seven per-triangle
        columns are gathered with one fancy-index over a stacked table.
        """
        (det, ea1, ea2, eb1, eb2, cx, cy, _, _, _,
         _, _, _, _) = self._bary_tables()
        if self._viol_table is None:
            self._viol_table = np.ascontiguousarray(
                np.stack([cx, cy, ea1, ea2, eb1, eb2, det])
            )
        g = self._viol_table[:, tid]
        dx = qx - g[0]
        dy = qy - g[1]
        wa = (g[2] * dx + g[3] * dy) / g[6]
        wb = (g[4] * dx + g[5] * dy) / g[6]
        wc = 1.0 - wa - wb
        return -np.minimum(np.minimum(wa, wb), wc)

    def _extrapolate_winners_dense(
        self, px: np.ndarray, py: np.ndarray
    ) -> np.ndarray:
        """Least-violated triangle per query via a chunked dense scan.

        In-place ufuncs over reused (m, chunk) buffers keep the pass count
        minimal; argmax of min-weight keeps the first maximum, which is the
        first strict improvement of the reference's
        ``violation < best_violation`` ordering — identical winner.
        """
        q = px.size
        (det, ea1, ea2, eb1, eb2, cx, cy, _, _, _,
         _, _, _, _) = self._bary_tables()
        m = len(det)
        chunk = max(1, _EXTRAP_CHUNK_ELEMS // max(m, 1))
        detc = det[:, None]
        ea1c, ea2c = ea1[:, None], ea2[:, None]
        eb1c, eb2c = eb1[:, None], eb2[:, None]
        cxc, cyc = cx[:, None], cy[:, None]
        shape = (m, min(chunk, q))
        dx = np.empty(shape)
        dy = np.empty(shape)
        wa = np.empty(shape)
        wb = np.empty(shape)
        tmp = np.empty(shape)
        winner = np.empty(q, dtype=np.intp)
        for s in range(0, q, chunk):
            e = min(s + chunk, q)
            n = e - s
            dxn, dyn = dx[:, :n], dy[:, :n]
            wan, wbn, tmpn = wa[:, :n], wb[:, :n], tmp[:, :n]
            np.subtract(px[None, s:e], cxc, out=dxn)
            np.subtract(py[None, s:e], cyc, out=dyn)
            np.multiply(ea1c, dxn, out=wan)
            np.multiply(ea2c, dyn, out=tmpn)
            np.add(wan, tmpn, out=wan)
            np.divide(wan, detc, out=wan)
            np.multiply(eb1c, dxn, out=wbn)
            np.multiply(eb2c, dyn, out=tmpn)
            np.add(wbn, tmpn, out=wbn)
            np.divide(wbn, detc, out=wbn)
            # tmp <- wc = 1 - wa - wb, then tmp <- min(wa, wb, wc)
            np.subtract(1.0, wan, out=tmpn)
            np.subtract(tmpn, wbn, out=tmpn)
            np.minimum(tmpn, wan, out=tmpn)
            np.minimum(tmpn, wbn, out=tmpn)
            winner[s:e] = np.argmax(tmpn, axis=0)
        return winner

    def _prune_tables(self) -> Tuple[np.ndarray, ...]:
        """Per-triangle data for the block-pruned extrapolation search.

        ``-w_i`` is affine in the query, so the violation is a max of three
        affine functions; its rows are stored as ``(3m,)`` coefficient
        arrays together with each triangle's centroid and a conservative
        rounding slack.
        """
        if self._prune is None:
            (det, ea1, ea2, eb1, eb2, cx, cy, _, _, _,
             _, _, _, _) = self._bary_tables()
            # wa = Aa·x + Ba·y + Ca (ditto wb); wc = 1 - wa - wb.
            aa, ba = ea1 / det, ea2 / det
            ca_ = -(ea1 * cx + ea2 * cy) / det
            ab, bb = eb1 / det, eb2 / det
            cb_ = -(eb1 * cx + eb2 * cy) / det
            # Rows of the three affine functions f_i = -w_i.
            fa = np.concatenate([-aa, -ab, aa + ab])
            fb = np.concatenate([-ba, -bb, ba + bb])
            fc = np.concatenate([-ca_, -cb_, ca_ + cb_ - 1.0])
            simp = self.simplices
            gx = self.points[simp, 0].mean(axis=1)
            gy = self.points[simp, 1].mean(axis=1)
            # Worst-case violation growth rate: the violation increases
            # from a triangle at most as fast as the steepest affine row.
            # Slivers have enormous row gradients, so plain
            # nearest-centroid picks them as candidates while their
            # violations are huge; weighting distance by this rate makes
            # the candidate the *least-violated* nearby triangle instead.
            grad2 = (fa * fa + fb * fb).reshape(3, -1).max(axis=0)
            self._prune = (fa, fb, fc, gx, gy, grad2)
        return self._prune

    def _extrapolate_winners_pruned(
        self, px: np.ndarray, py: np.ndarray
    ) -> np.ndarray:
        """Least-violated triangle per query, skipping provably-losing pairs.

        Queries are Morton-ordered and grouped into blocks of
        ``_PRUNE_BLOCK``. For each (triangle, block) pair a corner-evaluated
        affine lower bound on the violation over the block's bounding box
        (``min-box max_i affine_i >= max_i min-box affine_i``) is compared —
        minus a conservative rounding slack — against an exact per-block
        upper bound obtained from candidate triangles. Pairs that provably
        lose are skipped; survivors are evaluated with the canonical formula
        and reduced with the reference's first-strict-min tie rule, so the
        winner is exact. The bound is tight for far blocks (one affine row
        dominates there), which is precisely where the dense scan wastes its
        work.

        All of it runs per chunk of ``_EXTRAP_CHUNK_ELEMS // 3m`` blocks
        (at least one), from the bounds to the tie rule and the dense
        fallback, so the ``(blocks, 3m)`` bound matrices stay near
        ``_EXTRAP_CHUNK_ELEMS`` elements, like the dense scan's buffers,
        whatever the mesh and query counts. The rounding slack is set once
        from all the queries, so the chunking moves no winner.
        """
        q = px.size
        fa, fb, fc, gx, gy, grad2 = self._prune_tables()
        m = len(gx)
        # Morton-order the queries first so each block is spatially compact
        # (row-major miss cells from a grid would otherwise pair far-apart
        # hull margins into one block, ruining the bounding boxes).
        perm = morton_argsort(px, py)
        px, py = px[perm], py[perm]
        nb = -(-q // _PRUNE_BLOCK)
        pad = nb * _PRUNE_BLOCK - q
        qxp = np.concatenate([px, np.full(pad, px[-1])]) if pad else px
        qyp = np.concatenate([py, np.full(pad, py[-1])]) if pad else py
        bx = qxp.reshape(nb, _PRUNE_BLOCK)
        by = qyp.reshape(nb, _PRUNE_BLOCK)
        xbox = np.stack([bx.min(axis=1), bx.max(axis=1)], 1)
        ybox = np.stack([by.min(axis=1), by.max(axis=1)], 1)
        # Each affine row is least at the box corner its slope points
        # away from: the low edge where the coefficient is >= 0.
        xcorner = (fa < 0.0).astype(np.intp)
        ycorner = (fb < 0.0).astype(np.intp)
        scale = np.abs(fa) * max(np.abs(qxp).max(), 1.0) + np.abs(fb) * max(
            np.abs(qyp).max(), 1.0
        ) + np.abs(fc)
        slack = 1e-9 * (1.0 + scale.reshape(3, m).max(axis=0))

        winner_full = np.empty(nb * _PRUNE_BLOCK, dtype=np.intp)
        step = max(1, _EXTRAP_CHUNK_ELEMS // (3 * m))
        for b0 in range(0, nb, step):
            b1 = min(b0 + step, nb)
            nc = b1 - b0
            qs = slice(b0 * _PRUNE_BLOCK, b1 * _PRUNE_BLOCK)
            qx, qy = qxp[qs], qyp[qs]
            xb, yb = xbox[b0:b1], ybox[b0:b1]
            # Lower bound per (block, triangle): each affine row minimised
            # at its own box corner, then max over the triangle's three
            # rows. Same terms in the same order as fa·x + fb·y + fc.
            lb3 = xb[:, xcorner]
            lb3 *= fa
            ysel = yb[:, ycorner]
            ysel *= fb
            lb3 += ysel
            lb3 += fc
            # Chunk-sized temporaries are dropped once spent, so at most
            # two are alive at a time.
            del ysel
            lb3 = lb3.reshape(nc, 3, m)
            lb = lb3.max(axis=1)

            # Exact per-query upper bounds from block candidates: nearest
            # centroid to the block centre plus the block's two least lower
            # bounds (the exact winner usually has one of the smallest lbs,
            # so a second lb candidate tightens ``best`` toward the true
            # optimum and shrinks the surviving pair set).
            bcx = (xb[:, 0] + xb[:, 1]) / 2.0
            bcy = (yb[:, 0] + yb[:, 1]) / 2.0
            d2 = (gx[None, :] - bcx[:, None]) ** 2 + (gy[None, :] - bcy[:, None]) ** 2
            d2 *= grad2  # approximate violation², not raw distance²
            cand1 = np.repeat(np.argmin(d2, axis=1), _PRUNE_BLOCK)
            del d2
            best = self._violations(cand1, qx, qy)
            if m > 2:
                lb_cands = np.argpartition(lb, 1, axis=1)[:, :2]
            else:
                lb_cands = np.argmin(lb, axis=1)[:, None]
            for cand in lb_cands.T:
                np.minimum(
                    best,
                    self._violations(np.repeat(cand, _PRUNE_BLOCK), qx, qy),
                    out=best,
                )
            best = best.reshape(nc, _PRUNE_BLOCK)

            lb -= slack
            bpair, tpair = np.nonzero(lb <= best.max(axis=1)[:, None])
            # Per-query tightening: the block filter above compares a
            # whole-box lower bound against the *loosest* candidate
            # violation in the block, so spread-out blocks admit many
            # hopeless (triangle, query) pairs. Re-bound each surviving pair
            # at the individual queries with the affine row that dominated
            # the box bound: that row evaluated at the query is still a
            # lower bound on the exact violation (the violation is the max
            # of the three rows) but is tight for far triangles, where one
            # row dominates — precisely where the box bound over-admits.
            # Every triangle achieving a query's exact minimum passes
            # (row <= violation = min <= best) and so does the query's
            # argmin candidate, so each query keeps at least one pair and
            # winners and ties are unaffected.
            ridx = lb3[bpair, :, tpair].argmax(axis=1) * m + tpair
            del lb3, lb
            gb = bpair + b0
            rv = (
                fa[ridx][:, None] * bx[gb]
                + fb[ridx][:, None] * by[gb]
                + fc[ridx][:, None]
            )
            keep = rv - slack[tpair][:, None] <= best[bpair]
            pair_idx, qoff = np.nonzero(keep)
            tid = tpair[pair_idx]
            qidx = bpair[pair_idx] * _PRUNE_BLOCK + qoff
            viol = self._violations(tid, qx[qidx], qy[qidx])

            order = np.argsort(qidx, kind="stable")
            qsorted = qidx[order]
            vs = viol[order]
            newgrp = np.empty(len(qsorted), dtype=bool)
            newgrp[0] = True
            newgrp[1:] = qsorted[1:] != qsorted[:-1]
            starts = np.flatnonzero(newgrp)
            if len(starts) != nc * _PRUNE_BLOCK:
                # A query lost every pair — only possible if the slack were
                # undersized; fall back to the exhaustive scan.
                winner_full[qs] = self._extrapolate_winners_dense(qx, qy)
                continue
            gmin = np.minimum.reduceat(vs, starts)
            gid = np.cumsum(newgrp) - 1
            # Among pairs achieving the group minimum, keep the earliest;
            # the stable sort preserves ascending triangle order within a
            # query, so this is the reference's first-strict-improvement
            # winner.
            pos = np.flatnonzero(vs == gmin[gid])
            firstpos = np.full(len(starts), len(vs), dtype=np.intp)
            np.minimum.at(firstpos, gid[pos], pos)
            winner_full[qs] = tid[order][firstpos]
        winner = np.empty(q, dtype=np.intp)
        winner[perm] = winner_full[:q]
        return winner

    def _nearest(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        d2 = (px[:, None] - self.points[None, :, 0]) ** 2 + (
            py[:, None] - self.points[None, :, 1]
        ) ** 2
        return self.values[np.argmin(d2, axis=1)]

    def __repr__(self) -> str:
        return (
            f"LinearSurfaceInterpolator(n={len(self.points)}, "
            f"m={len(self.simplices)}, extrapolate={self.extrapolate!r})"
        )
