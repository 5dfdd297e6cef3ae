"""Tests for piecewise-linear surface evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.delaunay import DelaunayTriangulation
from repro.geometry.interpolation import (
    LinearSurfaceInterpolator,
    barycentric_coordinates,
)
from repro.geometry.predicates import barycentric_weights


def plane(x, y):
    return 2.0 * x - 3.0 * y + 1.0


def clamped_extrapolation_reference(interp, px, py):
    """Sequential per-triangle extrapolation scan (the oracle).

    Every triangle proposes its clamped-barycentric value; the first
    triangle with the least violated weights wins.
    """
    best_violation = np.full(px.shape, np.inf, dtype=float)
    best_value = np.full(px.shape, np.nan, dtype=float)
    for ia, ib, ic in interp.simplices:
        a, b, c = interp.points[ia], interp.points[ib], interp.points[ic]
        wa, wb, wc = barycentric_weights(px, py, a, b, c)
        violation = -np.minimum(np.minimum(wa, wb), wc)
        ca = np.clip(wa, 0.0, None)
        cb = np.clip(wb, 0.0, None)
        cc = np.clip(wc, 0.0, None)
        value = (
            ca * interp.values[ia] + cb * interp.values[ib] + cc * interp.values[ic]
        ) / (ca + cb + cc)
        better = violation < best_violation
        best_violation[better] = violation[better]
        best_value[better] = value[better]
    return best_value


def lattice_margin(n, spacing, offset, cells, side):
    """An ``n x n`` sample lattice and the grid cells outside its hull.

    The samples are ``offset + spacing * i``; the queries are the cells of
    a ``cells x cells`` grid over ``[0, side]^2`` outside the lattice's
    square, in row-major order.
    """
    g = offset + spacing * np.arange(n)
    xx, yy = np.meshgrid(g, g)
    pts = np.c_[xx.ravel(), yy.ravel()]
    axis = np.linspace(0.0, side, cells)
    gx, gy = np.meshgrid(axis, axis)
    gx, gy = gx.ravel(), gy.ravel()
    lo, hi = g[0], g[-1]
    out = (gx < lo) | (gx > hi) | (gy < lo) | (gy > hi)
    return pts, gx[out], gy[out]


class TestBarycentric:
    def test_centroid(self):
        w = barycentric_coordinates((1, 1), (0, 0), (3, 0), (0, 3))
        assert np.allclose(w, (1 / 3, 1 / 3, 1 / 3))


class TestExactness:
    def test_reproduces_plane_exactly(self, rng):
        pts = rng.uniform(0, 10, size=(20, 2))
        values = plane(pts[:, 0], pts[:, 1])
        interp = LinearSurfaceInterpolator(pts, values)
        # Query inside the hull.
        q = rng.uniform(2, 8, size=(50, 2))
        assert np.allclose(interp(q[:, 0], q[:, 1]), plane(q[:, 0], q[:, 1]))

    def test_interpolates_vertices_exactly(self, rng):
        pts = rng.uniform(0, 10, size=(15, 2))
        values = rng.normal(size=15)
        interp = LinearSurfaceInterpolator(pts, values)
        assert np.allclose(interp(pts[:, 0], pts[:, 1]), values, atol=1e-9)

    def test_scalar_query(self):
        interp = LinearSurfaceInterpolator(
            np.array([[0, 0], [2, 0], [0, 2]]), np.array([0.0, 2.0, 2.0])
        )
        out = interp(1.0, 0.5)
        assert isinstance(out, float)
        assert np.isclose(out, 1.5)

    def test_scipy_cross_validation(self, rng):
        from scipy.interpolate import LinearNDInterpolator

        pts = rng.uniform(0, 100, size=(40, 2))
        values = np.sin(pts[:, 0] / 10) + np.cos(pts[:, 1] / 7)
        ours = LinearSurfaceInterpolator(pts, values, extrapolate="nan")
        theirs = LinearNDInterpolator(pts, values)
        q = rng.uniform(10, 90, size=(200, 2))
        a = ours(q[:, 0], q[:, 1])
        b = theirs(q[:, 0], q[:, 1])
        both = ~(np.isnan(a) | np.isnan(b))
        assert both.mean() > 0.9
        assert np.allclose(a[both], b[both], atol=1e-6)


class TestExtrapolation:
    def test_nan_mode(self):
        interp = LinearSurfaceInterpolator(
            np.array([[0, 0], [2, 0], [0, 2]]),
            np.array([1.0, 1.0, 1.0]),
            extrapolate="nan",
        )
        assert np.isnan(interp(10.0, 10.0))

    def test_clamp_mode_is_finite_everywhere(self, rng):
        pts = rng.uniform(40, 60, size=(10, 2))
        interp = LinearSurfaceInterpolator(pts, rng.normal(size=10))
        grid = interp.evaluate_grid(np.linspace(0, 100, 21), np.linspace(0, 100, 21))
        assert np.isfinite(grid).all()

    def test_clamp_constant_surface(self, rng):
        pts = rng.uniform(40, 60, size=(10, 2))
        interp = LinearSurfaceInterpolator(pts, np.full(10, 7.0))
        assert np.isclose(interp(0.0, 0.0), 7.0)
        assert np.isclose(interp(99.0, 1.0), 7.0)

    def test_clamp_continuous_at_hull(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        interp = LinearSurfaceInterpolator(pts, np.array([0.0, 10.0, 20.0]))
        inside = interp(5.0, 0.0)
        just_outside = interp(5.0, -1e-6)
        assert np.isclose(inside, just_outside, atol=1e-3)

    def test_bad_mode_raises(self):
        with pytest.raises(ValueError):
            LinearSurfaceInterpolator(
                np.zeros((3, 2)), np.zeros(3), extrapolate="wild"
            )


class TestDegenerateInputs:
    def test_single_point_nearest(self):
        interp = LinearSurfaceInterpolator(np.array([[5.0, 5.0]]), np.array([3.0]))
        assert interp(0.0, 0.0) == 3.0

    def test_collinear_points_nearest(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        interp = LinearSurfaceInterpolator(pts, np.array([1.0, 2.0, 3.0]))
        assert interp(2.1, 2.1) == 3.0

    def test_duplicate_points_collapsed(self):
        pts = np.array([[0, 0], [0, 0], [4, 0], [0, 4]], dtype=float)
        vals = np.array([1.0, 99.0, 2.0, 3.0])
        interp = LinearSurfaceInterpolator(pts, vals)
        # First value wins for the duplicate.
        assert np.isclose(interp(0.0, 0.0), 1.0)

    def test_zero_samples_raises(self):
        with pytest.raises(ValueError):
            LinearSurfaceInterpolator(np.empty((0, 2)), np.empty(0))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            LinearSurfaceInterpolator(np.zeros((3, 2)), np.zeros(4))

    def test_index_out_of_range_raises(self):
        with pytest.raises(ValueError):
            LinearSurfaceInterpolator(
                np.zeros((3, 2)), np.zeros(3), triangulation=np.array([[0, 1, 7]])
            )


class TestGridEvaluation:
    def test_grid_shape_and_orientation(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        values = pts[:, 1]  # z = y
        interp = LinearSurfaceInterpolator(pts, values)
        xs = np.linspace(0, 10, 5)
        ys = np.linspace(0, 10, 3)
        grid = interp.evaluate_grid(xs, ys)
        assert grid.shape == (3, 5)
        assert np.allclose(grid[0], 0.0)   # first row = ys[0] = 0
        assert np.allclose(grid[-1], 10.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=4, max_value=30))
    def test_grid_matches_pointwise(self, n):
        rng = np.random.default_rng(n)
        pts = rng.uniform(0, 20, size=(n, 2))
        values = rng.normal(size=n)
        interp = LinearSurfaceInterpolator(pts, values)
        xs = np.linspace(0, 20, 7)
        ys = np.linspace(0, 20, 6)
        grid = interp.evaluate_grid(xs, ys)
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                assert np.isclose(grid[iy, ix], interp(x, y), atol=1e-9)


class TestFastPathVsReference:
    """PR-2 property tests: rasterised/pruned fast paths vs the oracles.

    The fast grid path (`evaluate_grid`) and the block-pruned
    extrapolation search are designed to reproduce the reference
    algorithms' floating-point results exactly; these tests pin the four
    query regimes — strictly inside the hull, on edges/vertices, outside
    (clamp extrapolation, both dense and pruned search), and degenerate
    sample sets — to within 1e-9 of the reference, and bit-for-bit where
    the design promises it.
    """

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_inside_hull(self, seed):
        rng = np.random.default_rng(seed)
        pts = np.vstack([
            [[0.0, 0.0], [100.0, 0.0], [100.0, 100.0], [0.0, 100.0]],
            rng.uniform(0, 100, size=(20, 2)),
        ])
        values = rng.normal(size=len(pts))
        interp = LinearSurfaceInterpolator(pts, values)
        xs = np.linspace(5.0, 95.0, 31)   # strictly interior
        ys = np.linspace(5.0, 95.0, 29)
        fast = interp.evaluate_grid(xs, ys)
        ref = interp.evaluate_grid_reference(xs, ys)
        assert np.all(np.abs(fast - ref) <= 1e-9)
        # The rasteriser replays the reference's weight arithmetic and
        # first-claimant tie rule, so the match is in fact exact.
        assert np.array_equal(fast, ref)

    def test_on_edges_and_vertices(self):
        # Samples on an integer lattice; query the lattice itself, so
        # every query sits exactly on a vertex or a triangle edge.
        xs0 = np.arange(0.0, 6.0)
        pts = np.array([(x, y) for x in xs0 for y in xs0])
        rng = np.random.default_rng(7)
        values = rng.normal(size=len(pts))
        interp = LinearSurfaceInterpolator(pts, values)
        mids = np.arange(0.0, 5.5, 0.5)   # vertices + edge midpoints
        fast = interp.evaluate_grid(mids, mids)
        ref = interp.evaluate_grid_reference(mids, mids)
        assert np.array_equal(fast, ref)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_outside_clamp_dense_search(self, seed):
        # Hull confined to the middle of the region; the surrounding grid
        # cells all extrapolate. Small enough workload that the dense
        # winner scan runs.
        rng = np.random.default_rng(seed)
        pts = rng.uniform(40, 60, size=(12, 2))
        values = rng.normal(size=len(pts))
        interp = LinearSurfaceInterpolator(pts, values)
        qx = rng.uniform(0, 100, size=200)
        qy = rng.uniform(0, 100, size=200)
        fast = interp._extrapolate_clamped(qx, qy)
        ref = clamped_extrapolation_reference(interp, qx, qy)
        assert np.all(np.abs(fast - ref) <= 1e-9)
        assert np.array_equal(fast, ref)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_outside_clamp_pruned_search(self, seed):
        # Large triangle count x query count pushes _extrapolate_clamped
        # over _DENSE_EXTRAP_MAX into the block-pruned search.
        from repro.geometry import interpolation as interp_mod

        rng = np.random.default_rng(seed)
        pts = rng.uniform(30, 70, size=(100, 2))
        values = rng.normal(size=len(pts))
        interp = LinearSurfaceInterpolator(pts, values)
        qx = rng.uniform(0, 100, size=2500)
        qy = rng.uniform(0, 100, size=2500)
        m = len(interp.simplices)
        assert m * len(qx) > interp_mod._DENSE_EXTRAP_MAX  # pruned regime
        fast = interp._extrapolate_clamped(qx, qy)
        ref = clamped_extrapolation_reference(interp, qx, qy)
        assert np.all(np.abs(fast - ref) <= 1e-9)
        assert np.array_equal(fast, ref)

    @pytest.mark.parametrize("chunk", ["one_block", 20_000, "default"])
    def test_outside_clamp_pruned_search_lattice_ties(self, monkeypatch, chunk):
        # A lattice's margin cells tie between triangles (458 of the 1,080
        # here): the first triangle in `simplices` order must win, whether
        # the blocks are searched one per chunk, a few per chunk, or all
        # in one chunk.
        from repro.geometry import interpolation as interp_mod

        pts, qx, qy = lattice_margin(20, 10.0, 25.0, 51, 250.0)
        interp = LinearSurfaceInterpolator(
            pts, np.random.default_rng(3).normal(size=len(pts))
        )
        m = len(interp.simplices)
        assert (m, len(qx)) == (722, 1080)
        assert m * len(qx) > interp_mod._DENSE_EXTRAP_MAX  # pruned regime
        viol = np.stack([
            interp._violations(np.full(len(qx), t), qx, qy) for t in range(m)
        ])
        assert (viol == viol.min(axis=0)).sum(axis=0).max() > 1  # ties
        if chunk == "one_block":
            chunk = 3 * m
        if chunk != "default":
            monkeypatch.setattr(interp_mod, "_EXTRAP_CHUNK_ELEMS", chunk)
        assert np.array_equal(
            interp._extrapolate_winners_pruned(qx, qy),
            interp._extrapolate_winners_dense(qx, qy),
        )
        fast = interp._extrapolate_clamped(qx, qy)
        ref = clamped_extrapolation_reference(interp, qx, qy)
        assert np.array_equal(fast, ref)

    def test_pruned_search_memory_bounded_by_chunk(self):
        # The working memory of the pruned search is set by
        # _EXTRAP_CHUNK_ELEMS, not by triangles x queries: here one whole
        # (3m x blocks) bound matrix alone would take about four chunks.
        import tracemalloc

        from repro.geometry import interpolation as interp_mod

        pts, qx, qy = lattice_margin(50, 9.0, 29.5, 101, 500.0)
        interp = LinearSurfaceInterpolator(pts, np.zeros(len(pts)))
        m = len(interp.simplices)
        assert (m, len(qx)) == (4802, 2280)
        interp._extrapolate_clamped(qx, qy)  # build the lazy tables
        tracemalloc.start()
        try:
            interp._extrapolate_clamped(qx, qy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * interp_mod._EXTRAP_CHUNK_ELEMS * 8

    def test_degenerate_collinear_nearest(self):
        # Collinear samples build no triangles: both paths fall back to
        # nearest-sample. evaluate_grid must agree with the reference.
        pts = np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 10.0]])
        values = np.array([1.0, 2.0, 3.0])
        interp = LinearSurfaceInterpolator(pts, values)
        xs = np.linspace(0, 10, 9)
        fast = interp.evaluate_grid(xs, xs)
        ref = interp.evaluate_grid_reference(xs, xs)
        assert np.array_equal(fast, ref)
        assert np.array_equal(fast[0, :3], np.array([1.0, 1.0, 1.0]))

    def test_degenerate_sliver_triangles(self):
        # Nearly-collinear jitter produces sliver triangles that the
        # constructor drops; the survivors must still evaluate identically
        # on both paths, including the extrapolated margin.
        rng = np.random.default_rng(11)
        x = np.linspace(0, 10, 12)
        pts = np.column_stack([x, 2.0 * x + rng.normal(0, 1e-9, size=len(x))])
        pts = np.vstack([pts, [[5.0, 30.0]]])  # one point off the line
        values = rng.normal(size=len(pts))
        interp = LinearSurfaceInterpolator(pts, values)
        xs = np.linspace(-2, 12, 15)
        fast = interp.evaluate_grid(xs, xs)
        ref = interp.evaluate_grid_reference(xs, xs)
        assert np.array_equal(fast, ref)
