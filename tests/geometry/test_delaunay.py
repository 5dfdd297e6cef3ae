"""Tests for the incremental Bowyer-Watson Delaunay triangulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaunay_reference import (
    exact_incircle,
    exact_orient,
    is_delaunay,
    mesh_edges,
)
from repro.geometry.delaunay import (
    DelaunayTriangulation,
    DuplicatePointError,
    _orient,
)
from repro.fields.grid import GridField
from repro.geometry.predicates import circumcenter, orientation
from repro.geometry.primitives import BoundingBox
from repro.sim.engine import default_grid_layout
from repro.surfaces.reconstruction import reconstruct_surface


class TestBasics:
    def test_empty(self):
        dt = DelaunayTriangulation()
        assert dt.n_points == 0
        assert dt.simplices.shape == (0, 3)

    def test_single_triangle(self):
        dt = DelaunayTriangulation([(0, 0), (10, 0), (0, 10)])
        assert dt.n_points == 3
        assert len(dt.simplices) == 1
        a, b, c = dt.simplices[0]
        pts = dt.points
        assert orientation(pts[a], pts[b], pts[c]) == 1  # CCW

    def test_square_two_triangles(self):
        dt = DelaunayTriangulation([(0, 0), (10, 0), (10, 10), (0, 10)])
        assert len(dt.simplices) == 2
        assert len(mesh_edges(dt)) == 5  # 4 sides + 1 diagonal

    def test_duplicate_raises(self):
        dt = DelaunayTriangulation([(0, 0), (1, 0)])
        with pytest.raises(DuplicatePointError):
            dt.insert((0, 0))

    def test_skip_duplicates(self):
        dt = DelaunayTriangulation(skip_duplicates=True)
        i = dt.insert((0, 0))
        j = dt.insert((0, 0))
        assert i == j == 0
        assert dt.n_points == 1

    def test_points_in_insertion_order(self):
        dt = DelaunayTriangulation([(1, 2), (3, 4)])
        assert dt.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_out_of_span_raises(self):
        dt = DelaunayTriangulation(span=10.0)
        with pytest.raises(ValueError):
            dt.insert((1e9, 1e9))

    def test_repr(self):
        dt = DelaunayTriangulation([(0, 0), (1, 0), (0, 1)])
        assert "n_points=3" in repr(dt)


class TestDelaunayProperty:
    def test_random_points_are_delaunay(self, rng):
        pts = rng.uniform(0, 100, size=(40, 2))
        dt = DelaunayTriangulation(pts)
        assert is_delaunay(dt)

    def test_grid_points(self):
        # Cocircular grid points: any valid Delaunay triangulation is fine.
        pts = [(float(x), float(y)) for x in range(5) for y in range(5)]
        dt = DelaunayTriangulation(pts)
        assert dt.n_points == 25
        # Euler: for n points with h on the hull, triangles = 2n - h - 2.
        assert len(dt.simplices) == 2 * 25 - 16 - 2

    def test_scipy_triangle_count(self, rng):
        from scipy.spatial import Delaunay as SciDT

        pts = rng.uniform(0, 100, size=(80, 2))
        ours = DelaunayTriangulation(pts)
        theirs = SciDT(pts)
        assert len(ours.simplices) == len(theirs.simplices)

    def test_scipy_edge_sets_match(self, rng):
        from scipy.spatial import Delaunay as SciDT

        pts = rng.uniform(0, 100, size=(50, 2))
        ours = DelaunayTriangulation(pts)
        theirs = SciDT(pts)
        sci_edges = set()
        for simplex in theirs.simplices:
            a, b, c = sorted(int(v) for v in simplex)
            sci_edges |= {(a, b), (b, c), (a, c)}
        assert set(mesh_edges(ours)) == sci_edges

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            min_size=3,
            max_size=25,
            unique=True,
        )
    )
    def test_property_all_inputs_delaunay(self, pts):
        dt = DelaunayTriangulation(skip_duplicates=True)
        for p in pts:
            dt.insert(p)
        assert is_delaunay(dt)

    def test_point_on_existing_edge(self):
        # Hypothesis-found regression: a non-duplicate point lying exactly
        # on an existing (near-degenerate, collinear) edge was strictly
        # inside no circumcircle under the old tolerance, and insert()
        # wrongly raised "outside the working area". Exactly, a point on
        # an edge is strictly inside the circumcircle of both triangles
        # beside it.
        pts = [(0.0, 0.0), (0.0, 1e-05), (0.0, 5.960464477539063e-08)]
        dt = DelaunayTriangulation(skip_duplicates=True)
        for p in pts:
            dt.insert(p)
        assert dt.n_points == 3
        assert is_delaunay(dt)

    def test_collinear_midpoint_insert(self):
        dt = DelaunayTriangulation(skip_duplicates=True)
        for p in [(0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (1.0, 1.0)]:
            dt.insert(p)
        assert dt.n_points == 4
        assert is_delaunay(dt)

    def test_incremental_matches_batch(self, rng):
        pts = rng.uniform(0, 50, size=(30, 2))
        batch = DelaunayTriangulation(pts)
        incremental = DelaunayTriangulation()
        for p in pts:
            incremental.insert(p)
        assert set(mesh_edges(batch)) == set(mesh_edges(incremental))


class TestCocircularGridStart:
    """The default grid start: every lattice cell is a cocircular quad.

    Its Delaunay triangulation is not unique, so the build's tie rule
    decides which diagonal each cell gets — and δ depends on that choice.
    """

    @pytest.fixture
    def grid(self):
        region = BoundingBox.square(100.0)
        return default_grid_layout(region, 100, 10.0)

    def test_mesh_is_delaunay(self, grid):
        dt = DelaunayTriangulation(grid)
        assert dt.n_points == 100
        assert is_delaunay(dt)
        # A 10x10 lattice: 2 triangles per cell, 81 cells.
        assert len(dt.simplices) == 162

    def test_same_delta_on_two_builds(self, grid, greenorbs_reference):
        values = GridField(greenorbs_reference).sample(grid)
        a = reconstruct_surface(greenorbs_reference, grid, values=values)
        b = reconstruct_surface(greenorbs_reference, grid, values=values)
        assert np.isfinite(a.delta)
        assert a.delta == b.delta
        assert np.array_equal(a.surface.values, b.surface.values)


class TestCircumcircleCache:
    """Meshes built with the kernel's in-circle test stay Delaunay.

    That test against the whole-scan oracle, insert by insert, is in
    test_delaunay_equivalence.py.
    """

    def test_incremental_build_stays_delaunay(self, rng):
        dt = DelaunayTriangulation()
        pts = rng.uniform(0, 100, size=(50, 2))
        for p in pts:
            dt.insert(p)
        assert is_delaunay(dt)

    def test_clustered_vs_scipy_edges(self, rng):
        from scipy.spatial import Delaunay as SciDT

        centres = rng.uniform(25, 75, size=(5, 2))
        pts = np.vstack([
            c + rng.normal(0, 2.0, size=(10, 2)) for c in centres
        ])
        ours = DelaunayTriangulation(pts)
        theirs = SciDT(pts)
        sci_edges = set()
        for simplex in theirs.simplices:
            a, b, c = sorted(int(v) for v in simplex)
            sci_edges |= {(a, b), (b, c), (a, c)}
        assert set(mesh_edges(ours)) == sci_edges
        assert is_delaunay(ours)


def assert_slots_consistent(tri):
    """Each live triangle's slots name the triangles across its edges.

    Slot ``i`` of ``(a, b, c)`` covers edge ``i`` of ``(a,b) (b,c) (c,a)``.
    A slot ``n >= 0`` names a live triangle that holds the reversed edge
    and whose slot for it names the triangle back; ``-1`` marks exactly
    the edges between two super-triangle vertices (indices 0..2). Every
    triangle is strictly counter-clockwise.
    """
    tris = tri._tris
    assert tri._nbr.keys() == tris.keys()
    for t, (a, b, c) in tris.items():
        assert exact_orient(*(tri._verts[v] for v in (a, b, c))) > 0, t
        for (u, v), n in zip(((a, b), (b, c), (c, a)), tri._nbr[t]):
            assert (n == -1) == (u < 3 and v < 3), (t, (u, v), n)
            if n == -1:
                continue
            na, nb, nc = tris[n]
            across = ((na, nb), (nb, nc), (nc, na))
            assert (v, u) in across, (t, (u, v), n)
            assert tri._nbr[n][across.index((v, u))] == t, (t, (u, v), n)


lattice_points = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).map(
        lambda p: (float(p[0]), float(p[1]))
    ),
    min_size=1, max_size=50,
)
uniform_points = st.lists(
    st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
    min_size=1, max_size=60,
)


class TestNeighbourSlots:
    """The neighbour slots after every insert."""

    @given(st.one_of(lattice_points, uniform_points))
    @settings(max_examples=60, deadline=None)
    def test_slots_after_every_insert(self, pts):
        tri = DelaunayTriangulation(skip_duplicates=True)
        assert_slots_consistent(tri)
        for p in pts:
            tri.insert(p)
            assert_slots_consistent(tri)

    def test_slots_after_a_fan_around_a_lattice_point(self):
        # Points on an integer lattice: every cell is cocircular, so the
        # cavities the tie rule gives are wide and the fans long.
        tri = DelaunayTriangulation(
            [(float(x), float(y)) for y in range(6) for x in range(6)]
        )
        assert_slots_consistent(tri)
        tri.insert((2.5, 2.5))
        assert len(tri.new_triangles) >= 4
        assert_slots_consistent(tri)


def _exact_agrees(points, queries):
    """The kernel's two predicates say what a ``Fraction`` oracle says.

    Over a mesh of ``points``, every live triangle, the super-triangle's
    included (their circles are 1e6 across): the in-circle test says bad
    exactly when the query is strictly inside, since each query ranks as
    the next point and a tie is "outside". And the orientation of each
    query against each triangle edge has the exact sign.
    """
    tri = DelaunayTriangulation(points, skip_duplicates=True)
    for rec in tri._tris.values():
        pa, pb, pc = (tri._verts[v] for v in rec)
        for q in queries:
            q = (float(q[0]), float(q[1]))
            bad = tri._bad(rec, *q, tri.n_points)
            assert bad == (exact_incircle(pa, pb, pc, q) > 0), (pa, pb, pc, q)
            for u, v in ((pa, pb), (pb, pc), (pc, pa)):
                side = _orient(*u, *v, *q)
                assert np.sign(side) == exact_orient(u, v, q), (u, v, q)


def _ulp_moves(x, y):
    """``(x, y)`` and the eight points one ulp away in x, y or both."""
    xs = (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))
    ys = (math.nextafter(y, -math.inf), y, math.nextafter(y, math.inf))
    return [(u, v) for u in xs for v in ys]


offsets = st.floats(-2e4, 2e4, allow_nan=False)
scales = st.floats(1e-2, 1e2, allow_nan=False)


class TestCachedInCircleAgreesWithScalar:
    """The float filter only decides the clear cases; integers decide the rest.

    Each input sits inside the stage-A error bound somewhere: exact
    lattice ties at offsets up to 2e4, super-triangle-sized circles, and
    queries one ulp off a tie. The oracle is ``fractions.Fraction``.
    """

    def test_translated_lattice_corner(self):
        # The fourth corner of a rectangle is exactly cocircular.
        a, b, c = (398.5, 29.4), (407.5, 29.4), (398.5, 38.5)
        assert exact_incircle(a, b, c, (407.5, 38.5)) == 0
        _exact_agrees([a, b, c], _ulp_moves(407.5, 38.5))

    @given(x0=offsets, y0=offsets, w=scales, h=scales)
    @settings(max_examples=200, deadline=None)
    def test_translated_scaled_lattice_rectangles(self, x0, y0, w, h):
        corners = [(x0, y0), (x0 + w, y0), (x0, y0 + h)]
        queries = [(x0 + i * w, y0 + j * h)
                   for i in range(-1, 3) for j in range(-1, 3)]
        queries += _ulp_moves(x0 + w, y0 + h)
        _exact_agrees(corners, queries)

    @given(
        x0=offsets, y0=offsets, scale=scales,
        unit=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
        nudge=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_triangles(self, x0, y0, scale, unit, nudge):
        pts = np.asarray(unit).reshape(3, 2) * scale + (x0, y0)
        a, b, c = (tuple(map(float, p)) for p in pts)
        if orientation(a, b, c) == 0:
            return
        centre, _ = circumcenter(a, b, c)
        u = np.array([centre.x, centre.y])
        queries = []
        for v in pts:
            # The antipode of each vertex, and points just inside and
            # just outside the circle near it.
            queries.append(2 * u - v)
            for s in (1 - nudge, 1 + nudge):
                queries.append(u + s * (v - u))
        queries += _ulp_moves(*map(float, 2 * u - pts[0]))
        _exact_agrees([a, b, c], queries)

    @given(x0=offsets, y0=offsets,
           t=st.sampled_from([1e-12, 1e-6, 0.25, 0.5, 1 - 1e-9]))
    @settings(max_examples=100, deadline=None)
    def test_super_triangle_sized_circles(self, x0, y0, t):
        # One real point: every triangle has two super vertices. Queries
        # on the segments to the super vertices lie inside those circles
        # by a hair against r^2 ~ 1e13.
        tri = DelaunayTriangulation()
        queries = []
        for sx, sy in tri._verts:
            qx, qy = x0 + t * (sx - x0), y0 + t * (sy - y0)
            queries += _ulp_moves(qx, qy)
        _exact_agrees([(x0, y0)], queries)
