"""Tests for the incremental Bowyer-Watson Delaunay triangulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.delaunay import (
    DelaunayTriangulation,
    DuplicatePointError,
    Triangle,
)
from repro.fields.grid import GridField
from repro.geometry.predicates import circumcenter, incircle, orientation
from repro.geometry.primitives import BoundingBox
from repro.sim.engine import default_grid_layout
from repro.surfaces.reconstruction import reconstruct_surface


class TestTriangle:
    def test_edges(self):
        t = Triangle(0, 1, 2)
        assert frozenset((0, 1)) in t.edges()
        assert frozenset((1, 2)) in t.edges()
        assert frozenset((2, 0)) in t.edges()

    def test_has_vertex(self):
        t = Triangle(3, 5, 9)
        assert t.has_vertex(5)
        assert not t.has_vertex(4)


class TestBasics:
    def test_empty(self):
        dt = DelaunayTriangulation()
        assert dt.n_points == 0
        assert dt.triangles == []
        assert dt.simplices.shape == (0, 3)

    def test_single_triangle(self):
        dt = DelaunayTriangulation([(0, 0), (10, 0), (0, 10)])
        assert dt.n_points == 3
        assert len(dt.triangles) == 1
        tri = dt.triangles[0]
        pts = dt.points
        assert orientation(pts[tri.a], pts[tri.b], pts[tri.c]) == 1  # CCW

    def test_square_two_triangles(self):
        dt = DelaunayTriangulation([(0, 0), (10, 0), (10, 10), (0, 10)])
        assert len(dt.triangles) == 2
        assert len(dt.edges()) == 5  # 4 sides + 1 diagonal

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

    def test_point_accessor(self):
        dt = DelaunayTriangulation([(1, 2), (3, 4)])
        assert tuple(dt.point(0)) == (1.0, 2.0)
        with pytest.raises(IndexError):
            dt.point(2)

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
        assert dt.is_delaunay(eps=1e-5)

    def test_grid_points(self):
        # Cocircular grid points: any valid Delaunay triangulation is fine.
        pts = [(float(x), float(y)) for x in range(5) for y in range(5)]
        dt = DelaunayTriangulation(pts)
        assert dt.n_points == 25
        # Euler: for n points with h on the hull, triangles = 2n - h - 2.
        assert len(dt.triangles) == 2 * 25 - 16 - 2

    def test_scipy_triangle_count(self, rng):
        from scipy.spatial import Delaunay as SciDT

        pts = rng.uniform(0, 100, size=(80, 2))
        ours = DelaunayTriangulation(pts)
        theirs = SciDT(pts)
        assert len(ours.triangles) == len(theirs.simplices)

    def test_scipy_edge_sets_match(self, rng):
        from scipy.spatial import Delaunay as SciDT

        pts = rng.uniform(0, 100, size=(50, 2))
        ours = DelaunayTriangulation(pts)
        theirs = SciDT(pts)
        sci_edges = set()
        for simplex in theirs.simplices:
            a, b, c = sorted(int(v) for v in simplex)
            sci_edges |= {(a, b), (b, c), (a, c)}
        assert set(ours.edges()) == sci_edges

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
        assert dt.is_delaunay(eps=1e-4)

    def test_point_on_existing_edge(self):
        # Hypothesis-found regression: a non-duplicate point lying exactly
        # on an existing (near-degenerate, collinear) edge is strictly
        # inside no circumcircle, so the strict cavity scan came up empty
        # and insert() wrongly raised "outside the working area". The
        # closed-circumdisk fallback must absorb it instead.
        pts = [(0.0, 0.0), (0.0, 1e-05), (0.0, 5.960464477539063e-08)]
        dt = DelaunayTriangulation(skip_duplicates=True)
        for p in pts:
            dt.insert(p)
        assert dt.n_points == 3
        assert dt.is_delaunay(eps=1e-4)

    def test_collinear_midpoint_insert(self):
        dt = DelaunayTriangulation(skip_duplicates=True)
        for p in [(0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (1.0, 1.0)]:
            dt.insert(p)
        assert dt.n_points == 4
        assert dt.is_delaunay(eps=1e-4)

    def test_incremental_matches_batch(self, rng):
        pts = rng.uniform(0, 50, size=(30, 2))
        batch = DelaunayTriangulation(pts)
        incremental = DelaunayTriangulation()
        for p in pts:
            incremental.insert(p)
        assert set(batch.edges()) == set(incremental.edges())


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
        assert dt.is_delaunay()
        # A 10x10 lattice: 2 triangles per cell, 81 cells.
        assert len(dt.simplices) == 162

    def test_same_delta_on_two_builds(self, grid, greenorbs_reference):
        values = GridField(greenorbs_reference).sample(grid)
        a = reconstruct_surface(greenorbs_reference, grid, values=values)
        b = reconstruct_surface(greenorbs_reference, grid, values=values)
        assert np.isfinite(a.delta)
        assert a.delta == b.delta
        assert np.array_equal(a.surface.values, b.surface.values)


class TestLocate:
    def test_inside(self):
        dt = DelaunayTriangulation([(0, 0), (10, 0), (0, 10)])
        tri = dt.locate((2, 2))
        assert tri is not None

    def test_outside_hull(self):
        dt = DelaunayTriangulation([(0, 0), (10, 0), (0, 10)])
        assert dt.locate((50, 50)) is None

    def test_on_vertex(self):
        dt = DelaunayTriangulation([(0, 0), (10, 0), (0, 10), (10, 10)])
        assert dt.locate((0, 0)) is not None


class TestCircumcircleCache:
    """Meshes built with the cached circumcircle test stay Delaunay.

    The cached test against the whole-scan oracle, insert by insert, is
    in test_delaunay_equivalence.py.
    """

    def test_incremental_build_stays_delaunay(self, rng):
        dt = DelaunayTriangulation()
        pts = rng.uniform(0, 100, size=(50, 2))
        for p in pts:
            dt.insert(p)
        assert dt.is_delaunay(eps=1e-6)

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
        assert set(ours.edges()) == sci_edges
        assert ours.is_delaunay(eps=1e-6)


def assert_slots_consistent(tri):
    """Each live triangle's slots name the triangles across its edges.

    Slot ``i`` of ``(a, b, c)`` covers edge ``i`` of ``(a,b) (b,c) (c,a)``.
    A slot ``n >= 0`` names a live triangle that holds the reversed edge
    and whose slot for it names the triangle back; ``-1`` marks exactly
    the edges between two super-triangle vertices (indices 0..2).
    """
    tris = tri._tris
    assert tri._nbr.keys() == tris.keys()
    for t, rec in tris.items():
        a, b, c = rec[:3]
        for (u, v), n in zip(((a, b), (b, c), (c, a)), tri._nbr[t]):
            assert (n == -1) == (u < 3 and v < 3), (t, (u, v), n)
            if n == -1:
                continue
            na, nb, nc = tris[n][:3]
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
    """The neighbour slots after every insert, while the search is local."""

    @given(st.one_of(lattice_points, uniform_points))
    @settings(max_examples=60, deadline=None)
    def test_slots_after_every_insert(self, pts):
        tri = DelaunayTriangulation(skip_duplicates=True)
        assert_slots_consistent(tri)
        for p in pts:
            tri.insert(p)
            if not tri._local:
                assert tri._nbr == {}
                break
            assert_slots_consistent(tri)

    def test_slots_after_a_fan_around_a_lattice_point(self):
        # Points on an integer lattice: every cell is cocircular, so the
        # cavities the tie rule gives are wide and the fans long.
        tri = DelaunayTriangulation(
            [(float(x), float(y)) for y in range(6) for x in range(6)]
        )
        assert tri._local
        assert_slots_consistent(tri)
        tri.insert((2.5, 2.5))
        assert len(tri.new_triangles) >= 4
        assert_slots_consistent(tri)


def _cached_agrees(a, b, c, queries):
    """The cached in-circle test says bad exactly when the scalar one does.

    The triangle ``abc`` is the only real triangle of a three-point mesh;
    a flat ``abc`` (or one with a duplicate vertex) has none, and then
    there is nothing to compare. Each
    query ranks as the next point, so a tie is "outside" under both.
    """
    tri = DelaunayTriangulation([a, b, c], skip_duplicates=True)
    records = [rec for rec in tri._tris.values() if min(rec[:3]) >= 3]
    assert len(records) == len(tri.simplices)
    for rec in records:
        pa, pb, pc = (tri._verts[v] for v in rec[:3])
        for q in queries:
            qx, qy = float(q[0]), float(q[1])
            cached = tri._incircle(rec, qx, qy, tri.n_points) > 0
            scalar = incircle(pa, pb, pc, (qx, qy)) > 0
            assert cached == scalar, (pa, pb, pc, (qx, qy))


offsets = st.floats(-1e4, 1e4, allow_nan=False)
scales = st.floats(1e-2, 1e2, allow_nan=False)


class TestCachedInCircleAgreesWithScalar:
    """The cache only filters the clear cases; the scalar predicate decides.

    The centre and radius are cached, so their rounding must stay inside
    the band at any coordinate the super-triangle admits, not only near
    the origin.
    """

    def test_translated_lattice_corner(self):
        # The fourth corner is cocircular: the scalar predicate says tie
        # (0). A centre solved from absolute coordinates misses by
        # ~3e-11 at x ~ 400, which is past the old band of ~2e-11.
        a, b, c = (398.5, 29.4), (407.5, 29.4), (398.5, 38.5)
        assert incircle(a, b, c, (407.5, 38.5)) == 0
        _cached_agrees(a, b, c, [(407.5, 38.5)])

    @given(x0=offsets, y0=offsets, w=scales, h=scales)
    @settings(max_examples=200, deadline=None)
    def test_translated_scaled_lattice_rectangles(self, x0, y0, w, h):
        corners = [(x0, y0), (x0 + w, y0), (x0, y0 + h)]
        queries = [(x0 + i * w, y0 + j * h)
                   for i in range(-1, 3) for j in range(-1, 3)]
        _cached_agrees(*corners, queries)

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
        _cached_agrees(a, b, c, queries)
