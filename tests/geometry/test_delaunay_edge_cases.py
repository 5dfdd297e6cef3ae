"""Delaunay edge cases: collinear input, shared edges, dedup tolerance."""

import numpy as np
import pytest

from repro.geometry.delaunay import DelaunayTriangulation, DuplicatePointError


class TestCollinearInput:
    def test_collinear_points_have_no_triangles(self):
        dt = DelaunayTriangulation([(0, 0), (5, 5), (10, 10)])
        assert dt.n_points == 3
        assert dt.triangles == []
        assert dt.edges() == []

    def test_triangle_appears_once_off_line(self):
        dt = DelaunayTriangulation([(0, 0), (5, 5), (10, 10)])
        dt.insert((5, 0))
        assert len(dt.triangles) == 2  # fan around the off-line point


class TestDedupTolerance:
    def test_tolerance_respected(self):
        dt = DelaunayTriangulation([(0.0, 0.0)], dedup_tol=1e-3)
        with pytest.raises(DuplicatePointError):
            dt.insert((0.0, 5e-4))
        dt.insert((0.0, 5e-3))  # outside tolerance: fine
        assert dt.n_points == 2

    def test_find_vertex_radius(self):
        dt = DelaunayTriangulation([(1.0, 1.0)])
        assert dt.find_vertex((1.0, 1.0)) == 0
        assert dt.find_vertex((1.0, 1.0 + 1e-10)) == 0
        assert dt.find_vertex((1.1, 1.0)) is None
        assert dt.find_vertex((1.0, 1.05), tol=0.1) == 0


class TestSharedEdgeQueries:
    def test_locate_point_on_shared_edge(self):
        dt = DelaunayTriangulation([(0, 0), (10, 0), (10, 10), (0, 10)])
        # The diagonal is shared by both triangles; either is acceptable.
        tri = dt.locate((5.0, 5.0))
        assert tri is not None

    def test_edges_unique_and_sorted(self, rng):
        pts = rng.uniform(0, 30, size=(20, 2))
        dt = DelaunayTriangulation(pts)
        edges = dt.edges()
        assert edges == sorted(set(edges))
        for u, v in edges:
            assert u < v


class TestLargeCoordinates:
    def test_custom_span_supports_big_regions(self):
        dt = DelaunayTriangulation(span=1e9)
        for p in [(0, 0), (1e8, 0), (0, 1e8), (1e8, 1e8)]:
            dt.insert(p)
        assert len(dt.triangles) == 2

    def test_negative_coordinates(self):
        dt = DelaunayTriangulation([(-50, -50), (50, -50), (0, 50)])
        assert len(dt.triangles) == 1
        assert dt.is_delaunay()


class TestNearVertexLattice:
    """A 7x7 lattice of spacing 0.005 plus one point 1.2e-8 from a vertex.

    The built-in tolerance calls some of the lattice's fan triangles flat,
    and a reversed in-order build then finds no triangle holding the last
    point. An exact orientation test removes the failure; the strict
    xfail makes that fix flip this test.
    """

    @staticmethod
    def points():
        g = np.arange(7) * 0.005
        xx, yy = np.meshgrid(g, g)
        lattice = np.c_[xx.ravel(), yy.ravel()]
        lattice += (22.965544642994402, -32.4344379397441)
        return np.vstack([lattice, [22.985544631399293, -32.43443794283496]])

    def test_in_order_and_mesh_builds_succeed(self):
        from repro.geometry.delaunay import delaunay_mesh

        assert DelaunayTriangulation(self.points()).n_points == 50
        kept, simplices = delaunay_mesh(self.points())
        assert len(kept) == 50 and len(simplices) > 0

    @pytest.mark.xfail(
        strict=True, raises=ValueError,
        reason="tolerance-based orientation: outside the working area",
    )
    def test_reversed_build_succeeds(self):
        assert DelaunayTriangulation(self.points()[::-1]).n_points == 50


class TestGridStartStaysLocal:
    """The program's own k=2500 grid start over a 470 x 470 region.

    Its lattice coordinates (odd multiples of 4.7) are not exact binary
    fractions, so the cocircular cells become near-ties, not exact ties.
    At BRIO insert 176 the grown cavity then has 4 triangles but 8 border
    edges, the build leaves the local insert path, and every later insert
    scans all triangles: the build is about 25 times slower than at side
    500. ROADMAP item 1's exact predicates remove the failure; the strict
    xfail makes that fix flip this test.
    """

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 1: tolerance-based near-ties",
    )
    def test_brio_build_stays_local(self):
        from repro.core.baselines import uniform_grid_placement
        from repro.geometry.delaunay import _dedup_kept, brio_order
        from repro.geometry.primitives import BoundingBox

        pts = uniform_grid_placement(BoundingBox(0, 0, 470, 470), 2500)
        unique = pts[_dedup_kept(pts, 1e-9)]
        order = brio_order(unique)
        # delaunay_mesh's build, stopped at the first non-local step.
        tri = DelaunayTriangulation(dedup_tol=1e-9)
        coords = unique[order].tolist()
        for n, (i, (x, y)) in enumerate(zip(order.tolist(), coords)):
            tri._insert_new(x, y, i)
            assert tri._local, f"left the local path at insert {n}"
