"""Delaunay edge cases: collinear input, shared edges, dedup tolerance."""

import pytest

from delaunay_reference import is_delaunay, mesh_edges, near_vertex_lattice
from repro.geometry.delaunay import DelaunayTriangulation, DuplicatePointError


class TestCollinearInput:
    def test_collinear_points_have_no_triangles(self):
        dt = DelaunayTriangulation([(0, 0), (5, 5), (10, 10)])
        assert dt.n_points == 3
        assert len(dt.simplices) == 0
        assert mesh_edges(dt) == []

    def test_triangle_appears_once_off_line(self):
        dt = DelaunayTriangulation([(0, 0), (5, 5), (10, 10)])
        dt.insert((5, 0))
        assert len(dt.simplices) == 2  # fan around the off-line point


class TestDedupTolerance:
    def test_tolerance_respected(self):
        dt = DelaunayTriangulation([(0.0, 0.0)], dedup_tol=1e-3)
        with pytest.raises(DuplicatePointError):
            dt.insert((0.0, 5e-4))
        dt.insert((0.0, 5e-3))  # outside tolerance: fine
        assert dt.n_points == 2

    def test_duplicate_radius(self):
        dt = DelaunayTriangulation([(1.0, 1.0)], skip_duplicates=True)
        assert dt.insert((1.0, 1.0)) == 0
        assert dt.insert((1.0, 1.0 + 1e-10)) == 0
        assert dt.insert((1.1, 1.0)) == 1
        wide = DelaunayTriangulation(
            [(1.0, 1.0)], dedup_tol=0.1, skip_duplicates=True
        )
        assert wide.insert((1.0, 1.05)) == 0


class TestSharedEdgeQueries:
    def test_edges_unique_and_sorted(self, rng):
        pts = rng.uniform(0, 30, size=(20, 2))
        dt = DelaunayTriangulation(pts)
        edges = mesh_edges(dt)
        assert edges == sorted(set(edges))
        for u, v in edges:
            assert u < v


class TestLargeCoordinates:
    def test_custom_span_supports_big_regions(self):
        dt = DelaunayTriangulation(span=1e9)
        for p in [(0, 0), (1e8, 0), (0, 1e8), (1e8, 1e8)]:
            dt.insert(p)
        assert len(dt.simplices) == 2

    def test_negative_coordinates(self):
        dt = DelaunayTriangulation([(-50, -50), (50, -50), (0, 50)])
        assert len(dt.simplices) == 1
        assert is_delaunay(dt)


class TestNearVertexLattice:
    """A 7x7 lattice of spacing 0.005 plus one point 1.2e-8 from a vertex.

    An absolute tolerance on the orientation test called some of the
    lattice's fan triangles flat, and a reversed in-order build then found
    no triangle holding the last point. The exact orientation test builds
    it in any order.
    """

    def test_in_order_and_mesh_builds_succeed(self):
        from repro.geometry.delaunay import delaunay_mesh

        assert DelaunayTriangulation(near_vertex_lattice()).n_points == 50
        kept, simplices = delaunay_mesh(near_vertex_lattice())
        assert len(kept) == 50 and len(simplices) > 0

    def test_reversed_build_succeeds(self):
        tri = DelaunayTriangulation(near_vertex_lattice()[::-1])
        assert tri.n_points == 50
        assert is_delaunay(tri)


class TestGridStartStaysLocal:
    """The program's own k=2500 grid start over a 470 x 470 region.

    Its lattice coordinates (odd multiples of 4.7) are not exact binary
    fractions, so the cocircular cells become near-ties, not exact ties.
    An absolute tolerance once made a cavity that was not a disk there
    (at BRIO insert 176), and the build fell back to scanning every
    triangle, about 25 times slower than at side 500. With exact
    predicates each insert stays local: the build must do no more
    in-circle tests per insert than 1.1 times the 500 x 500 build.
    """

    @staticmethod
    def in_circle_tests_per_insert(side, monkeypatch):
        from repro.core.baselines import uniform_grid_placement
        from repro.geometry.delaunay import delaunay_mesh
        from repro.geometry.primitives import BoundingBox

        calls = []
        real_bad = DelaunayTriangulation._bad

        def bad(self, *args):
            calls.append(1)
            return real_bad(self, *args)

        pts = uniform_grid_placement(BoundingBox(0, 0, side, side), 2500)
        with monkeypatch.context() as patch:
            patch.setattr(DelaunayTriangulation, "_bad", bad)
            kept, _ = delaunay_mesh(pts)
        return len(calls) / len(kept)

    def test_brio_build_stays_local(self, monkeypatch):
        near_ties = self.in_circle_tests_per_insert(470.0, monkeypatch)
        exact_ties = self.in_circle_tests_per_insert(500.0, monkeypatch)
        assert near_ties <= 1.1 * exact_ties, (near_ties, exact_ties)
