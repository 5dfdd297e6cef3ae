"""The triangles depend on the point set, not on the insertion order.

Each point carries its index in one fixed order as its tie-break
priority (see ``DelaunayTriangulation._bad``), so inserting the same
points in any order gives the canonical triangle set of the in-order
build. ``delaunay_mesh`` relies on this: it inserts in BRIO order and
must return exactly what ``DelaunayTriangulation(points)`` gives. The
predicates are exact, so this holds for near-ties and near-duplicates
too (DESIGN.md section 6.13).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaunay_reference import (
    is_delaunay,
    near_tie_lattice,
    near_vertex_lattice,
)
from repro.core.baselines import uniform_grid_placement
from repro.core.problem import OSTDProblem
from repro.experiments import config
from repro.fields.greenorbs import GreenOrbsLightField
from repro.geometry.delaunay import (
    DelaunayTriangulation,
    brio_order,
    canonical_simplices,
    delaunay_mesh,
)
from repro.geometry.interpolation import LinearSurfaceInterpolator
from repro.geometry.primitives import BoundingBox
from repro.sim.engine import MobileSimulation, default_grid_layout


def _in_order(points):
    return canonical_simplices(DelaunayTriangulation(points).simplices)


def _permuted(points, perm):
    tri = DelaunayTriangulation()
    for i in perm:
        x, y = points[i]
        tri._insert_new(float(x), float(y), int(i))
    return canonical_simplices(perm[tri.simplices])


def assert_order_independent(points, seed, n_perms=3, exact=False):
    """Reversed, BRIO and random orders give the in-order build's triangles.

    ``exact=True`` also checks that the in-order build is Delaunay under
    the ``Fraction`` empty-circle test.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    in_order = DelaunayTriangulation(points)
    if exact:
        assert is_delaunay(in_order)
    expected = canonical_simplices(in_order.simplices)
    rng = np.random.default_rng(seed)
    n = len(points)
    perms = [np.arange(n)[::-1], brio_order(points)]
    perms += [rng.permutation(n) for _ in range(n_perms)]
    for perm in perms:
        assert np.array_equal(_permuted(points, perm), expected), perm
    kept, simplices = delaunay_mesh(points)
    assert np.array_equal(kept, np.arange(n))
    assert np.array_equal(simplices, expected)


seeds = st.integers(0, 2**32 - 1)


class TestInsertPermutations:
    @given(
        nx=st.integers(2, 8),
        ny=st.integers(2, 8),
        spacing=st.sampled_from(
            [1.0, 10.0, 0.1, 0.3, 7.0, 0.05, 0.02, 0.005, 0.001]
        ),
        x0=st.floats(-50.0, 50.0),
        y0=st.floats(-50.0, 50.0),
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_offset_lattices(self, nx, ny, spacing, x0, y0, seed):
        # Every lattice cell is cocircular: the tie rule decides it.
        pts = [(x0 + spacing * i, y0 + spacing * j)
               for j in range(ny) for i in range(nx)]
        assert_order_independent(pts, seed)

    @given(
        n=st.integers(2, 7),
        spacing=st.sampled_from([1.0, 0.1, 0.005, 0.001]),
        x0=st.floats(-50.0, 50.0),
        y0=st.floats(-50.0, 50.0),
        jitter=st.sampled_from([0.0, 1e-10]),
        near=st.sampled_from([None, 5e-9]),
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_near_tie_lattices(self, n, spacing, x0, y0, jitter, near, seed):
        # Near-ties an absolute tolerance of 1e-9 cannot tell from ties:
        # fine spacing, every point moved by up to 1e-10, and one point
        # 5e-9 from a lattice vertex. The in-order build must also be
        # exactly Delaunay.
        rng = np.random.default_rng(seed)
        g = np.arange(n) * spacing
        xx, yy = np.meshgrid(x0 + g, y0 + g)
        pts = np.c_[xx.ravel(), yy.ravel()]
        pts = pts + rng.uniform(-jitter, jitter, size=pts.shape)
        if near is not None:
            v = pts[rng.integers(len(pts))]
            pts = np.vstack([pts, v + near * np.array([0.6, 0.8])])
        assert_order_independent(pts, seed, exact=True)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["fine", "near", "jitter"])
    def test_near_tie_lattices_of_the_equivalence_tests(self, kind, seed, reverse):
        pts = near_tie_lattice(kind, seed)
        if reverse:
            pts = pts[::-1]
        assert_order_independent(pts, seed, exact=True)

    def test_near_vertex_lattice(self):
        # The reversed build of this input once failed (see
        # test_delaunay_edge_cases.TestNearVertexLattice).
        assert_order_independent(near_vertex_lattice(), 0, exact=True)

    @given(
        rows=st.lists(
            st.lists(st.integers(0, 40), min_size=1, max_size=10, unique=True),
            min_size=1, max_size=4,
        ),
        spacing=st.sampled_from([1.0, 2.5, 10.0]),
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_collinear_rows(self, rows, spacing, seed):
        # Points on a few horizontal lines; with one row every point is
        # collinear and there is no real triangle at all.
        pts = [(float(x), spacing * r)
               for r, xs in enumerate(rows) for x in xs]
        assert_order_independent(pts, seed)

    @given(
        pts=st.lists(
            st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
            min_size=1, max_size=60, unique=True,
        ),
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_uniform_points(self, pts, seed):
        # Drop points within the dedup tolerance of an earlier one.
        pts = DelaunayTriangulation(pts, skip_duplicates=True).points
        assert_order_independent(pts, seed)


@pytest.fixture(scope="module")
def cma_large_rounds():
    """The k=2500 grid start and the positions after two CMA rounds."""
    field = GreenOrbsLightField(
        side=5 * config.SIDE, seed=7, freeze_sun_at=config.T_REFERENCE
    )
    problem = OSTDProblem(
        k=2500, rc=config.RC, rs=config.RS, region=field.region,
        field=field, speed=config.SPEED, t0=config.T_REFERENCE, duration=2.0,
    )
    rounds = MobileSimulation(
        problem, params=config.cma_params(), resolution=51
    ).run().rounds
    grid = default_grid_layout(BoundingBox.square(5 * config.SIDE), 2500, 10.0)
    return [grid] + [r.positions for r in rounds]


def test_k2500_grid_start_over_470_by_470():
    # Lattice steps of 9.4, which is no binary fraction: the cells are
    # near-ties, not ties (see test_delaunay_edge_cases.TestGridStartStaysLocal).
    pts = uniform_grid_placement(BoundingBox(0, 0, 470, 470), 2500)
    expected = _in_order(pts)
    perm = np.random.default_rng(0).permutation(len(pts))
    assert np.array_equal(_permuted(pts, perm), expected)
    assert np.array_equal(delaunay_mesh(pts)[1], expected)


def test_k2500_grid_start_and_first_cma_rounds(cma_large_rounds):
    for i, pts in enumerate(cma_large_rounds):
        expected = _in_order(pts)
        rng = np.random.default_rng(i)
        for perm in (brio_order(pts), rng.permutation(len(pts))):
            assert np.array_equal(_permuted(pts, perm), expected), i
        assert np.array_equal(delaunay_mesh(pts)[1], expected), i


class TestMeasurementMesh:
    def test_duplicates_collapse_in_input_order(self):
        pts = np.array([
            (0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 0.0),
            (10.0, 10.0), (5e-10, 0.0), (4.0, 6.0),
        ])
        values = np.arange(len(pts), dtype=float)
        interp = LinearSurfaceInterpolator(pts, values)
        in_order = DelaunayTriangulation(pts, skip_duplicates=True)
        assert np.array_equal(interp.points, in_order.points)
        assert interp.values.tolist() == [0.0, 1.0, 2.0, 4.0, 6.0]
        assert np.array_equal(
            interp.simplices, canonical_simplices(in_order.simplices)
        )

    def test_brio_order_is_a_fixed_permutation(self):
        pts = np.random.default_rng(3).uniform(0, 100, size=(300, 2))
        order = brio_order(pts)
        assert sorted(order.tolist()) == list(range(300))
        assert np.array_equal(order, brio_order(pts.copy()))
