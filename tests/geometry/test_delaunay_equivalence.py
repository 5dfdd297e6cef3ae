"""The local insert against the whole-scan oracle, after every insert.

:class:`DelaunayTriangulation` walks to the point and grows the cavity
through neighbours; :class:`ReferenceDelaunayTriangulation` (the insert as
in ``delaunay_reference.py``) tests every triangle with an exact
predicate written apart from the kernel's.
FRA rasterises ``simplices`` as they come, so the contract is exact: the
same rows, the same vertex rotation and the same row order, checked with
``np.array_equal`` after every insert, and the same return value or
exception type.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaunay_reference import (
    ReferenceDelaunayTriangulation,
    mesh_edges,
    near_tie_lattice,
    square_lattice,
)
from repro.core.fra import FRAConfig, solve_osd
from repro.core.problem import OSDProblem
from repro.experiments import config
from repro.geometry.delaunay import (
    DelaunayTriangulation,
    DuplicatePointError,
    delaunay_mesh,
)


def _outcome(tri, point):
    try:
        return tri.insert(point)
    except ValueError as exc:  # DuplicatePointError is a ValueError
        return type(exc)


def assert_same_inserts(points, **kwargs):
    """Insert ``points`` into both classes; compare after every insert."""
    fast = DelaunayTriangulation(**kwargs)
    ref = ReferenceDelaunayTriangulation(**kwargs)
    for i, p in enumerate(points):
        assert _outcome(fast, p) == _outcome(ref, p), f"insert {i}: {p}"
        assert np.array_equal(fast.simplices, ref.simplices), f"insert {i}: {p}"
        assert np.array_equal(fast.points, ref.points), f"insert {i}: {p}"
    return fast


coord = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)


class TestEquivalence:
    @given(st.lists(st.tuples(coord, coord), min_size=1, max_size=80))
    @settings(max_examples=40)
    def test_uniform_random_points(self, pts):
        assert_same_inserts(pts, skip_duplicates=True)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_clustered_points(self, seed):
        # Late-round CMA layouts cluster nodes tightly: near-cocircular
        # and sliver configurations are where the float filter is least
        # sure.
        rng = np.random.default_rng(seed)
        centres = rng.uniform(20, 80, size=(6, 2))
        pts = np.vstack([c + rng.normal(0, 0.4, size=(12, 2)) for c in centres])
        probes = pts + rng.normal(0, 0.05, size=pts.shape)
        assert_same_inserts(np.vstack([pts, probes]), skip_duplicates=True)

    @given(
        n=st.integers(2, 12),
        spacing=st.sampled_from([1.0, 10.0, 0.1, 0.3, 7.0]),
        offset=st.sampled_from([0.0, 0.5, 0.05]),
    )
    @settings(max_examples=25)
    def test_row_major_grid(self, n, spacing, offset):
        # Every cell of a grid is cocircular: the tie rule decides it.
        assert_same_inserts(square_lattice(n, spacing, offset))

    @given(
        n=st.integers(2, 10),
        spacing=st.sampled_from([1.0, 10.0, 0.1, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25)
    def test_shuffled_grid(self, n, spacing, seed):
        grid = square_lattice(n, spacing, 0.0)
        assert_same_inserts(np.random.default_rng(seed).permutation(grid))

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            min_size=1, max_size=70,
        ),
        st.booleans(),
    )
    @settings(max_examples=40)
    def test_integer_lattice_with_collinear_runs_and_duplicates(self, pts, skip):
        pts = [(float(x), float(y)) for x, y in pts]
        assert_same_inserts(pts, skip_duplicates=skip)

    @given(
        st.lists(st.tuples(coord, coord), min_size=2, max_size=25),
        st.sampled_from([1e-10, 1e-8]),
        st.floats(0.0, 2 * np.pi),
        st.booleans(),
    )
    @settings(max_examples=40)
    def test_near_duplicates(self, base, offset, angle, shuffle):
        base = np.unique(np.asarray(base, dtype=float), axis=0)
        near = base + offset * np.array([np.cos(angle), np.sin(angle)])
        pts = np.vstack([base, near])
        if shuffle:
            pts = pts[np.random.default_rng(len(pts)).permutation(len(pts))]
        tri = assert_same_inserts(pts, skip_duplicates=True)
        # 1e-10 is inside dedup_tol (merged), 1e-8 is outside (kept).
        expected = len(base) if offset < 1e-9 else 2 * len(base)
        assert tri.n_points <= expected

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            min_size=3, max_size=30,
        ),
        st.lists(st.sampled_from([0.5, 0.25, 1 / 3]), min_size=1, max_size=30),
    )
    @settings(max_examples=30)
    def test_points_on_existing_edges(self, base, fractions):
        base = np.unique(np.asarray(base, dtype=float), axis=0)
        tri = DelaunayTriangulation(base)
        pts = tri.points
        on_edges = [
            pts[u] + f * (pts[v] - pts[u])
            for (u, v), f in zip(mesh_edges(tri), fractions)
        ]
        assert_same_inserts(list(base) + on_edges, skip_duplicates=True)

    def test_near_duplicate_counts(self):
        base = np.array([(10.0, 10.0), (20.0, 10.0), (15.0, 20.0)])
        merged = assert_same_inserts(
            np.vstack([base, base + 1e-10]), skip_duplicates=True
        )
        kept = assert_same_inserts(
            np.vstack([base, base + 1e-8]), skip_duplicates=True
        )
        assert merged.n_points == 3
        assert kept.n_points == 6

    def test_fra_k30_insert_sequence(self, monkeypatch):
        sequences = []
        real_init = DelaunayTriangulation.__init__
        real_insert = DelaunayTriangulation.insert

        def init(self, *args, **kwargs):
            self._recorded = (kwargs, [])
            sequences.append(self._recorded)
            real_init(self, *args, **kwargs)

        def insert(self, point):
            self._recorded[1].append(tuple(map(float, point)))
            return real_insert(self, point)

        monkeypatch.setattr(DelaunayTriangulation, "__init__", init)
        monkeypatch.setattr(DelaunayTriangulation, "insert", insert)
        solve_osd(
            OSDProblem(k=30, rc=config.RC, reference=config.reference_surface(True)),
            config=FRAConfig(record_history=True),
        )
        monkeypatch.undo()
        assert max(len(pts) for _, pts in sequences) >= 30
        for kwargs, pts in sequences:
            assert_same_inserts(pts, **kwargs)


class TestLocalSearchLostMidBuild:
    """In-order builds over lattices with near-ties and near-duplicates.

    An absolute tolerance once mixed these near-ties up with ties and
    left the local search part way through the build; the exact
    predicates decide each one, so every insert must match the oracle.
    """

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["fine", "near", "jitter"])
    def test_lattices(self, kind, seed, reverse):
        pts = near_tie_lattice(kind, seed)
        if reverse:
            pts = pts[::-1]
        assert_same_inserts(pts, skip_duplicates=True)


class TestRarePaths:
    @pytest.mark.parametrize("tol", [-1.0, -0.0 - 1e-300, np.inf, np.nan])
    def test_dedup_tol_must_be_finite_and_not_negative(self, tol):
        with pytest.raises(ValueError, match="dedup tolerance"):
            DelaunayTriangulation(dedup_tol=tol)
        with pytest.raises(ValueError, match="dedup tolerance"):
            delaunay_mesh(np.zeros((3, 2)), dedup_tol=tol)

    def test_zero_dedup_tol_still_catches_exact_duplicates(self):
        pts = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0), (4.0, 6.0)]
        tri = DelaunayTriangulation(pts, dedup_tol=0.0)
        with pytest.raises(DuplicatePointError, match="vertex 4"):
            tri.insert((4.0, 6.0))
        with pytest.raises(DuplicatePointError, match="vertex 0"):
            tri.insert((-0.0, 0.0))
        assert tri.insert((np.nextafter(4.0, 5.0), 6.0)) == 5
        assert_same_inserts(
            pts + [(4.0, 6.0), (np.nextafter(4.0, 5.0), 6.0), (7.0, 2.0)],
            dedup_tol=0.0, skip_duplicates=True,
        )
        kept, _ = delaunay_mesh(np.array(pts + [(4.0, 6.0)]), dedup_tol=0.0)
        assert kept.tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "point", [(np.inf, 0.0), (0.0, -np.inf), (np.nan, 1.0), (1.0, np.nan)]
    )
    def test_non_finite_point_fails_before_any_predicate(self, point, monkeypatch):
        import repro.geometry.delaunay as kernel

        def no_predicate(*args):
            raise AssertionError("a predicate ran on a non-finite point")

        tri = DelaunayTriangulation([(0.0, 0.0), (10.0, 0.0), (5.0, 8.0)])
        before = tri.simplices.copy()
        monkeypatch.setattr(kernel, "_orient", no_predicate)
        monkeypatch.setattr(kernel, "_integers", no_predicate)
        monkeypatch.setattr(DelaunayTriangulation, "_bad", no_predicate)
        with pytest.raises(ValueError, match="working area"):
            tri.insert(point)
        with pytest.raises(ValueError, match="working area"):
            delaunay_mesh(np.array([point]))
        assert tri.n_points == 3
        assert np.array_equal(tri.simplices, before)

    def test_outside_working_area(self):
        pts = [(0.0, 0.0), (10.0, 0.0), (5.0, 8.0)]
        for kwargs in ({}, {"span": 10.0}):
            tri = DelaunayTriangulation(pts, **kwargs)
            before = tri.simplices.copy()
            with pytest.raises(ValueError, match="working area"):
                tri.insert((1e9, 1e9))
            assert tri.n_points == 3
            assert np.array_equal(tri.simplices, before)
            assert tri.insert((5.0, 3.0)) == 3
        with np.errstate(invalid="ignore"):  # the oracle's scan meets inf
            assert_same_inserts(
                pts + [(1e9, 1e9), (5.0, 3.0), (-1e8, 0.0), (np.inf, 0.0),
                       (np.nan, 1.0)]
            )

    def test_point_on_a_super_triangle_edge(self):
        # At span 100 the super vertices are (-317, -289), (361, -307) and
        # (13, 379), so these integer points lie exactly on its edges: a
        # fan triangle on that edge would be flat, so the point is outside.
        pts = [(0.0, 0.0), (10.0, 0.0), (5.0, 8.0)]
        for edge_point, inward in (
            ((-204.0, -292.0), (0.0, 1.0)),
            ((187.0, 36.0), (-1.0, 0.0)),
            ((-152.0, 45.0), (1.0, 0.0)),
        ):
            tri = DelaunayTriangulation(pts, span=100.0)
            with pytest.raises(ValueError, match="working area"):
                tri.insert(edge_point)
            inside = tuple(
                np.nextafter(c, c + d) for c, d in zip(edge_point, inward)
            )
            assert tri.insert(inside) == 3
            assert_same_inserts(pts + [edge_point, inside], span=100.0)

    def test_duplicate_point_error(self):
        tri = DelaunayTriangulation([(1.0, 1.0), (5.0, 1.0)])
        with pytest.raises(DuplicatePointError):
            tri.insert((1.0, 1.0 + 5e-10))
        assert tri.n_points == 2

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_skip_duplicates_across_a_grid_cell_edge(self, order):
        # Hash-grid cells have side dedup_tol = 1e-3, so x = 0.0094 and
        # x = 0.0106 sit in cells 9 and 10. The query at x = 0.0100 is
        # within tol of both: the lowest index wins, from either cell.
        tol = 1e-3
        left, right = (0.0094, 0.5), (0.0106, 0.5)
        first, second = [(left, right)[i] for i in order]
        tri = DelaunayTriangulation(
            [first, second, (0.5, 0.9), (0.9, 0.1)],
            dedup_tol=tol, skip_duplicates=True,
        )
        query = (0.0100, 0.5 + 2e-4)
        assert tri.insert(query) == 0
        assert tri.n_points == 4
        strict = DelaunayTriangulation([first, second], dedup_tol=tol)
        with pytest.raises(DuplicatePointError, match="vertex 0"):
            strict.insert(query)
        assert_same_inserts(
            [first, second, (0.5, 0.9), (0.9, 0.1), query],
            dedup_tol=tol, skip_duplicates=True,
        )
