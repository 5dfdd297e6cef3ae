"""Differential tests of the cell-list spatial hash against the dense oracle.

``SpatialHashGrid`` promises *bit-identity* with the
``pairwise_distances(pts) <= r`` formulation it replaces — same pairs,
same distances to the last ulp, same orderings — so every test here
compares against that dense expression rather than against tolerances.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry.primitives import pairwise_distances
from repro.geometry.spatial_index import (
    SpatialHashGrid,
    radius_adjacency,
    radius_neighbor_lists,
)

RADIUS = 5.0

float_points = st.lists(
    st.tuples(
        st.floats(0.0, 30.0, allow_nan=False),
        st.floats(0.0, 30.0, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)
int_points = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    min_size=1,
    max_size=30,
)


def oracle_pairs(pts, radius):
    """(lo, hi, d) of all in-range pairs from the dense distance matrix."""
    dm = pairwise_distances(pts)
    lo, hi = np.nonzero(np.triu(dm <= radius, k=1))
    return lo, hi, dm[lo, hi]


def oracle_adjacency(pts, radius):
    adj = pairwise_distances(pts) <= radius
    np.fill_diagonal(adj, False)
    return adj


class TestQueryPairs:
    @given(points=float_points)
    def test_matches_oracle_bitwise(self, points):
        pts = np.asarray(points, dtype=float)
        lo, hi, d = SpatialHashGrid(pts, RADIUS).query_pairs(
            return_distances=True
        )
        olo, ohi, od = oracle_pairs(pts, RADIUS)
        assert np.array_equal(lo, olo)
        assert np.array_equal(hi, ohi)
        assert np.array_equal(d, od)  # bitwise, not allclose

    @given(points=int_points)
    def test_exact_boundary_grid(self, points):
        """Integer coordinates: (0,0)-(3,4) style pairs land exactly on r."""
        pts = np.asarray(points, dtype=float)
        lo, hi = SpatialHashGrid(pts, RADIUS).query_pairs()
        olo, ohi, _ = oracle_pairs(pts, RADIUS)
        assert np.array_equal(lo, olo) and np.array_equal(hi, ohi)

    def test_exactly_at_radius_included(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        lo, hi, d = SpatialHashGrid(pts, RADIUS).query_pairs(
            return_distances=True
        )
        assert lo.tolist() == [0] and hi.tolist() == [1]
        assert d[0] == 5.0

    def test_just_past_radius_excluded(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0 + 1e-9]])
        lo, hi = SpatialHashGrid(pts, RADIUS).query_pairs()
        assert lo.size == 0 and hi.size == 0

    @given(points=float_points)
    def test_duplicate_points_pair_up(self, points):
        """Coincident points are distinct indices at distance 0."""
        pts = np.asarray(points, dtype=float)
        pts = np.vstack([pts, pts[:1], pts[:1]])  # two extra copies of row 0
        lo, hi, d = SpatialHashGrid(pts, RADIUS).query_pairs(
            return_distances=True
        )
        olo, ohi, od = oracle_pairs(pts, RADIUS)
        assert np.array_equal(lo, olo)
        assert np.array_equal(hi, ohi)
        assert np.array_equal(d, od)

    def test_large_random_cloud(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 200, size=(500, 2))
        lo, hi, d = SpatialHashGrid(pts, RADIUS).query_pairs(
            return_distances=True
        )
        olo, ohi, od = oracle_pairs(pts, RADIUS)
        assert np.array_equal(lo, olo)
        assert np.array_equal(hi, ohi)
        assert np.array_equal(d, od)


class TestQueryRadius:
    @given(points=float_points, data=st.data())
    def test_matches_oracle(self, points, data):
        pts = np.asarray(points, dtype=float)
        cx = data.draw(st.floats(-5.0, 35.0, allow_nan=False))
        cy = data.draw(st.floats(-5.0, 35.0, allow_nan=False))
        got = SpatialHashGrid(pts, RADIUS).query_radius((cx, cy))
        diff = pts - np.array([cx, cy])
        want = np.flatnonzero(np.sqrt((diff**2).sum(axis=1)) <= RADIUS)
        assert np.array_equal(got, want)

    def test_far_outside_cloud_is_empty(self):
        pts = np.zeros((4, 2))
        assert SpatialHashGrid(pts, RADIUS).query_radius((1e6, 1e6)).size == 0


class TestAdjacencyAndLists:
    @given(points=float_points)
    def test_adjacency_matches_dense(self, points):
        pts = np.asarray(points, dtype=float)
        assert np.array_equal(
            radius_adjacency(pts, RADIUS), oracle_adjacency(pts, RADIUS)
        )

    def test_adjacency_above_crossover(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 60, size=(150, 2))  # forces the grid branch
        assert np.array_equal(
            radius_adjacency(pts, RADIUS), oracle_adjacency(pts, RADIUS)
        )

    @given(points=float_points, data=st.data())
    def test_neighbor_lists_match_masked_dense(self, points, data):
        pts = np.asarray(points, dtype=float)
        alive = np.array(
            data.draw(
                st.lists(
                    st.booleans(),
                    min_size=len(pts),
                    max_size=len(pts),
                )
            )
        )
        got = SpatialHashGrid(pts, RADIUS).neighbor_lists(alive=alive)
        adj = oracle_adjacency(pts, RADIUS)
        adj[~alive, :] = False
        adj[:, ~alive] = False
        want = [np.flatnonzero(row).tolist() for row in adj]
        assert got == want

    def test_radius_neighbor_lists_helper(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 40, size=(90, 2))
        got = radius_neighbor_lists(pts, RADIUS)
        want = [
            np.flatnonzero(row).tolist()
            for row in oracle_adjacency(pts, RADIUS)
        ]
        assert got == want


class TestValidation:
    def test_empty_and_single(self):
        for pts in (np.empty((0, 2)), np.array([[1.0, 2.0]])):
            grid = SpatialHashGrid(pts, RADIUS)
            lo, hi = grid.query_pairs()
            assert lo.size == 0 and hi.size == 0
            assert grid.neighbor_lists() == [[]] * len(pts)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            SpatialHashGrid(np.zeros((2, 2)), 0.0)
        with pytest.raises(ValueError):
            SpatialHashGrid(np.zeros((2, 2)), -1.0)

    def test_counters_populated(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 50, size=(120, 2))
        grid = SpatialHashGrid(pts, RADIUS)
        grid.query_pairs()
        assert grid.n_cells > 0
        assert grid.pairs_checked > 0


class TestDenseCrossoverOverride:
    """The dense/cell-list switch point: a module global at every call
    site (the monkeypatch seam)."""

    def test_module_global_monkeypatch_still_works(self, monkeypatch):
        from repro.geometry import spatial_index

        monkeypatch.setattr(spatial_index, "DENSE_CROSSOVER", 3)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 30, size=(20, 2))
        # 20 > 3: the cell-list path runs and matches the dense oracle.
        dense = pairwise_distances(pts) <= RADIUS
        np.fill_diagonal(dense, False)
        np.testing.assert_array_equal(radius_adjacency(pts, RADIUS), dense)

    def test_crossover_keyword_selects_path_bitwise_identically(
        self, monkeypatch
    ):
        from repro.geometry import spatial_index

        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 30, size=(50, 2))
        monkeypatch.setattr(spatial_index, "DENSE_CROSSOVER", 10**9)
        forced_dense = radius_adjacency(pts, RADIUS)
        monkeypatch.setattr(spatial_index, "DENSE_CROSSOVER", 0)
        forced_grid = radius_adjacency(pts, RADIUS)
        np.testing.assert_array_equal(forced_dense, forced_grid)

    def test_radio_crossover_parameter(self, monkeypatch):
        """Patching the radio module's crossover to 0 forces the
        cell-list path for a cloud far below the built-in threshold
        (observable via the grid-build counter only that path emits);
        the neighbour lists are the same either way."""
        from repro.obs import Instrumentation, use_instrumentation
        from repro.sim import radio

        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 30, size=(40, 2))
        default = radio.Radio(RADIUS).neighbor_ids(pts)
        monkeypatch.setattr(radio, "DENSE_CROSSOVER", 0)
        obs = Instrumentation.in_memory()
        with use_instrumentation(obs):
            forced = radio.Radio(RADIUS).neighbor_ids(pts)
        assert obs.counter("geom.grid_cells").value > 0
        assert default == forced
