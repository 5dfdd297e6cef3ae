"""Tests for unit-disk graph construction."""

import numpy as np
import pytest

from repro.graphs.geometric import unit_disk_graph
from repro.graphs.relay import closest_pair_between
from repro.graphs.traversal import connected_components


def neighbours(graph, u):
    indptr, indices = graph
    return indices[indptr[u]:indptr[u + 1]].tolist()


class TestUnitDiskGraph:
    def test_edges_at_threshold(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [21.0, 0.0]])
        g = unit_disk_graph(pts, 10.0)
        assert neighbours(g, 0) == [1]  # exactly Rc counts
        assert neighbours(g, 1) == [0]
        assert neighbours(g, 2) == []

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            unit_disk_graph(np.zeros((2, 2)), 0.0)

    def test_empty_and_single(self):
        indptr, indices = unit_disk_graph(np.empty((0, 2)), 5.0)
        assert indptr.tolist() == [0] and len(indices) == 0
        indptr, indices = unit_disk_graph(np.array([[1.0, 1.0]]), 5.0)
        assert indptr.tolist() == [0, 0] and len(indices) == 0

    def test_grid_degree(self):
        pts = np.array(
            [[float(x), float(y)] for x in range(3) for y in range(3)]
        ) * 10.0
        g = unit_disk_graph(pts, 10.0)
        # Center of 3x3 grid has exactly 4 neighbours at spacing = Rc.
        assert neighbours(g, 4) == [1, 3, 5, 7]

    def test_rows_ascending_and_symmetric_past_dense_crossover(self, rng):
        # 150 points take the cell-list path; its rows must match the
        # dense oracle's, ascending like the dense path's.
        pts = rng.uniform(0, 60, size=(150, 2))
        g = unit_disk_graph(pts, 8.0)
        dist = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
        for u in range(len(pts)):
            expected = np.flatnonzero(dist[u] <= 8.0)
            assert neighbours(g, u) == [v for v in expected if v != u]


class TestComponents:
    def test_two_clusters(self):
        pts = np.array([[0, 0], [50, 50], [1, 0], [51, 50]], dtype=float)
        labels = connected_components(unit_disk_graph(pts, 5.0))
        assert labels.tolist() == [0, 1, 0, 1]


class TestClosestPair:
    def test_known(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[5.0, 0.0], [3.0, 0.0]])
        i, j, d = closest_pair_between(a, b)
        assert (i, j) == (1, 1)
        assert d == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            closest_pair_between(np.empty((0, 2)), np.array([[0.0, 0.0]]))
