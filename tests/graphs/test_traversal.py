"""Tests for connected-component labels and BFS hop counts."""

import pytest

from csr_graphs import csr_from_edges, path_graph
from repro.graphs.traversal import connected_components, hop_counts, is_connected


class TestComponents:
    def test_single_component(self):
        assert connected_components(path_graph(5)).tolist() == [0] * 5

    def test_multiple_components(self):
        g = csr_from_edges(5, [(0, 1), (2, 3)])
        assert connected_components(g).tolist() == [0, 0, 1, 1, 2]

    def test_empty_graph(self):
        assert connected_components(csr_from_edges(0, [])).tolist() == []

    def test_networkx_cross_validation(self, rng):
        import networkx as nx

        edges = [tuple(int(x) for x in rng.integers(0, 30, size=2))
                 for _ in range(40)]
        nxg = nx.Graph()
        nxg.add_nodes_from(range(30))
        nxg.add_edges_from((u, v) for u, v in edges if u != v)
        labels = connected_components(csr_from_edges(30, edges))
        theirs = sorted(sorted(c) for c in nx.connected_components(nxg))
        for c, members in enumerate(theirs):
            assert labels[members].tolist() == [c] * len(members)


class TestIsConnected:
    def test_trivial_cases(self):
        assert is_connected(csr_from_edges(0, []))
        assert is_connected(csr_from_edges(1, []))
        assert not is_connected(csr_from_edges(2, []))

    def test_path_connected(self):
        assert is_connected(path_graph(6))

    def test_disconnection_detected(self):
        g = csr_from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert not is_connected(g)


class TestHopCounts:
    def test_direct(self):
        assert hop_counts(path_graph(4), 0).tolist() == [0, 1, 2, 3]
        assert hop_counts(path_graph(4), 2).tolist() == [2, 1, 0, 1]

    def test_self(self):
        assert hop_counts(path_graph(2), 1)[1] == 0

    def test_unreachable(self):
        g = csr_from_edges(3, [(0, 1)])
        assert hop_counts(g, 0).tolist() == [0, 1, -1]

    def test_unreachable_excluded(self):
        g = csr_from_edges(4, [(0, 1)])
        assert (hop_counts(g, 0) >= 0).nonzero()[0].tolist() == [0, 1]

    def test_prefers_fewer_hops(self):
        g = csr_from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)])
        assert hop_counts(g, 0).tolist() == [0, 1, 1, 1]

    def test_source_out_of_range(self):
        with pytest.raises(IndexError):
            hop_counts(path_graph(3), 3)
