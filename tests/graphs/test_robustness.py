"""Tests for articulation points and layout fragility."""

import numpy as np

from csr_graphs import csr_from_edges, cycle_graph, path_graph
from repro.graphs.robustness import articulation_points, layout_fragility


class TestArticulationPoints:
    def test_path_interior_vertices(self):
        assert articulation_points(path_graph(5)) == {1, 2, 3}

    def test_cycle_has_none(self):
        assert articulation_points(cycle_graph(6)) == set()

    def test_star_center(self):
        g = csr_from_edges(5, [(0, i) for i in range(1, 5)])
        assert articulation_points(g) == {0}

    def test_two_triangles_sharing_vertex(self):
        g = csr_from_edges(
            5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]
        )
        assert articulation_points(g) == {2}

    def test_disconnected_components_handled(self):
        # path: 1 is articulation; triangle: none
        g = csr_from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
        assert articulation_points(g) == {1}

    def test_empty_and_tiny(self):
        assert articulation_points(csr_from_edges(0, [])) == set()
        assert articulation_points(csr_from_edges(1, [])) == set()
        assert articulation_points(path_graph(2)) == set()

    def test_networkx_cross_validation(self, rng):
        import networkx as nx

        edges = [tuple(int(x) for x in rng.integers(0, 25, size=2))
                 for _ in range(40)]
        nxg = nx.Graph()
        nxg.add_nodes_from(range(25))
        nxg.add_edges_from((u, v) for u, v in edges if u != v)
        assert articulation_points(csr_from_edges(25, edges)) == set(
            nx.articulation_points(nxg)
        )

    def test_deep_path_no_recursion_error(self):
        # A 5000-vertex path would blow a recursive implementation.
        points = articulation_points(path_graph(5000))
        assert len(points) == 4998


class TestLayoutFragility:
    def test_chain_layout_fragile(self):
        pts = np.array([[0.0, 0.0], [8.0, 0.0], [16.0, 0.0], [24.0, 0.0]])
        # Interior 2 of 4 nodes are articulation points.
        assert layout_fragility(pts, rc=10.0) == 0.5

    def test_dense_grid_robust(self):
        pts = np.array(
            [[float(x), float(y)] for x in range(4) for y in range(4)]
        ) * 5.0
        # Spacing 5, Rc 10: diagonal links everywhere -> biconnected.
        assert layout_fragility(pts, rc=10.0) == 0.0

    def test_tiny_layouts(self):
        assert layout_fragility(np.zeros((1, 2)), rc=5.0) == 0.0
        assert layout_fragility(np.array([[0, 0], [1, 1]]), rc=5.0) == 0.0

    def test_fra_relays_are_load_bearing(self, greenorbs_reference):
        """FRA layouts with relay chains have nonzero fragility."""
        from repro.core.fra import foresighted_refinement

        result = foresighted_refinement(greenorbs_reference, 30, 10.0)
        frag = layout_fragility(result.positions, 10.0)
        assert 0.0 <= frag <= 1.0
