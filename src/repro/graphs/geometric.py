"""Geometric (unit-disk) graphs over node positions.

The paper's communication model: two CPS nodes share an edge iff their
Euclidean distance is at most the communication radius ``Rc``
(Definition 3.1). Edge weights carry the distances so spanning-tree
computations can reason about physical gaps.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.primitives import pairwise_distances
from repro.geometry.spatial_index import DENSE_CROSSOVER, SpatialHashGrid
from repro.graphs.graph import Graph
from repro.graphs.traversal import connected_components


def unit_disk_graph(
    positions: np.ndarray,
    radius: float,
    crossover: Optional[int] = None,
) -> Graph:
    """Build ``G(i, Rc)``: edge between nodes at distance <= ``radius``.

    ``positions`` is an ``(n, 2)`` array. Distances are edge weights.
    Above ``crossover`` points (default
    :data:`~repro.geometry.spatial_index.DENSE_CROSSOVER`) the edge set
    comes from the cell-list grid instead of the dense distance matrix —
    same edges, same weights, same insertion order, O(k) at fixed
    density instead of O(k²).
    """
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    graph = Graph(len(pts))
    if len(pts) < 2:
        return graph
    if len(pts) <= (DENSE_CROSSOVER if crossover is None else crossover):
        dists = pairwise_distances(pts)
        iu, ju = np.nonzero(np.triu(dists <= radius, k=1))
        for u, v in zip(iu.tolist(), ju.tolist()):
            graph.add_edge(u, v, float(dists[u, v]))
    else:
        iu, ju, d = SpatialHashGrid(pts, radius).query_pairs(
            return_distances=True
        )
        for u, v, w in zip(iu.tolist(), ju.tolist(), d.tolist()):
            graph.add_edge(u, v, w)
    return graph


def graph_from_positions(
    positions: Sequence[Tuple[float, float]], radius: float
) -> Graph:
    """Convenience wrapper accepting any sequence of ``(x, y)`` pairs."""
    return unit_disk_graph(np.asarray(list(positions), dtype=float), radius)


def component_positions(
    positions: np.ndarray, radius: float
) -> List[np.ndarray]:
    """Positions grouped by connected component of the unit-disk graph."""
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    graph = unit_disk_graph(pts, radius)
    return [pts[np.asarray(comp, dtype=int)] for comp in connected_components(graph)]


def closest_pair_between(
    group_a: np.ndarray, group_b: np.ndarray
) -> Tuple[int, int, float]:
    """Indices (into each group) and distance of the closest cross pair."""
    a = np.asarray(group_a, dtype=float).reshape(-1, 2)
    b = np.asarray(group_b, dtype=float).reshape(-1, 2)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("cannot take closest pair with an empty group")
    diff = a[:, None, :] - b[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    flat = int(np.argmin(d))
    i, j = divmod(flat, d.shape[1])
    return i, j, float(d[i, j])
