"""Topology robustness: articulation points and layout fragility.

A connected unit-disk graph satisfies Definition 3.1, but not all
connected layouts are equal: FRA's relay chains are cut vertices — lose
one relay and the network partitions. This module quantifies that:

* :func:`articulation_points` — the nodes whose removal raises the
  component count, found by relabelling once per node with its edges
  cut;
* :func:`layout_fragility` — the fraction of nodes whose single failure
  would disconnect the (alive) network.

The paper never discusses failure tolerance; the failure-injection
extension uses these to explain *why* node deaths hurt when they do.
"""

from __future__ import annotations

from typing import Set

import numpy as np

from repro.graphs.geometric import CSR, unit_disk_graph
from repro.graphs.traversal import _edge_sources, connected_components


def _n_components(graph: CSR) -> int:
    return int(connected_components(graph).max(initial=-1)) + 1


def articulation_points(graph: CSR) -> Set[int]:
    """Vertices whose removal increases the number of components.

    Cutting a vertex's edges leaves it as one isolated component, so it
    is an articulation point when the cut graph has more than one
    component beyond the original count. Vertices of degree below 2 never
    are. One relabel per candidate: cheap at fleet sizes (k <= 200).
    """
    indptr, indices = graph
    src = _edge_sources(indptr)
    base = _n_components(graph)
    points: Set[int] = set()
    for v in np.flatnonzero(np.diff(indptr) >= 2).tolist():
        # Every edge at v becomes a self-loop, which joins nothing.
        cut = np.where((src == v) | (indices == v), src, indices)
        if _n_components((indptr, cut)) > base + 1:
            points.add(v)
    return points


def layout_fragility(positions: np.ndarray, rc: float) -> float:
    """Fraction of nodes that are single points of failure.

    0.0 means any one node can die without partitioning the network;
    values toward 1.0 mean chain-like topologies (every interior node is
    load-bearing). Disconnected layouts return the fraction measured on
    the graph as-is (articulation points of each component).
    """
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    if len(pts) <= 2:
        return 0.0
    return len(articulation_points(unit_disk_graph(pts, rc))) / len(pts)
