"""Connected components and hop counts over a CSR graph.

Both take the ``(indptr, indices)`` rows of
:func:`repro.graphs.geometric.unit_disk_graph` and sweep whole arrays: a
few numpy passes per merge round or BFS level, no Python step per edge.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.geometric import CSR


def _edge_sources(indptr: np.ndarray) -> np.ndarray:
    """The source node of every CSR entry."""
    n = len(indptr) - 1
    return np.repeat(np.arange(n), np.diff(indptr))


def connected_components(graph: CSR) -> np.ndarray:
    """Canonical component label of every node.

    Label ``c`` is the component whose smallest member index is the
    ``c``-th smallest, so components are numbered by their smallest
    member. Min-label propagation with pointer jumping: every edge
    hooks its source's root onto the smaller label across it, then each
    node jumps to its root. Labels only fall and stay within the node's
    component, so at the fixed point each node holds its component's
    smallest member.
    """
    indptr, indices = graph
    n = len(indptr) - 1
    src = _edge_sources(indptr)
    labels = np.arange(n)
    while True:
        hooked = labels.copy()
        np.minimum.at(hooked, labels[src], labels[indices])
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, labels):
            break
        labels = hooked
    is_root = labels == np.arange(n)
    return (np.cumsum(is_root) - 1)[labels]


def is_connected(graph: CSR) -> bool:
    """Whether the graph has at most one connected component.

    The empty graph and the single-vertex graph count as connected (the
    paper's ``C(G) > 1`` test is false for them).
    """
    return int(connected_components(graph).max(initial=0)) == 0


def hop_counts(graph: CSR, source: int) -> np.ndarray:
    """BFS hop distance from ``source`` to every vertex; -1 if unreachable."""
    indptr, indices = graph
    n = len(indptr) - 1
    if not 0 <= source < n:
        raise IndexError(f"vertex {source} out of range [0, {n})")
    src = _edge_sources(indptr)
    dist = np.full(n, -1, dtype=np.intp)
    dist[source] = 0
    frontier = dist == 0
    hops = 0
    while frontier.any():
        hops += 1
        reached = np.zeros(n, dtype=bool)
        reached[src[frontier[indices]]] = True
        frontier = reached & (dist < 0)
        dist[frontier] = hops
    return dist
