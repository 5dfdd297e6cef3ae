"""Graph kernel: connectivity, spanning trees, unit-disk graphs, relays.

FRA's connectivity guarantee (paper Section 4.2) needs exactly four graph
operations, all provided here from scratch:

* ``G(i, R)`` — build the unit-disk graph over node positions
  (:func:`repro.graphs.geometric.unit_disk_graph`),
* ``C(G)`` — count connected components (:mod:`.traversal`),
* ``L(G, r)`` — the minimum number of radius-``r`` relay nodes needed to
  join the components (:mod:`.relay`), and
* ``P(G, i)`` — positions for those relays, found with a Prim minimum
  spanning tree over the components (:mod:`.relay`, :mod:`.mst`).

The implementations are cross-validated against :mod:`networkx` in tests
but carry no runtime dependency on it.
"""

from repro.graphs.graph import Graph
from repro.graphs.unionfind import UnionFind
from repro.graphs.traversal import (
    bfs_order,
    connected_components,
    hop_counts,
    is_connected,
    shortest_hop_path,
)
from repro.graphs.mst import kruskal_mst, prim_mst
from repro.graphs.geometric import (
    component_positions,
    graph_from_positions,
    unit_disk_graph,
)
from repro.graphs.relay import (
    IncrementalRelayCount,
    RelayPlan,
    count_required_relays,
    plan_relays,
)
from repro.graphs.robustness import (
    articulation_points,
    is_biconnected,
    layout_fragility,
)

__all__ = [
    "Graph",
    "IncrementalRelayCount",
    "RelayPlan",
    "UnionFind",
    "articulation_points",
    "bfs_order",
    "component_positions",
    "connected_components",
    "count_required_relays",
    "graph_from_positions",
    "hop_counts",
    "is_biconnected",
    "is_connected",
    "kruskal_mst",
    "layout_fragility",
    "plan_relays",
    "prim_mst",
    "shortest_hop_path",
    "unit_disk_graph",
]
