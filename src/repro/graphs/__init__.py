"""Graph kernel: unit-disk graphs, component labels, relays.

FRA's connectivity guarantee (paper Section 4.2) needs exactly four graph
operations, all provided here from scratch on numpy arrays:

* ``G(i, R)`` — the unit-disk graph over node positions as CSR rows
  (:func:`repro.graphs.geometric.unit_disk_graph`),
* ``C(G)`` — one component label per node (:mod:`.traversal`),
* ``L(G, r)`` — the minimum number of radius-``r`` relay nodes needed to
  join the components (:mod:`.relay`), and
* ``P(G, i)`` — positions for those relays, found with a Prim minimum
  spanning tree over the components (:mod:`.relay`).

The implementations are cross-validated against :mod:`networkx` in tests
but carry no runtime dependency on it.
"""

from repro.graphs.geometric import unit_disk_graph
from repro.graphs.traversal import connected_components, hop_counts, is_connected
from repro.graphs.relay import (
    IncrementalRelayCount,
    RelayPlan,
    count_required_relays,
    plan_relays,
)
from repro.graphs.robustness import articulation_points, layout_fragility

__all__ = [
    "IncrementalRelayCount",
    "RelayPlan",
    "articulation_points",
    "connected_components",
    "count_required_relays",
    "hop_counts",
    "is_connected",
    "layout_fragility",
    "plan_relays",
    "unit_disk_graph",
]
