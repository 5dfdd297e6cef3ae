"""Relay placement: the ``L(G, r)`` / ``P(G, i)`` primitives of FRA.

When FRA's refinement has produced a unit-disk graph with several connected
components, the remaining node budget must be spent joining them (paper
Section 4.2, "connectivity guarantee"). Following the paper, the components
are joined along a Prim minimum spanning tree built over the components,
where the cost of joining two components is the number of radius-``Rc``
relay nodes needed to bridge their closest gap:

    relays(d) = ceil(d / Rc) - 1.

Relays are placed evenly spaced on the straight segment between the closest
cross-component pair, so consecutive hops are all <= ``Rc``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.graphs.geometric import unit_disk_graph
from repro.graphs.traversal import connected_components

#: Slack multiplier on ``d / Rc`` absorbing float rounding, so a gap of
#: exactly ``2 * Rc`` needs 1 relay, not 2.
_CEIL_TOL = 1e-9


def relays_for_gap(distance: float, radius: float) -> int:
    """Minimum relays to bridge a straight gap of ``distance`` with hops <= radius."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if distance <= radius:
        return 0
    return max(0, int(math.ceil(distance / radius - _CEIL_TOL)) - 1)


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


def _component_groups(pts: np.ndarray, radius: float) -> List[np.ndarray]:
    """Positions of each unit-disk component, numbered by smallest member."""
    labels = connected_components(unit_disk_graph(pts, radius))
    order = np.argsort(labels, kind="stable")
    return np.split(pts[order], np.cumsum(np.bincount(labels))[:-1])


@dataclass(frozen=True)
class _ComponentLink:
    """One MST edge between two components of the unit-disk graph."""

    comp_a: int
    comp_b: int
    endpoint_a: Tuple[float, float]
    endpoint_b: Tuple[float, float]
    distance: float
    n_relays: int


@dataclass
class RelayPlan:
    """Result of :func:`plan_relays`.

    Attributes
    ----------
    positions:
        ``(r, 2)`` array of relay positions actually placed.
    required:
        Total relays needed to fully connect the graph (``L(G, Rc)``).
    connected:
        Whether the placed relays connect everything (budget was enough).
    components_before / components_after:
        Component counts of the unit-disk graph before and after placement.
    links:
        The component-MST edges, in placement order.
    """

    positions: np.ndarray
    required: int
    connected: bool
    components_before: int
    components_after: int
    links: List[_ComponentLink] = field(default_factory=list)


def _component_mst(
    groups: List[np.ndarray], radius: float
) -> List[_ComponentLink]:
    """Prim MST over components; edge cost = relay count, tie-break distance."""
    n = len(groups)
    if n <= 1:
        return []
    # Dense pairwise closest-gap table (components are few in practice).
    links: List[List[Tuple[float, Tuple[float, float], Tuple[float, float]]]] = [
        [(-1.0, (0.0, 0.0), (0.0, 0.0))] * n for _ in range(n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            ia, jb, d = closest_pair_between(groups[i], groups[j])
            pa = (float(groups[i][ia][0]), float(groups[i][ia][1]))
            pb = (float(groups[j][jb][0]), float(groups[j][jb][1]))
            links[i][j] = (d, pa, pb)
            links[j][i] = (d, pb, pa)

    in_tree = [False] * n
    in_tree[0] = True
    heap: List[Tuple[int, float, int, int]] = []

    def push_edges(u: int) -> None:
        for v in range(n):
            if not in_tree[v]:
                d, _, _ = links[u][v]
                heapq.heappush(heap, (relays_for_gap(d, radius), d, u, v))

    push_edges(0)
    mst: List[_ComponentLink] = []
    while heap and len(mst) < n - 1:
        cost, d, u, v = heapq.heappop(heap)
        if in_tree[v]:
            continue
        in_tree[v] = True
        _, pa, pb = links[u][v]
        mst.append(
            _ComponentLink(
                comp_a=u, comp_b=v, endpoint_a=pa, endpoint_b=pb,
                distance=d, n_relays=cost,
            )
        )
        push_edges(v)
    return mst


def count_required_relays(positions: np.ndarray, radius: float) -> int:
    """``L(G, Rc)``: relays needed to connect the unit-disk graph."""
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    if len(pts) <= 1:
        return 0
    groups = _component_groups(pts, radius)
    return sum(link.n_relays for link in _component_mst(groups, radius))


class IncrementalRelayCount:
    """``L(G, Rc)`` kept up to date as nodes join one at a time.

    Holds the nodes, a component label per node and the closest gap
    between every pair of components. :meth:`add` merges the components
    within ``radius`` of the new node (``d <= radius``, the
    :func:`~repro.graphs.geometric.unit_disk_graph` edge test) and folds
    their gap rows together with an exact minimum. :meth:`required`
    answers ``L`` for the current nodes, optionally plus one candidate,
    with a dense Prim over integer relay costs, without changing state.

    The answer equals :func:`count_required_relays` over the same points:
    an MST's total weight does not depend on which MST is found, merged
    gap rows are minima of the same floats, and distances and relay costs
    use the same expressions.
    """

    def __init__(self, radius: float) -> None:
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        self.radius = float(radius)
        self._points = np.empty((0, 2))
        self._labels = np.empty(0, dtype=np.intp)
        #: Closest gap between components; ``inf`` on the diagonal.
        self._gaps = np.empty((0, 0))

    def add(self, point: Tuple[float, float]) -> None:
        """Join ``point`` to the network."""
        p = np.asarray(point, dtype=float).reshape(1, 2)
        keep, gaps = self._merge(p)
        relabel = np.full(len(self._gaps), len(keep), dtype=np.intp)
        relabel[keep] = np.arange(len(keep))
        self._labels = np.append(relabel[self._labels], len(keep))
        self._points = np.vstack([self._points, p])
        self._gaps = gaps

    def required(self, candidate: Optional[Tuple[float, float]] = None) -> int:
        """``L`` for the current nodes, plus ``candidate`` if given."""
        if candidate is None:
            gaps = self._gaps
        else:
            p = np.asarray(candidate, dtype=float).reshape(1, 2)
            gaps = self._merge(p)[1]
        costs = np.maximum(np.ceil(gaps / self.radius - _CEIL_TOL) - 1.0, 0.0)
        return _dense_mst_total(costs)

    def _merge(self, p: np.ndarray):
        """The gap table after ``p`` joins, without storing it.

        Returns ``(keep, gaps)``: the ids of the components out of reach
        of ``p``, and the gap table over them followed by one last
        component holding ``p`` and every component within reach.
        """
        n_comp = len(self._gaps)
        d = np.sqrt(((self._points - p) ** 2).sum(axis=1))
        in_reach = np.zeros(n_comp, dtype=bool)
        in_reach[self._labels[d <= self.radius]] = True
        keep = np.flatnonzero(~in_reach)
        row = np.full(n_comp, np.inf)
        np.minimum.at(row, self._labels, d)
        if in_reach.any():
            row = np.minimum(row, self._gaps[in_reach].min(axis=0))
        row = row[keep]
        gaps = np.empty((len(keep) + 1, len(keep) + 1))
        gaps[:-1, :-1] = self._gaps[np.ix_(keep, keep)]
        gaps[-1, :-1] = row
        gaps[:-1, -1] = row
        gaps[-1, -1] = np.inf
        return keep, gaps


def _dense_mst_total(costs: np.ndarray) -> int:
    """Total weight of a minimum spanning tree of a dense cost matrix."""
    n = len(costs)
    if n <= 1:
        return 0
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = costs[0].copy()
    best[0] = np.inf
    total = 0.0
    for _ in range(n - 1):
        v = int(np.argmin(best))
        total += best[v]
        in_tree[v] = True
        np.minimum(best, costs[v], out=best)
        best[in_tree] = np.inf
    return int(total)


def plan_relays(
    positions: np.ndarray, radius: float, budget: int = -1
) -> RelayPlan:
    """``P(G, i)``: positions of relays connecting the unit-disk graph.

    Parameters
    ----------
    positions:
        ``(n, 2)`` existing node positions.
    radius:
        Communication radius ``Rc``.
    budget:
        Maximum relays to place; ``-1`` means "as many as required".
        With a short budget, MST links are satisfied cheapest-first so as
        many components as possible merge.
    """
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        return RelayPlan(
            positions=np.empty((0, 2)), required=0, connected=True,
            components_before=0, components_after=0,
        )
    groups = _component_groups(pts, radius)
    mst = _component_mst(groups, radius)
    required = sum(link.n_relays for link in mst)
    if budget < 0:
        budget = required

    placed: List[Tuple[float, float]] = []
    satisfied = 0
    remaining = budget
    for link in sorted(mst, key=lambda l: (l.n_relays, l.distance)):
        if link.n_relays > remaining:
            continue
        ax, ay = link.endpoint_a
        bx, by = link.endpoint_b
        segments = link.n_relays + 1
        for s in range(1, segments):
            t = s / segments
            placed.append((ax + t * (bx - ax), ay + t * (by - ay)))
        remaining -= link.n_relays
        satisfied += 1

    relay_arr = (
        np.asarray(placed, dtype=float).reshape(-1, 2)
        if placed
        else np.empty((0, 2))
    )
    after = len(groups) - satisfied
    return RelayPlan(
        positions=relay_arr,
        required=required,
        connected=(after <= 1),
        components_before=len(groups),
        components_after=after,
        links=mst,
    )
