"""Unit-disk radio: neighbour discovery and the per-round beacon exchange.

Two nodes are single-hop neighbours iff their distance is at most ``Rc``
(the paper's communication model). Each round every alive node broadcasts
``(x, y, G)``; the radio delivers those beacons to every in-range listener,
subject to the optional message-loss model.

This class stays the *geometric* layer. The richer failure surface —
distance-dependent and bursty loss, delayed beacons, retry/ack — lives in
:class:`repro.sim.netmodel.network.NetworkModel`, which calls
:meth:`Radio.neighbor_ids` for the in-range sets and layers the
unreliable-network pipeline on top.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cma import NeighborObservation
from repro.geometry.primitives import pairwise_distances
from repro.geometry.spatial_index import DENSE_CROSSOVER, SpatialHashGrid
from repro.obs.instrument import get_instrumentation
from repro.sim.netmodel.failures import MessageLossModel


class Radio:
    """The shared medium connecting all nodes."""

    def __init__(self, rc: float, loss: Optional[MessageLossModel] = None) -> None:
        if rc <= 0:
            raise ValueError(f"Rc must be positive, got {rc}")
        self.rc = float(rc)
        self.loss = loss
        # One-entry neighbour-table cache keyed on the *content* of the
        # positions/alive arrays, not their identity: the engine writes
        # its fleet arrays in place, so one array object can hold
        # different positions from call to call. Within a round both the
        # netmodel pipeline and the plain exchange ask for the same
        # table; any position change invalidates the key.
        self._nbr_cache: Optional[Tuple[Tuple[bytes, bytes], List[List[int]]]] = None

    def neighbor_ids(
        self, positions: np.ndarray, alive: Optional[np.ndarray] = None
    ) -> List[List[int]]:
        """For each node, the ids of alive nodes within ``Rc`` (excluding self).

        The returned lists are cached per (positions, alive) content and
        shared between callers within a round — treat them as read-only.
        """
        pts = np.asarray(positions, dtype=float).reshape(-1, 2)
        n = len(pts)
        live = (
            np.ones(n, dtype=bool)
            if alive is None
            else np.asarray(alive, dtype=bool).reshape(n)
        )
        if n == 0:
            return []
        key = (pts.tobytes(), live.tobytes())
        cached = self._nbr_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        if n <= DENSE_CROSSOVER:
            # Whole-matrix adjacency in one shot: dead rows/columns masked,
            # self-links cleared, then a single row-major nonzero split into
            # per-node lists (column indices are sorted within each row, the
            # same order the previous per-row scan produced).
            adj = pairwise_distances(pts) <= self.rc
            adj &= live[None, :]
            adj &= live[:, None]
            np.fill_diagonal(adj, False)
            rows, cols = np.nonzero(adj)
            splits = np.searchsorted(rows, np.arange(1, n))
            ids = [c.tolist() for c in np.split(cols, splits)]
        else:
            # Cell-list neighbour discovery: O(k) at fixed density, no
            # self-distances ever computed, bit-identical lists (the grid
            # is differential-tested against the dense oracle).
            grid = SpatialHashGrid(pts, self.rc)
            ids = grid.neighbor_lists(alive=live)
            obs = get_instrumentation()
            if obs.enabled:
                obs.counter("geom.grid_cells").inc(grid.n_cells)
                obs.counter("geom.pairs_checked").inc(grid.pairs_checked)
        self._nbr_cache = (key, ids)
        return ids

    def exchange(
        self,
        positions: np.ndarray,
        curvatures: Sequence[float],
        alive: Optional[np.ndarray] = None,
    ) -> List[List[NeighborObservation]]:
        """One beacon round: what each node hears from its neighbours.

        Message loss (when configured) applies independently per directed
        delivery, so a beacon may reach some neighbours and not others —
        the two directions of a link can disagree, exactly the asymmetry
        real lossy radios produce.
        """
        pts = np.asarray(positions, dtype=float).reshape(-1, 2)
        nbr_lists = self.neighbor_ids(pts, alive=alive)
        heard: List[List[NeighborObservation]] = []
        for i, nbrs in enumerate(nbr_lists):
            inbox: List[NeighborObservation] = []
            for j in nbrs:
                if self.loss is not None and not self.loss.delivered():
                    continue
                inbox.append(
                    NeighborObservation(
                        node_id=j,
                        position=pts[j].copy(),
                        curvature=float(curvatures[j]),
                    )
                )
            heard.append(inbox)
        return heard
