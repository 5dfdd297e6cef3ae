"""Unit-disk radio: neighbour discovery and the per-round beacon exchange.

Two nodes are single-hop neighbours iff their distance is at most ``Rc``
(the paper's communication model). Each round every alive node broadcasts
``(x, y, G)``; the radio delivers those beacons to every in-range listener,
subject to the optional message-loss model.

This class stays the *geometric* layer. The richer failure surface —
distance-dependent and bursty loss, delayed beacons, retry/ack — lives in
:class:`repro.sim.netmodel.network.NetworkModel`, which calls
:meth:`Radio.neighbor_csr` for the in-range sets and layers the
unreliable-network pipeline on top. Both hand the planner one
:class:`~repro.core.cma.NeighborTable` for the whole fleet.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cma import NeighborTable
from repro.geometry.primitives import pairwise_distances
from repro.geometry.spatial_index import (
    DENSE_CROSSOVER,
    SpatialHashGrid,
    csr_from_rows,
)
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
        # table; any position change invalidates the key. It holds
        # ``[key, indptr, indices, id lists or None]``; the lists are
        # made only when :meth:`neighbor_ids` is first asked.
        self._nbr_cache: Optional[list] = None

    def neighbor_csr(
        self, positions: np.ndarray, alive: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Alive nodes within ``Rc`` of each node, as CSR ``(indptr, indices)``.

        Node ``i``'s neighbours are ``indices[indptr[i]:indptr[i + 1]]``,
        ascending, self excluded; a dead node has an empty row and is in
        no row. The arrays are cached per (positions, alive) content and
        shared between callers within a round — treat them as read-only.
        """
        pts = np.asarray(positions, dtype=float).reshape(-1, 2)
        n = len(pts)
        live = (
            np.ones(n, dtype=bool)
            if alive is None
            else np.asarray(alive, dtype=bool).reshape(n)
        )
        key = (pts.tobytes(), live.tobytes())
        cached = self._nbr_cache
        if cached is not None and cached[0] == key:
            return cached[1], cached[2]
        if n <= DENSE_CROSSOVER:
            # Whole-matrix adjacency in one shot: dead rows/columns masked,
            # self-links cleared, then a single row-major nonzero (column
            # indices come out sorted within each row).
            adj = pairwise_distances(pts) <= self.rc
            adj &= live[None, :]
            adj &= live[:, None]
            np.fill_diagonal(adj, False)
            indptr, indices = csr_from_rows(*np.nonzero(adj), n)
        else:
            # Cell-list neighbour discovery: O(k) at fixed density, no
            # self-distances ever computed, bit-identical rows (the grid
            # is differential-tested against the dense oracle).
            grid = SpatialHashGrid(pts, self.rc)
            indptr, indices = grid.neighbor_csr(alive=live)
            obs = get_instrumentation()
            if obs.enabled:
                obs.counter("geom.grid_cells").inc(grid.n_cells)
                obs.counter("geom.pairs_checked").inc(grid.pairs_checked)
        self._nbr_cache = [key, indptr, indices, None]
        return indptr, indices

    def neighbor_ids(
        self, positions: np.ndarray, alive: Optional[np.ndarray] = None
    ) -> List[List[int]]:
        """:meth:`neighbor_csr` as one ascending id list per node.

        The lists are cached with the CSR rows — treat them as read-only.
        """
        indptr, indices = self.neighbor_csr(positions, alive)
        cached = self._nbr_cache
        if cached[3] is None:
            cached[3] = [
                indices[a:b].tolist()
                for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())
            ]
        return cached[3]

    def exchange(
        self,
        positions: np.ndarray,
        curvatures: Sequence[float],
        alive: Optional[np.ndarray] = None,
    ) -> NeighborTable:
        """One beacon round: what each node hears from its neighbours.

        Row ``i`` of the returned table is node ``i``'s inbox: its
        neighbours' beacons in ascending sender order, every record
        fresh (staleness 0). Message loss (when configured) applies
        independently per directed delivery, drawn in that order, so a
        beacon may reach some neighbours and not others — the two
        directions of a link can disagree, exactly the asymmetry real
        lossy radios produce.
        """
        pts = np.asarray(positions, dtype=float).reshape(-1, 2)
        indptr, senders = self.neighbor_csr(pts, alive=alive)
        counts = np.diff(indptr)
        if self.loss is not None:
            heard = self.loss.delivered_many(len(senders))
            receivers = np.repeat(np.arange(len(counts)), counts)
            counts = np.bincount(receivers[heard], minlength=len(counts))
            senders = senders[heard]
        return NeighborTable.from_records(
            counts, senders, pts[senders],
            np.asarray(curvatures, dtype=float)[senders],
        )
