"""Geometric (unit-disk) graphs over node positions.

The paper's communication model: two CPS nodes share an edge iff their
Euclidean distance is at most the communication radius ``Rc``
(Definition 3.1). The graph is returned in compressed sparse row (CSR)
form, ``(indptr, indices)``: the neighbours of node ``u`` are
``indices[indptr[u]:indptr[u + 1]]``, in ascending order.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.geometry.primitives import pairwise_distances
from repro.geometry.spatial_index import (
    DENSE_CROSSOVER,
    SpatialHashGrid,
    csr_from_rows,
)

#: ``(indptr, indices)`` of a symmetric adjacency with ascending rows.
CSR = Tuple[np.ndarray, np.ndarray]


def unit_disk_graph(positions: np.ndarray, radius: float) -> CSR:
    """Build ``G(i, Rc)``: edge between nodes at distance <= ``radius``.

    ``positions`` is an ``(n, 2)`` array. Above
    :data:`~repro.geometry.spatial_index.DENSE_CROSSOVER` points the
    pairs come from the cell-list grid instead of the dense distance
    matrix: the same pairs, O(k) at fixed density instead of O(k²).
    """
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    n = len(pts)
    if n > DENSE_CROSSOVER:
        return SpatialHashGrid(pts, radius).neighbor_csr()
    adj = pairwise_distances(pts) <= radius
    np.fill_diagonal(adj, False)
    return csr_from_rows(*np.nonzero(adj), n)
