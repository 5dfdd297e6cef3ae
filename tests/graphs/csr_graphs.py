"""Small CSR graphs from explicit edge lists, for the graph-kernel tests."""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np


def csr_from_edges(n: int, edges: Iterable[Tuple[int, int]]):
    """``(indptr, indices)`` of the undirected graph on ``0..n-1``."""
    pairs = {(u, v) for a, b in edges for u, v in ((a, b), (b, a)) if u != v}
    rows = np.array(sorted(pairs), dtype=np.intp).reshape(-1, 2)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows[:, 0], minlength=n), out=indptr[1:])
    return indptr, rows[:, 1]


def path_graph(n: int):
    return csr_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int):
    return csr_from_edges(n, [(i, (i + 1) % n) for i in range(n)])
