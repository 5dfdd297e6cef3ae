"""Cell-list spatial hash grid for fixed-radius neighbour queries.

Every interaction in this system — radio links, LCM repair, repulsion,
connectivity — is local within ``Rc``/``Rs`` (the limited-range structure
Cortés/Martínez/Bullo prove these coverage algorithms exploit), yet the
seed implementation discovered neighbours by materialising the dense
``k x k`` distance matrix each round. This module provides the cell-list
index that makes neighbour discovery O(k) at fixed density: points are
bucketed into square cells of side >= the query radius, so every pair
within range lives in the same or an adjacent cell and only the ~9-cell
neighbourhood is ever examined.

Bit-identity contract
---------------------
The grid changes *which* pairs are examined, never how a pair is decided.
Candidate pairs are tested with ``sqrt(dx*dx + dy*dy) <= r`` — the same
IEEE-754 operations, in the same order, as the dense
``pairwise_distances(pts) <= r`` oracle (``dx*dx`` is bitwise ``dx**2``,
a two-term axis sum is one left-to-right add, and squaring erases the
sign of the subtraction order) — and results are returned in the oracle's
row-major order. Tests pin ``query_pairs``/``query_radius`` against the
dense oracle on random clouds including exact-boundary and duplicate
points.

The cell side carries a relative margin of 1e-9 over the query radius
(:data:`CELL_MARGIN`): floor-division of coordinates rounds by at most a
few ulp, so a pair at distance exactly ``r`` could otherwise straddle two
non-adjacent cells. The margin dwarfs that rounding error by six orders
of magnitude while costing nothing measurable in occupancy.

Below :data:`DENSE_CROSSOVER` points the dense matrix is faster than
building the index; :func:`radius_adjacency` and the call sites in
``Radio``/``unit_disk_graph`` switch on that threshold. Either path gives
bit-identical answers, so the crossover is purely a speed knob.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.geometry.primitives import pairwise_distances

__all__ = [
    "CELL_MARGIN",
    "DENSE_CROSSOVER",
    "SpatialHashGrid",
    "csr_from_rows",
    "morton_argsort",
    "radius_adjacency",
    "radius_neighbor_lists",
]

#: Relative slack of the cell side over the query radius (see module doc).
CELL_MARGIN = 1e-9

#: Below this many points the dense distance matrix beats building a grid.
DENSE_CROSSOVER = 64

#: Half-plane of cell offsets covering each adjacent-cell pair exactly once.
_HALF_OFFSETS = ((1, 0), (-1, 1), (0, 1), (1, 1))


class SpatialHashGrid:
    """Cell-list index over an ``(n, 2)`` point set.

    Parameters
    ----------
    points:
        The positions to index. The grid keeps a reference, not a copy —
        rebuild the grid when positions change.
    radius:
        Largest query radius the grid supports (queries may pass any
        ``r <= cell_size``). Cells are sized ``radius * (1 + CELL_MARGIN)``
        unless ``cell_size`` overrides it.
    cell_size:
        Explicit cell side; must be >= any radius later queried.
    """

    def __init__(
        self,
        points: np.ndarray,
        radius: float,
        cell_size: Optional[float] = None,
    ) -> None:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        self.points = pts
        self.radius = float(radius)
        self.cell_size = (
            float(cell_size)
            if cell_size is not None
            else self.radius * (1.0 + CELL_MARGIN)
        )
        if self.cell_size < self.radius:
            raise ValueError(
                f"cell_size {self.cell_size} cannot support radius "
                f"{self.radius} queries"
            )
        #: Candidate pairs whose distance was actually evaluated, summed
        #: over all queries (the obs layer reports this as
        #: ``geom.pairs_checked``).
        self.pairs_checked = 0

        n = len(pts)
        if n == 0:
            self._keys = np.empty(0, dtype=np.int64)
            self._stride = 1
            self._ix_max = 0
            self._order = np.empty(0, dtype=np.intp)
            self._uniq = np.empty(0, dtype=np.int64)
            self._start = np.empty(0, dtype=np.intp)
            self._count = np.empty(0, dtype=np.intp)
            return
        self._ox = float(pts[:, 0].min())
        self._oy = float(pts[:, 1].min())
        # Shift cell coordinates by +1 so the -1 neighbour offset stays
        # >= 0 and the encoded key arithmetic never wraps across rows.
        ix = np.floor((pts[:, 0] - self._ox) / self.cell_size).astype(np.int64) + 1
        iy = np.floor((pts[:, 1] - self._oy) / self.cell_size).astype(np.int64) + 1
        self._ix_max = int(ix.max())
        self._stride = int(iy.max()) + 2
        if (self._ix_max + 2) > 2**31 or self._stride > 2**31:
            raise ValueError(
                "cell size too small for the coordinate range "
                "(cell-key encoding would overflow)"
            )
        self._keys = ix * self._stride + iy
        self._order = np.argsort(self._keys, kind="stable")
        sorted_keys = self._keys[self._order]
        self._uniq, self._start = np.unique(sorted_keys, return_index=True)
        self._count = np.diff(np.append(self._start, n))

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_cells(self) -> int:
        """Number of occupied grid cells."""
        return len(self._uniq)

    def _resolve_radius(self, radius: Optional[float]) -> float:
        r = self.radius if radius is None else float(radius)
        if r > self.cell_size:
            raise ValueError(
                f"query radius {r} exceeds cell size {self.cell_size}; "
                "build the grid with a larger radius"
            )
        return r

    def _members_of(
        self, query_keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per query key, the (start, count) of that cell's member run."""
        pos = np.searchsorted(self._uniq, query_keys)
        pos_c = np.minimum(pos, max(len(self._uniq) - 1, 0))
        found = (
            (self._uniq[pos_c] == query_keys)
            if len(self._uniq)
            else np.zeros(len(query_keys), dtype=bool)
        )
        start = np.where(found, self._start[pos_c] if len(self._uniq) else 0, 0)
        count = np.where(found, self._count[pos_c] if len(self._uniq) else 0, 0)
        return start, count

    def _expand(
        self, start: np.ndarray, count: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flatten per-query member runs into (query_rank, member_index)."""
        total = int(count.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty
        qi = np.repeat(np.arange(len(count)), count)
        rank = np.arange(total) - np.repeat(np.cumsum(count) - count, count)
        members = self._order[np.repeat(start, count) + rank]
        return qi, members

    # ------------------------------------------------------------------
    def query_pairs(
        self, radius: Optional[float] = None, return_distances: bool = False
    ):
        """All index pairs ``(i, j)``, ``i < j``, within ``radius``.

        Returns ``(i, j)`` arrays sorted lexicographically — the order
        ``np.nonzero(np.triu(pairwise_distances(pts) <= r, k=1))``
        produces — with distances appended when ``return_distances``.
        Duplicate positions (distance 0) are included, self-pairs never.
        """
        r = self._resolve_radius(radius)
        pts = self.points
        n = len(pts)
        if n < 2:
            empty = np.empty(0, dtype=np.intp)
            out = (empty, empty)
            return out + (np.empty(0, dtype=float),) if return_distances else out

        cand_i: List[np.ndarray] = []
        cand_j: List[np.ndarray] = []
        # Same-cell pairs: every point sees its whole cell; keeping j > i
        # yields each unordered pair once and drops self-pairs without
        # ever computing a self-distance.
        start, count = self._members_of(self._keys)
        qi, members = self._expand(start, count)
        keep = members > qi
        cand_i.append(qi[keep])
        cand_j.append(members[keep])
        # Cross-cell pairs: the four forward offsets cover each adjacent
        # cell pair exactly once, so every candidate is distinct.
        for dx, dy in _HALF_OFFSETS:
            start, count = self._members_of(
                self._keys + (dx * self._stride + dy)
            )
            qi, members = self._expand(start, count)
            cand_i.append(qi)
            cand_j.append(members)

        ci = np.concatenate(cand_i)
        cj = np.concatenate(cand_j)
        self.pairs_checked += len(ci)
        lo = np.minimum(ci, cj)
        hi = np.maximum(ci, cj)
        # The oracle's [lo, hi] entry is sqrt((pts[lo]-pts[hi])^2 summed);
        # identical operations, identical rounding.
        dx_ = pts[lo, 0] - pts[hi, 0]
        dy_ = pts[lo, 1] - pts[hi, 1]
        d = np.sqrt(dx_ * dx_ + dy_ * dy_)
        within = d <= r
        lo, hi, d = lo[within], hi[within], d[within]
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        if return_distances:
            return lo, hi, d[order]
        return lo, hi

    def query_radius(
        self, center, radius: Optional[float] = None
    ) -> np.ndarray:
        """Ascending indices of points within ``radius`` of ``center``.

        ``center`` need not be an indexed point; a point of the set is
        returned for its own query (distance 0), matching the dense
        ``sqrt(((pts - center)**2).sum(axis=1)) <= r`` oracle.
        """
        r = self._resolve_radius(radius)
        if len(self.points) == 0:
            return np.empty(0, dtype=np.intp)
        cx, cy = float(center[0]), float(center[1])
        gx = int(np.floor((cx - self._ox) / self.cell_size)) + 1
        gy = int(np.floor((cy - self._oy) / self.cell_size)) + 1
        keys = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                qx, qy = gx + dx, gy + dy
                # Cells outside the occupied bounding range hold nothing;
                # skipping them also keeps the key encoding alias-free for
                # query points far outside the indexed bounding box.
                if 0 <= qx <= self._ix_max + 1 and 0 <= qy < self._stride:
                    keys.append(qx * self._stride + qy)
        if not keys:
            return np.empty(0, dtype=np.intp)
        start, count = self._members_of(np.asarray(keys, dtype=np.int64))
        _, members = self._expand(start, count)
        self.pairs_checked += len(members)
        dx_ = self.points[members, 0] - cx
        dy_ = self.points[members, 1] - cy
        within = np.sqrt(dx_ * dx_ + dy_ * dy_) <= r
        return np.sort(members[within])

    # ------------------------------------------------------------------
    def neighbor_csr(
        self,
        radius: Optional[float] = None,
        alive: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-point ascending neighbours as CSR ``(indptr, indices)``.

        Point ``i``'s neighbours are ``indices[indptr[i]:indptr[i + 1]]``,
        self excluded. With ``alive`` given, dead points neither appear
        in any row nor get neighbours of their own — exactly the masking
        ``Radio`` applies to the dense adjacency matrix.
        """
        n = len(self.points)
        i, j = self.query_pairs(radius)
        if alive is not None:
            live = np.asarray(alive, dtype=bool).reshape(n)
            keep = live[i] & live[j]
            i, j = i[keep], j[keep]
        rows = np.concatenate([i, j])
        cols = np.concatenate([j, i])
        order = np.lexsort((cols, rows))
        return csr_from_rows(rows[order], cols[order], n)

    def neighbor_lists(
        self,
        radius: Optional[float] = None,
        alive: Optional[np.ndarray] = None,
    ) -> List[List[int]]:
        """:meth:`neighbor_csr` as per-point ascending id lists."""
        indptr, indices = self.neighbor_csr(radius, alive)
        return [
            indices[a:b].tolist()
            for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())
        ]

    def adjacency(self, radius: Optional[float] = None) -> np.ndarray:
        """Dense boolean within-radius matrix, diagonal ``False``."""
        n = len(self.points)
        adj = np.zeros((n, n), dtype=bool)
        i, j = self.query_pairs(radius)
        adj[i, j] = True
        adj[j, i] = True
        return adj

    def __repr__(self) -> str:
        return (
            f"SpatialHashGrid(n_points={self.n_points}, "
            f"n_cells={self.n_cells}, cell_size={self.cell_size:g})"
        )


def radius_adjacency(points: np.ndarray, radius: float) -> np.ndarray:
    """Boolean within-``radius`` matrix with a ``False`` diagonal.

    Bit-identical to ``pairwise_distances(pts) <= radius`` with the
    diagonal cleared; uses the dense matrix at or below
    :data:`DENSE_CROSSOVER` points and the cell-list grid above it.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) <= DENSE_CROSSOVER:
        adj = pairwise_distances(pts) <= radius
        np.fill_diagonal(adj, False)
        return adj
    return SpatialHashGrid(pts, radius).adjacency()


def csr_from_rows(
    rows: np.ndarray, cols: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, cols)`` of ``n`` rows from row-sorted entry pairs."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols


def radius_neighbor_lists(
    points: np.ndarray,
    radius: float,
    alive: Optional[np.ndarray] = None,
) -> List[List[int]]:
    """Per-point neighbour id lists within ``radius`` (grid-backed).

    Convenience wrapper over :meth:`SpatialHashGrid.neighbor_lists` for
    callers that do not reuse the grid.
    """
    return SpatialHashGrid(points, radius).neighbor_lists(alive=alive)


def morton_argsort(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Order points along a Z-curve over their bounding box.

    Consecutive points in this order are spatially close: the block-pruned
    extrapolation search uses it to make query blocks compact, and the
    Delaunay build inserts each BRIO round in it so the walk to the next
    point is short. 10 bits per axis (a 1024x1024 bucketing) is plenty for
    both; points in one bucket keep their given order.
    """
    def spread(v: np.ndarray) -> np.ndarray:
        v = (v | (v << 8)) & 0x00FF00FF
        v = (v | (v << 4)) & 0x0F0F0F0F
        v = (v | (v << 2)) & 0x33333333
        v = (v | (v << 1)) & 0x55555555
        return v

    spanx = max(float(px.max() - px.min()), 1e-300)
    spany = max(float(py.max() - py.min()), 1e-300)
    nx = ((px - px.min()) * (1023.0 / spanx)).astype(np.uint32)
    ny = ((py - py.min()) * (1023.0 / spany)).astype(np.uint32)
    return np.argsort(spread(nx) | (spread(ny) << 1), kind="stable")
