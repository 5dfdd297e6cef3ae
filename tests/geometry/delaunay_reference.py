"""Equivalence oracle for :class:`repro.geometry.delaunay.DelaunayTriangulation`.

A Bowyer--Watson insert that tests every live triangle with one
whole-array scan, in growable numpy buffers; the production insert walks
to the point and grows the cavity through neighbours instead. The production class must
produce the same ``simplices`` (rows, vertex rotation and row order) and
``points`` after every insert; ``test_delaunay_equivalence.py`` checks
that.

Storage is struct-of-arrays with a per-slot liveness mask; dead slots are
compacted away (creation order kept) once they outnumber the live ones.
``_bad_triangle_slots`` evaluates the scalar predicate's in-circle
determinant on every live triangle, so each decision is the scalar
predicate's by construction; the production class filters with cached
circumcircles and must agree with it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.geometry.delaunay import DuplicatePointError, _VertexGrid
from repro.geometry.predicates import EPSILON
from repro.geometry.primitives import Point2, PointLike


#: Number of synthetic super-triangle vertices kept at internal indices 0..2.
_N_SUPER = 3

#: Initial capacity of the growable vertex / triangle buffers.
_INITIAL_CAPACITY = 32


class ReferenceDelaunayTriangulation:
    """Whole-scan Bowyer--Watson triangulation: the equivalence oracle.

    Parameters
    ----------
    points:
        Optional initial points, inserted in order.
    dedup_tol:
        Two points closer than this are considered the same vertex;
        re-inserting one raises :class:`DuplicatePointError` unless
        ``skip_duplicates`` is set.
    skip_duplicates:
        When true, inserting a duplicate silently returns the index of the
        existing vertex instead of raising.
    span:
        Half-extent of the synthetic super-triangle. Defaults to a value
        safely exceeding any coordinate the library's 100x100-style regions
        produce; pass a larger value for exotic coordinate ranges.
    """

    def __init__(
        self,
        points: Optional[Iterable[PointLike]] = None,
        dedup_tol: float = 1e-9,
        skip_duplicates: bool = False,
        span: float = 1e6,
    ) -> None:
        self._dedup_tol = float(dedup_tol)
        self._skip_duplicates = bool(skip_duplicates)

        # Vertex store: (capacity, 2) float buffer, first _nv rows valid,
        # mirrored by a plain list of (x, y) tuples for the scalar paths
        # (tuple unpacking is ~10x cheaper than numpy scalar indexing).
        self._vert_buf = np.empty((_INITIAL_CAPACITY, 2), dtype=float)
        self._vert_list: List[Tuple[float, float]] = []
        self._nv = 0
        # Deliberately asymmetric super-triangle to dodge degeneracies with
        # axis-aligned / diagonal input.
        for x, y in (
            (-3.17 * span, -2.89 * span),
            (3.61 * span, -3.07 * span),
            (0.13 * span, 3.79 * span),
        ):
            self._append_vertex(x, y)

        # Triangle store: slot-indexed parallel arrays, first _nt slots
        # allocated, live ones flagged in _tri_live. _tri_orient caches the
        # orientation sign of the *stored* vertex triple (+1 CCW, 0
        # numerically flat) so the vectorised in-circle scan can reproduce
        # the scalar predicate's degenerate-triangle handling exactly, and
        # _tri_xy caches the six vertex coordinates per slot (one
        # contiguous row per coordinate) so the scan needs no per-insert
        # index gather.
        self._tri_buf = np.zeros((_INITIAL_CAPACITY, 3), dtype=np.int64)
        self._tri_live = np.zeros(_INITIAL_CAPACITY, dtype=bool)
        self._tri_orient = np.zeros(_INITIAL_CAPACITY, dtype=np.int8)
        self._tri_xy = np.zeros((6, _INITIAL_CAPACITY), dtype=float)
        self._nt = 0
        self._n_live = 0
        self._simplices_cache: Optional[np.ndarray] = None

        self._add_triangles(np.array([0]), np.array([1]), np.array([2]))
        if points is not None:
            for p in points:
                self.insert(p)

    # ------------------------------------------------------------------
    # Growable storage
    # ------------------------------------------------------------------
    def _append_vertex(self, x: float, y: float) -> int:
        x, y = float(x), float(y)
        if self._nv == len(self._vert_buf):
            grown = np.empty((2 * len(self._vert_buf), 2), dtype=float)
            grown[: self._nv] = self._vert_buf[: self._nv]
            self._vert_buf = grown
        self._vert_buf[self._nv] = (x, y)
        self._vert_list.append((x, y))
        self._nv += 1
        return self._nv - 1

    def _pop_vertex(self) -> None:
        self._nv -= 1
        self._vert_list.pop()

    def _grow_triangle_buffers(self, needed: int) -> None:
        cap = len(self._tri_buf)
        while cap < needed:
            cap *= 2
        if cap == len(self._tri_buf):
            return
        for name in ("_tri_buf", "_tri_live", "_tri_orient"):
            old = getattr(self, name)
            grown = np.zeros((cap,) + old.shape[1:], dtype=old.dtype)
            grown[: self._nt] = old[: self._nt]
            setattr(self, name, grown)
        grown_xy = np.zeros((6, cap), dtype=float)
        grown_xy[:, : self._nt] = self._tri_xy[:, : self._nt]
        self._tri_xy = grown_xy

    def _new_slot(self) -> int:
        if self._nt == len(self._tri_buf):
            self._grow_triangle_buffers(self._nt + 1)
        self._nt += 1
        return self._nt - 1

    def _compact(self) -> None:
        """Drop dead triangle slots, preserving creation order of the rest."""
        live = self._tri_live[: self._nt]
        keep = np.flatnonzero(live)
        self._tri_buf[: len(keep)] = self._tri_buf[keep]
        self._tri_orient[: len(keep)] = self._tri_orient[keep]
        self._tri_xy[:, : len(keep)] = self._tri_xy[:, keep]
        self._tri_live[: len(keep)] = True
        self._tri_live[len(keep) : self._nt] = False
        self._nt = len(keep)

    # ------------------------------------------------------------------
    # Public views
    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        """Number of real (non-synthetic) vertices."""
        return self._nv - _N_SUPER

    @property
    def points(self) -> np.ndarray:
        """Real vertices as an ``(n, 2)`` float array (insertion order)."""
        return self._vert_buf[_N_SUPER : self._nv].copy()

    @property
    def simplices(self) -> np.ndarray:
        """Triangles as an ``(m, 3)`` int array (scipy-compatible view)."""
        if self._simplices_cache is None:
            tris = self._tri_buf[: self._nt][self._tri_live[: self._nt]]
            real = (tris >= _N_SUPER).all(axis=1)
            self._simplices_cache = (tris[real] - _N_SUPER).astype(int)
            self._simplices_cache.setflags(write=False)
        return self._simplices_cache

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, point: PointLike) -> int:
        """Insert ``point``; return its public vertex index.

        Raises :class:`DuplicatePointError` on (near-)duplicate input unless
        the triangulation was built with ``skip_duplicates=True``.
        """
        p = Point2.of(point)
        dup = self.find_vertex(p, tol=self._dedup_tol)
        if dup is not None:
            if self._skip_duplicates:
                return dup
            raise DuplicatePointError(f"point {p} duplicates vertex {dup}")

        if self._nt > 2 * _INITIAL_CAPACITY and 2 * self._n_live < self._nt:
            self._compact()

        internal_index = self._append_vertex(p.x, p.y)
        bad_slots = self._bad_triangle_slots(p.x, p.y)
        if bad_slots.size == 0:
            # Strictly inside no circumcircle. For a point inside the
            # super-triangle this means it sits exactly *on* circumcircle
            # boundaries (degenerate input — e.g. a non-duplicate point on
            # an existing edge). The closed-circumdisk cavity is still a
            # valid Bowyer–Watson step, so retry non-strictly; this path
            # cannot fire for any input the strict scan already handled.
            bad_slots = self._bad_triangle_slots_nonstrict(p.x, p.y)
        if bad_slots.size == 0:
            # Outside every closed circumdisk: only possible when the
            # point is outside the super-triangle.
            self._pop_vertex()
            raise ValueError(
                f"point {p} is outside the triangulation's working area; "
                "construct DelaunayTriangulation with a larger span"
            )

        boundary = self._cavity_boundary(bad_slots)
        self._tri_live[bad_slots] = False
        self._n_live -= len(bad_slots)
        u = np.fromiter((e[0] for e in boundary), dtype=np.intp, count=len(boundary))
        v = np.fromiter((e[1] for e in boundary), dtype=np.intp, count=len(boundary))
        self._add_triangles(u, v, np.full(len(boundary), internal_index, dtype=np.intp))
        self._simplices_cache = None
        return internal_index - _N_SUPER

    def _incircle_det(self, px: float, py: float) -> np.ndarray:
        """The scalar predicate's in-circle determinant, every slot."""
        n = self._nt
        xy = self._tri_xy
        adx, ady = xy[0, :n] - px, xy[1, :n] - py
        bdx, bdy = xy[2, :n] - px, xy[3, :n] - py
        cdx, cdy = xy[4, :n] - px, xy[5, :n] - py
        return (
            (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
            - (bdx * bdx + bdy * bdy) * (adx * cdy - cdx * ady)
            + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
        )

    def _bad_triangle_slots(self, px: float, py: float) -> np.ndarray:
        """Slots whose circumcircle strictly contains ``(px, py)``.

        The scalar predicate's rule: the determinant, sign-adjusted by
        the stored orientation, exceeds EPSILON. Flat (orient == 0) slots
        are never bad, so the cavity never grows through them.
        """
        det = self._incircle_det(px, py)
        orient = self._tri_orient[: self._nt]
        bad = self._tri_live[: self._nt] & (
            ((orient > 0) & (det > EPSILON)) | ((orient < 0) & (-det > EPSILON))
        )
        return np.flatnonzero(bad)

    def _bad_triangle_slots_nonstrict(self, px: float, py: float) -> np.ndarray:
        """Slots whose *closed* circumdisk contains ``(px, py)``.

        The fallback cavity for degenerate inserts (a point lying exactly
        on circumcircle boundaries, which the strict scan rejects): the
        strict scan with the inequality flipped to include the boundary;
        flat (orient == 0) slots stay excluded, as everywhere else.
        """
        det = self._incircle_det(px, py)
        orient = self._tri_orient[: self._nt]
        bad = self._tri_live[: self._nt] & (
            ((orient > 0) & (det >= -EPSILON))
            | ((orient < 0) & (-det >= -EPSILON))
        )
        return np.flatnonzero(bad)

    def _add_triangles(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        """Add triangles ``(a[i], b[i], c[i])`` in order, one slot each.

        A clockwise triple is stored with ``a`` and ``b`` swapped; its
        orientation is recomputed from the stored triple, which is what
        the scalar in-circle predicate sees.
        """
        e = len(a)
        if e == 0:
            return
        self._grow_triangle_buffers(self._nt + e)
        tri = np.empty((e, 3), dtype=self._tri_buf.dtype)
        tri[:, 0] = a
        tri[:, 1] = b
        tri[:, 2] = c
        xy = self._vert_buf[tri.ravel()].reshape(e, 3, 2)
        ax, ay = xy[:, 0, 0], xy[:, 0, 1]
        bx, by = xy[:, 1, 0], xy[:, 1, 1]
        cx, cy = xy[:, 2, 0], xy[:, 2, 1]
        det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        swap = np.flatnonzero(det < -EPSILON)
        if swap.size:
            tri[swap, 0], tri[swap, 1] = tri[swap, 1], tri[swap, 0]
            xy[swap, 0], xy[swap, 1] = xy[swap, 1], xy[swap, 0]
            sa, sb, sc = xy[swap, 0], xy[swap, 1], xy[swap, 2]
            det[swap] = (sb[:, 0] - sa[:, 0]) * (sc[:, 1] - sa[:, 1]) - (
                sb[:, 1] - sa[:, 1]
            ) * (sc[:, 0] - sa[:, 0])
        s0 = self._nt
        s1 = s0 + e
        self._nt = s1
        self._tri_buf[s0:s1] = tri
        self._tri_live[s0:s1] = True
        orient = np.zeros(e, dtype=self._tri_orient.dtype)
        orient[det > EPSILON] = 1
        orient[det < -EPSILON] = -1
        self._tri_orient[s0:s1] = orient
        self._tri_xy[:, s0:s1] = xy.reshape(e, 6).T
        self._n_live += e
        self._simplices_cache = None

    def _cavity_boundary(self, bad_slots: np.ndarray) -> List[Tuple[int, int]]:
        """Directed edges of the cavity border, interior on the left.

        Edges appearing in exactly one cavity triangle, in first-occurrence
        order of the triangles' ``(a,b) (b,c) (c,a)`` edge scan — the same
        sequence the original dict accumulation produced, so downstream
        triangle slots are assigned identically.
        """
        rows = self._tri_buf[bad_slots]
        if len(rows) > 4:
            u = rows[:, (0, 1, 2)].ravel()
            v = rows[:, (1, 2, 0)].ravel()
            lo = np.minimum(u, v).astype(np.int64)
            hi = np.maximum(u, v).astype(np.int64)
            _, first, counts = np.unique(
                lo * np.int64(self._nv + 1) + hi,
                return_index=True,
                return_counts=True,
            )
            pos = np.sort(first[counts == 1])
            return list(zip(u[pos].tolist(), v[pos].tolist()))
        count: Dict[Tuple[int, int], int] = {}
        directed: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for row in rows.tolist():
            a, b, c = row
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                count[key] = count.get(key, 0) + 1
                directed[key] = (u, v)
        return [directed[k] for k, n in count.items() if n == 1]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find_vertex(self, point: PointLike, tol: float = 1e-9) -> Optional[int]:
        """Public index of an existing vertex within ``tol``, else ``None``."""
        p = Point2.of(point)
        real = self._vert_buf[_N_SUPER : self._nv]
        if len(real) == 0:
            return None
        dx = np.abs(real[:, 0] - p.x)
        dy = np.abs(real[:, 1] - p.y)
        box = (dx <= tol) & (dy <= tol)
        if not box.any():
            return None
        cand = np.flatnonzero(box)
        hit = cand[dx[cand] ** 2 + dy[cand] ** 2 <= tol * tol]
        if hit.size == 0:
            return None
        return int(hit[0])


def reference_dedup_kept(points: np.ndarray, tol: float) -> np.ndarray:
    """Sequential dedup: the oracle of :func:`repro.geometry.delaunay._dedup_kept`.

    Walks the points in input order, keeping each one unless the hash
    grid of the points kept so far holds one within ``tol`` (the test of
    ``DelaunayTriangulation.find_vertex``).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    grid = _VertexGrid(tol if tol > 0 else 1.0)
    kept = []
    for i, (x, y) in enumerate(pts.tolist()):
        if grid.find(x, y, tol) is None:
            grid.add(x, y)
            kept.append(i)
    return np.asarray(kept, dtype=int)
