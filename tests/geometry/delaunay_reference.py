"""Equivalence oracle for :class:`repro.geometry.delaunay.DelaunayTriangulation`.

A Bowyer--Watson insert that tests every live triangle with one
whole-array scan, in growable numpy buffers; the production insert walks
to the point and grows the cavity through neighbours instead. The production class must
produce the same ``simplices`` (rows, vertex rotation and row order) and
``points`` after every insert; ``test_delaunay_equivalence.py`` checks
that.

Storage is struct-of-arrays with a per-slot liveness mask; dead slots are
compacted away (creation order kept) once they outnumber the live ones.
``_bad_triangle_slots`` decides every live triangle exactly, with a
predicate written apart from the kernel's: a float determinant, and
``fractions.Fraction`` for every one within a wide margin of zero
(:func:`exact_incircle`). The new point ranks above every vertex, so an
exact tie is "outside".

The module also holds the exact empty-circumcircle check
(:func:`is_delaunay`), the edge list of a mesh (:func:`mesh_edges`) and
the near-tie lattices the tests share.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.geometry.delaunay import DuplicatePointError, _VertexGrid
from repro.geometry.primitives import Point2, PointLike


def exact_orient(a: PointLike, b: PointLike, c: PointLike) -> int:
    """The sign of ``(b - a) x (c - a)``, in rational arithmetic."""
    (ax, ay), (bx, by), (cx, cy) = (map(Fraction, p) for p in (a, b, c))
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def exact_incircle(a: PointLike, b: PointLike, c: PointLike, d: PointLike) -> int:
    """The sign of ``d`` against the circle through ``a, b, c``, rationally.

    ``+1`` inside, ``0`` on, ``-1`` outside when ``a, b, c`` turn
    counter-clockwise (the opposite signs when they turn clockwise).
    """
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = (
        map(Fraction, p) for p in (a, b, c, d)
    )
    rows = [(x - dx, y - dy) for x, y in ((ax, ay), (bx, by), (cx, cy))]
    (p, q), (r, s), (t, u) = rows
    det = (
        (p * p + q * q) * (r * u - t * s)
        - (r * r + s * s) * (p * u - t * q)
        + (t * t + u * u) * (p * s - r * q)
    )
    return (det > 0) - (det < 0)


def is_delaunay(tri) -> bool:
    """Exact empty-circumcircle check of ``tri``'s real triangles.

    Every real triangle must be counter-clockwise and no real vertex may
    lie strictly inside its circumcircle; a vertex on it is allowed
    (cocircular input has several Delaunay triangulations). O(m·n) in
    rational arithmetic: for tests only.
    """
    pts = [tuple(map(float, p)) for p in tri.points]
    for a, b, c in tri.simplices.tolist():
        pa, pb, pc = pts[a], pts[b], pts[c]
        if exact_orient(pa, pb, pc) <= 0:
            return False
        for i, q in enumerate(pts):
            if i not in (a, b, c) and exact_incircle(pa, pb, pc, q) > 0:
                return False
    return True


def mesh_edges(tri) -> List[Tuple[int, int]]:
    """Undirected edges of ``tri``'s real triangles, as sorted index pairs."""
    simp = np.asarray(tri.simplices).reshape(-1, 3)
    pairs = np.sort(np.vstack([simp[:, (0, 1)], simp[:, (1, 2)], simp[:, (2, 0)]]), axis=1)
    return [(int(u), int(v)) for u, v in np.unique(pairs, axis=0)]


def square_lattice(n, spacing, offset):
    """``n x n`` points, row-major, ``spacing`` apart from ``(offset, offset)``."""
    return np.array(
        [(offset + spacing * x, offset + spacing * y)
         for y in range(n) for x in range(n)]
    )


def near_tie_lattice(kind, seed):
    """A row-major 7 x 7 lattice whose near-ties an absolute tolerance mixes up.

    ``"fine"`` has spacing 0.001 and ``"jitter"`` spacing 0.1 with every
    point moved by up to 1e-10: near-ties an absolute tolerance of 1e-9
    cannot tell from ties. ``"near"`` has spacing 1 and, right after a
    vertex in the middle rows, a point 1.2e-8 from it. Each is offset by a
    seeded draw.
    """
    rng = np.random.default_rng(seed)
    offset = rng.uniform(-50.0, 50.0, size=2)
    spacing = {"fine": 0.001, "near": 1.0, "jitter": 0.1}[kind]
    pts = offset + square_lattice(7, spacing, 0.0)
    if kind == "near":
        v = int(rng.integers(10, 40))
        near = pts[v] + 1.2e-8 * np.array([0.6, 0.8])
        pts = np.vstack([pts[: v + 1], near, pts[v + 1:]])
    elif kind == "jitter":
        pts = pts + rng.uniform(-1e-10, 1e-10, size=pts.shape)
    return pts


def near_vertex_lattice():
    """A 7x7 lattice of spacing 0.005 plus one point 1.2e-8 from a vertex."""
    g = np.arange(7) * 0.005
    xx, yy = np.meshgrid(g, g)
    lattice = np.c_[xx.ravel(), yy.ravel()]
    lattice += (22.965544642994402, -32.4344379397441)
    return np.vstack([lattice, [22.985544631399293, -32.43443794283496]])


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
        # allocated, live ones flagged in _tri_live. _tri_xy caches the six
        # vertex coordinates per slot (one contiguous row per coordinate)
        # so the scan needs no per-insert index gather.
        self._tri_buf = np.zeros((_INITIAL_CAPACITY, 3), dtype=np.int64)
        self._tri_live = np.zeros(_INITIAL_CAPACITY, dtype=bool)
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

    def _grow_triangle_buffers(self, needed: int) -> None:
        cap = len(self._tri_buf)
        while cap < needed:
            cap *= 2
        if cap == len(self._tri_buf):
            return
        for name in ("_tri_buf", "_tri_live"):
            old = getattr(self, name)
            grown = np.zeros((cap,) + old.shape[1:], dtype=old.dtype)
            grown[: self._nt] = old[: self._nt]
            setattr(self, name, grown)
        grown_xy = np.zeros((6, cap), dtype=float)
        grown_xy[:, : self._nt] = self._tri_xy[:, : self._nt]
        self._tri_xy = grown_xy

    def _compact(self) -> None:
        """Drop dead triangle slots, preserving creation order of the rest."""
        live = self._tri_live[: self._nt]
        keep = np.flatnonzero(live)
        self._tri_buf[: len(keep)] = self._tri_buf[keep]
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

        if not (np.isfinite(p.x) and np.isfinite(p.y)) or not all(
            exact_orient(self._vert_list[u], self._vert_list[v], (p.x, p.y)) > 0
            for u, v in ((0, 1), (1, 2), (2, 0))
        ):
            raise ValueError(
                f"point {p} is outside the triangulation's working area; "
                "construct DelaunayTriangulation with a larger span"
            )
        internal_index = self._append_vertex(p.x, p.y)
        bad_slots = self._bad_triangle_slots(p.x, p.y)

        boundary = self._cavity_boundary(bad_slots)
        self._tri_live[bad_slots] = False
        self._n_live -= len(bad_slots)
        u = np.fromiter((e[0] for e in boundary), dtype=np.intp, count=len(boundary))
        v = np.fromiter((e[1] for e in boundary), dtype=np.intp, count=len(boundary))
        self._add_triangles(u, v, np.full(len(boundary), internal_index, dtype=np.intp))
        self._simplices_cache = None
        return internal_index - _N_SUPER

    def _bad_triangle_slots(self, px: float, py: float) -> np.ndarray:
        """Live slots whose circumcircle strictly contains ``(px, py)``.

        Every stored triangle is counter-clockwise. The float determinant
        decides a slot when it is clear of zero by a margin about a
        thousand times wider than its rounding can reach; every other live slot is
        decided by :func:`exact_incircle`.
        """
        n = self._nt
        xy = self._tri_xy
        adx, ady = xy[0, :n] - px, xy[1, :n] - py
        bdx, bdy = xy[2, :n] - px, xy[3, :n] - py
        cdx, cdy = xy[4, :n] - px, xy[5, :n] - py
        alift = adx * adx + ady * ady
        blift = bdx * bdx + bdy * bdy
        clift = cdx * cdx + cdy * cdy
        det = (
            alift * (bdx * cdy - cdx * bdy)
            - blift * (adx * cdy - cdx * ady)
            + clift * (adx * bdy - bdx * ady)
        )
        scale = (
            alift * (np.abs(bdx * cdy) + np.abs(cdx * bdy))
            + blift * (np.abs(adx * cdy) + np.abs(cdx * ady))
            + clift * (np.abs(adx * bdy) + np.abs(bdx * ady))
        )
        live = self._tri_live[:n]
        bad = live & (det > 1e-12 * scale)
        unsure = np.flatnonzero(live & (np.abs(det) <= 1e-12 * scale))
        q = (px, py)
        for slot in unsure.tolist():
            a, b, c = (self._vert_list[v] for v in self._tri_buf[slot].tolist())
            bad[slot] = exact_incircle(a, b, c, q) > 0
        return np.flatnonzero(bad)

    def _add_triangles(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        """Add triangles ``(a[i], b[i], c[i])`` in order, one slot each."""
        e = len(a)
        if e == 0:
            return
        self._grow_triangle_buffers(self._nt + e)
        tri = np.empty((e, 3), dtype=self._tri_buf.dtype)
        tri[:, 0] = a
        tri[:, 1] = b
        tri[:, 2] = c
        xy = self._vert_buf[tri.ravel()].reshape(e, 3, 2)
        s0 = self._nt
        s1 = s0 + e
        self._nt = s1
        self._tri_buf[s0:s1] = tri
        self._tri_live[s0:s1] = True
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
