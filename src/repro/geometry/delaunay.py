"""Incremental Bowyer--Watson Delaunay triangulation.

The paper reconstructs the environment surface from the ``k`` sampled
positions with a Delaunay triangulation (``z* = DT(x, y)``, Section 3.1) and
FRA refines that triangulation one insertion at a time (Table 1). This
module provides exactly that: a triangulation that supports *incremental*
insertion, built from scratch on two exact predicates.

Implementation notes
--------------------
* A large super-triangle encloses all real points; triangles incident to its
  three synthetic vertices are hidden from the public API.
* Triangles live in a dict keyed by a creation id. Dicts iterate in
  insertion order, so ``simplices`` lists the live triangles in creation
  order. Beside each triangle ``(a, b, c)`` three neighbour slots hold
  the ids of the triangles across ``(a, b)``, ``(b, c)`` and ``(c, a)``
  (``-1`` across an edge of the super-triangle), as in Shewchuk's
  *Triangle*.
* The orientation and in-circle predicates are exact (Shewchuk 1997,
  *Adaptive Precision Floating-Point Arithmetic and Fast Robust Geometric
  Predicates*): each is a float determinant with its stage-A error bound,
  and only a determinant inside that bound is recomputed in integers (see
  ``_orient`` and ``_incircle_exact``).
* Cocircular points (common on integer grids) make the Delaunay
  triangulation non-unique. An exact in-circle tie is resolved by a
  symbolic perturbation keyed on each vertex's priority (see ``_bad``).
  ``insert`` gives each point its insertion index, so every tie resolves
  as "outside". With fixed priorities the triangles depend only on the
  point set, not on the insertion order.
* An insert walks from the last-created triangle to the one containing
  the point. With exact predicates that triangle is always bad, and the
  bad triangles form a disk, star-shaped around the point, so the cavity
  grows from it through bad neighbours and every fan triangle is
  counter-clockwise. The cavity triangles are taken in creation order and
  the new fan follows the order of their ``(a,b) (b,c) (c,a)`` border
  edges, so the rows and their order are what a scan over every triangle
  gives. Each new triangle is wired to the triangle across its border
  edge and to its two fan neighbours.
* Duplicate detection (``find_vertex``) looks up a hash grid of cell side
  ``dedup_tol`` instead of scanning every vertex.
* :func:`delaunay_mesh`, the measurement build, inserts in
  :func:`brio_order` with each point's input index as its priority, and
  gets the triangles of the in-order build with short walks and small
  cavities.
"""

from __future__ import annotations

import math
from itertools import chain, islice
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as np

from repro.geometry.predicates import EPSILON
from repro.geometry.primitives import Point2, PointLike
from repro.geometry.spatial_index import morton_argsort


class Triangle(NamedTuple):
    """Vertex indices of one triangle, counter-clockwise."""

    a: int
    b: int
    c: int

    def edges(self) -> Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]:
        """The three undirected edges as frozensets of vertex indices."""
        return (
            frozenset((self.a, self.b)),
            frozenset((self.b, self.c)),
            frozenset((self.c, self.a)),
        )

    def has_vertex(self, index: int) -> bool:
        return index in (self.a, self.b, self.c)


class DuplicatePointError(ValueError):
    """Raised when inserting a point that coincides with an existing vertex."""


def canonical_simplices(simplices: np.ndarray) -> np.ndarray:
    """Order-independent canonical form of an ``(m, 3)`` triangle array.

    Each row is rotated so its smallest vertex index comes first —
    preserving cyclic orientation, hence each triangle's barycentric
    arithmetic bit-for-bit — then rows are sorted lexicographically. Two
    triangulations over the same point set with the same triangle *set*
    (e.g. built by different insertion orders) canonicalise to the same
    array regardless of construction history, which makes downstream
    order-sensitive consumers (the rasteriser's shared-edge tie-break,
    extrapolation's first-improvement winner) bit-identical across the
    two.
    """
    simp = np.asarray(simplices, dtype=int).reshape(-1, 3)
    if simp.size == 0:
        return simp.copy()
    rot = np.argmin(simp, axis=1)
    idx = (rot[:, None] + np.arange(3)[None, :]) % 3
    rows = np.take_along_axis(simp, idx, axis=1)
    order = np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))
    return rows[order]


#: Number of synthetic super-triangle vertices kept at internal indices 0..2.
_N_SUPER = 3

#: A find_vertex query spanning more hash-grid cells than this scans every
#: vertex instead (only a tol much larger than dedup_tol gets there).
_MAX_QUERY_CELLS = 64

#: Shewchuk's stage-A error bounds, u = 2^-53: a float orientation
#: determinant l - r is off by at most _ORIENT_ERR * (|l| + |r|), and a
#: float in-circle determinant by at most _INCIRCLE_ERR times its
#: permanent (the same sum over absolute values). _TINY covers products
#: that underflow; it holds for every coordinate up to 1e20 in magnitude.
#: A determinant past its bound has the exact sign.
_U = 2.0 ** -53
_ORIENT_ERR = (3.0 + 16.0 * _U) * _U
_INCIRCLE_ERR = (10.0 + 96.0 * _U) * _U
_TINY = 2.0 ** -900

#: Points in the first BRIO round; each later round doubles (see brio_order).
_BRIO_FIRST = 64

#: Seed of the fixed permutation that draws the BRIO rounds.
_BRIO_SEED = 0


def _integers(*coords: float) -> List[int]:
    """``coords`` scaled by one shared power of two into integers."""
    ratios = [x.as_integer_ratio() for x in coords]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios]


def _orient(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float
) -> float:
    """A number with the exact sign of ``(b - a) x (c - a)``.

    Positive when ``a, b, c`` turn counter-clockwise, zero when they are
    collinear.
    """
    left = (bx - ax) * (cy - ay)
    right = (by - ay) * (cx - ax)
    det = left - right
    if abs(det) > _ORIENT_ERR * (abs(left) + abs(right)) + _TINY:
        return det
    ax, ay, bx, by, cx, cy = _integers(ax, ay, bx, by, cx, cy)
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def _incircle_exact(
    ax: float, ay: float, bx: float, by: float,
    cx: float, cy: float, px: float, py: float,
) -> int:
    """The in-circle determinant of ``(a, b, c)`` against ``p``, in integers.

    Positive when ``p`` is inside the circle through a counter-clockwise
    ``a, b, c``, zero when it is on it.
    """
    ax, ay, bx, by, cx, cy, px, py = _integers(ax, ay, bx, by, cx, cy, px, py)
    adx, ady = ax - px, ay - py
    bdx, bdy = bx - px, by - py
    cdx, cdy = cx - px, cy - py
    return (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )


def _dedup_tolerance(tol: float) -> float:
    """``tol`` as a float, checked to be finite and not negative."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(
            f"dedup tolerance must be finite and >= 0, got {tol}"
        )
    return tol


class _VertexGrid:
    """Points hashed into square cells, for the lowest index within ``tol``."""

    def __init__(self, cell: float) -> None:
        self._cell = cell
        self._pts: List[Tuple[float, float]] = []
        self._cells: Dict[Tuple[int, int], List[int]] = {}

    def add(self, x: float, y: float) -> None:
        """Append point ``(x, y)`` as the next index."""
        if math.isfinite(x) and math.isfinite(y):
            # (find scans every point for a non-finite query.)
            h = self._cell
            self._cells.setdefault(
                (math.floor(x / h), math.floor(y / h)), []
            ).append(len(self._pts))
        self._pts.append((x, y))

    def find(self, x: float, y: float, tol: float) -> Optional[int]:
        """The lowest index of a point within ``tol`` of ``(x, y)``.

        A point matches when both coordinate differences are within
        ``tol`` and its squared distance is within ``tol * tol``.
        """
        pts = self._pts
        candidates: Iterable[int] = range(len(pts))
        if math.isfinite(tol) and math.isfinite(x) and math.isfinite(y):
            # Cells of every point the box test can pass: a coordinate
            # difference that rounds to <= tol is at most tol * (1 + 2^-52)
            # exactly, and the 4-ulp pad covers that and the rounding of
            # the bounds themselves.
            h = self._cell
            mx = tol + 4.0 * math.ulp(abs(x) + tol)
            my = tol + 4.0 * math.ulp(abs(y) + tol)
            i0, i1 = math.floor((x - mx) / h), math.floor((x + mx) / h)
            j0, j1 = math.floor((y - my) / h), math.floor((y + my) / h)
            if (i1 - i0 + 1) * (j1 - j0 + 1) <= _MAX_QUERY_CELLS:
                cells = self._cells
                found: List[int] = []
                for i in range(i0, i1 + 1):
                    for j in range(j0, j1 + 1):
                        found.extend(cells.get((i, j), ()))
                candidates = sorted(found)
        tol2 = tol * tol
        for v in candidates:
            vx, vy = pts[v]
            dx = abs(vx - x)
            dy = abs(vy - y)
            if dx <= tol and dy <= tol and dx * dx + dy * dy <= tol2:
                return v
        return None



class DelaunayTriangulation:
    """A planar Delaunay triangulation supporting incremental insertion.

    Parameters
    ----------
    points:
        Optional initial points, inserted in order.
    dedup_tol:
        Two points closer than this are considered the same vertex;
        re-inserting one raises :class:`DuplicatePointError` unless
        ``skip_duplicates`` is set. Must be finite and not negative; at
        ``0`` only exact duplicates match.
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
        self._dedup_tol = _dedup_tolerance(dedup_tol)
        self._skip_duplicates = bool(skip_duplicates)

        # Deliberately asymmetric super-triangle to dodge degeneracies with
        # axis-aligned / diagonal input.
        self._verts: List[Tuple[float, float]] = [
            (-3.17 * span, -2.89 * span),
            (3.61 * span, -3.07 * span),
            (0.13 * span, 3.79 * span),
        ]
        # Tie-break priority of each vertex (see _bad): the super
        # vertices rank below every real one.
        self._prio: List[float] = [-3.0, -2.0, -1.0]
        # Hash grid over the real vertices for find_vertex.
        self._grid = _VertexGrid(
            self._dedup_tol if self._dedup_tol > 0 else 1.0
        )

        # Live triangles (a, b, c), counter-clockwise, by creation id (dict
        # order is creation order), and their neighbour slots: the ids
        # across (a, b), (b, c) and (c, a), -1 across a super-triangle edge.
        self._tris: Dict[int, Tuple[int, int, int]] = {}
        self._nbr: Dict[int, List[int]] = {}
        self._next_id = 0
        # Ids of the triangles the last insert created (see new_triangles).
        self._new_ids = range(0)
        self._simplices_cache: Optional[np.ndarray] = None
        self._points_cache: Optional[np.ndarray] = None

        self._add_fan([(0, 1, -1, -1)], 2)
        if points is not None:
            for p in points:
                self.insert(p)

    # ------------------------------------------------------------------
    # Public views
    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        """Number of real (non-synthetic) vertices."""
        return len(self._verts) - _N_SUPER

    @property
    def points(self) -> np.ndarray:
        """Real vertices as an ``(n, 2)`` float array (insertion order)."""
        return self._real_points().copy()

    def _real_points(self) -> np.ndarray:
        if self._points_cache is None:
            real = islice(self._verts, _N_SUPER, None)
            self._points_cache = np.fromiter(
                chain.from_iterable(real), dtype=float, count=2 * self.n_points
            ).reshape(-1, 2)
        return self._points_cache

    @property
    def triangles(self) -> List[Triangle]:
        """Triangles not incident to the super-triangle, as *public* indices."""
        return [Triangle(int(a), int(b), int(c)) for a, b, c in self.simplices]

    @property
    def simplices(self) -> np.ndarray:
        """Triangles as an ``(m, 3)`` int array (scipy-compatible view).

        The live triangles without a super vertex, in creation order.
        """
        if self._simplices_cache is None:
            tris = self._tris
            rows = chain.from_iterable(tris.values())
            simp = np.fromiter(rows, dtype=int, count=3 * len(tris))
            simp = simp.reshape(-1, 3)
            simp = simp[simp.min(axis=1) >= _N_SUPER] - _N_SUPER
            simp.setflags(write=False)
            self._simplices_cache = simp
        return self._simplices_cache

    @property
    def new_triangles(self) -> np.ndarray:
        """The real triangles the last insert created, as ``simplices`` rows.

        In creation order, so they are the rows of :attr:`simplices` that
        hold the new vertex, in the same order; empty when the last insert
        created none (a skipped duplicate, or a fan around the new vertex
        that only touches the super-triangle).
        """
        tris = self._tris
        rows = [tris[t] for t in self._new_ids]
        simp = np.array(rows, dtype=int).reshape(-1, 3)
        return simp[simp.min(axis=1) >= _N_SUPER] - _N_SUPER

    def point(self, index: int) -> Point2:
        """The coordinates of public vertex ``index``."""
        if not 0 <= index < self.n_points:
            raise IndexError(f"vertex index {index} out of range")
        x, y = self._verts[index + _N_SUPER]
        return Point2(x, y)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, point: PointLike) -> int:
        """Insert ``point``; return its public vertex index.

        The point's tie-break priority (see :meth:`_bad`) is its public
        index: it ranks above every vertex already there, so each tie
        resolves with the new point outside.

        Raises :class:`DuplicatePointError` on (near-)duplicate input unless
        the triangulation was built with ``skip_duplicates=True``, and
        :class:`ValueError` for a point that is not finite or not strictly
        inside the super-triangle.
        """
        p = Point2.of(point)
        px, py = p.x, p.y
        self._new_ids = range(0)
        dup = self._grid.find(px, py, self._dedup_tol)
        if dup is not None:
            if self._skip_duplicates:
                return dup
            raise DuplicatePointError(f"point {p} duplicates vertex {dup}")
        index = self._insert_new(px, py, self.n_points)
        self._grid.add(px, py)
        return index

    def _insert_new(self, px: float, py: float, prio: float) -> int:
        """Insert a point known not to duplicate a vertex, at priority ``prio``.

        Priorities must be distinct. With every point given its index in
        one fixed order as priority, the insertion order does not change
        the triangles. The point is not added to the :meth:`find_vertex`
        grid: callers that insert here dedup on their own (see
        :func:`delaunay_mesh`).
        """
        start = None
        if math.isfinite(px) and math.isfinite(py):
            start = self._walk(px, py)
        if start is None:
            raise ValueError(
                f"point {Point2(px, py)} is outside the triangulation's "
                "working area; construct DelaunayTriangulation with a "
                "larger span"
            )

        # Cavity border, interior on the left, in the order of the
        # (a,b) (b,c) (c,a) scan of the cavity: the edges whose other
        # side is not in the cavity. Each carries the triangle across it
        # and the cavity triangle it came from.
        tris = self._tris
        nbr = self._nbr
        cavity = self._grow_cavity(start, px, py, prio)
        inner = set(cavity)
        boundary: List[Tuple[int, int, int, int]] = []
        for t in cavity:
            a, b, c = tris.pop(t)
            n0, n1, n2 = nbr.pop(t)
            if n0 not in inner:
                boundary.append((a, b, n0, t))
            if n1 not in inner:
                boundary.append((b, c, n1, t))
            if n2 not in inner:
                boundary.append((c, a, n2, t))

        index = len(self._verts)
        self._verts.append((px, py))
        self._prio.append(prio)
        self._add_fan(boundary, index)
        self._simplices_cache = None
        self._points_cache = None
        return index - _N_SUPER

    def _walk(self, px: float, py: float) -> Optional[int]:
        """The triangle containing ``(px, py)``, found by a visibility walk.

        Starts at the last-created triangle and crosses an edge the point
        lies strictly to the right of. A point on an edge of the
        super-triangle crosses it too. Returns ``None`` when the walk leaves
        the super-triangle. On a Delaunay triangulation with exact
        orientation tests the walk cannot cycle (Edelsbrunner 1990).
        """
        tris = self._tris
        nbr = self._nbr
        verts = self._verts
        t = self._next_id - 1
        while t >= 0:
            a, b, c = tris[t]
            ax, ay = verts[a]
            bx, by = verts[b]
            cx, cy = verts[c]
            n0, n1, n2 = nbr[t]
            side = _orient(ax, ay, bx, by, px, py)
            if side < 0 or (side == 0 and n0 < 0):
                t = n0
                continue
            side = _orient(bx, by, cx, cy, px, py)
            if side < 0 or (side == 0 and n1 < 0):
                t = n1
                continue
            side = _orient(cx, cy, ax, ay, px, py)
            if side < 0 or (side == 0 and n2 < 0):
                t = n2
                continue
            return t
        return None

    def _bad(
        self, tri: Tuple[int, int, int], px: float, py: float, prio: float
    ) -> bool:
        """Whether ``(px, py)`` at priority ``prio`` conflicts with ``tri``.

        True when the triangle's circumcircle strictly contains the point,
        or the point is exactly on it and the tie rule below says inside.

        Tie rule, a symbolic perturbation keyed on the priorities: each
        vertex's lifted height ``x^2 + y^2`` is raised by an infinitesimal
        that dominates every lower priority's. When the query ranks
        highest of the four points, raising it puts it outside. Otherwise
        the triangle's highest vertex ``v`` decides: raising ``v`` lifts
        the circle's plane on ``v``'s side of the opposite edge, so the
        triangle is bad iff the query lies strictly on that side. A
        consistent perturbation leaves one Delaunay triangulation, so the
        triangles do not depend on the order the points were inserted in.
        """
        a, b, c = tri
        verts = self._verts
        ax, ay = verts[a]
        bx, by = verts[b]
        cx, cy = verts[c]
        adx, ady = ax - px, ay - py
        bdx, bdy = bx - px, by - py
        cdx, cdy = cx - px, cy - py
        bdxcdy, cdxbdy = bdx * cdy, cdx * bdy
        cdxady, adxcdy = cdx * ady, adx * cdy
        adxbdy, bdxady = adx * bdy, bdx * ady
        alift = adx * adx + ady * ady
        blift = bdx * bdx + bdy * bdy
        clift = cdx * cdx + cdy * cdy
        det = (
            alift * (bdxcdy - cdxbdy)
            + blift * (cdxady - adxcdy)
            + clift * (adxbdy - bdxady)
        )
        bound = _INCIRCLE_ERR * (
            alift * (abs(bdxcdy) + abs(cdxbdy))
            + blift * (abs(cdxady) + abs(adxcdy))
            + clift * (abs(adxbdy) + abs(bdxady))
        ) + _TINY
        if det > bound:
            return True
        if det < -bound:
            return False
        exact = _incircle_exact(ax, ay, bx, by, cx, cy, px, py)
        if exact:
            return exact > 0
        prios = self._prio
        pa, pb, pc = prios[a], prios[b], prios[c]
        if prio > pa and prio > pb and prio > pc:
            return False
        if pa > pb and pa > pc:
            u, v = b, c
        elif pb > pc:
            u, v = c, a
        else:
            u, v = a, b
        # The highest vertex is left of u -> v. The point is on neither
        # side only when it is u or v: a line meets a circle twice.
        return _orient(*verts[u], *verts[v], px, py) > 0

    def _grow_cavity(
        self, start: int, px: float, py: float, prio: float
    ) -> List[int]:
        """The bad triangles, sorted by creation id.

        ``start`` holds the point, so it is bad; the bad triangles form a
        disk around it, so they are the ones reached through bad
        neighbours.
        """
        tris = self._tris
        nbr = self._nbr
        bad = self._bad
        cavity = [start]
        seen = {start, -1}  # -1: no triangle across the edge
        todo = [start]
        while todo:
            for n in nbr[todo.pop()]:
                if n not in seen:
                    seen.add(n)
                    if bad(tris[n], px, py, prio):
                        cavity.append(n)
                        todo.append(n)
        cavity.sort()
        return cavity

    def _add_fan(self, boundary: List[Tuple[int, int, int, int]], c: int) -> None:
        """Create triangle ``(u, v, c)`` for each border edge, in order.

        Each border edge ``(u, v, n, t)`` names the triangle ``n`` across
        it and the removed triangle ``t`` whose slot it was. Each new
        triangle gets the next creation id and takes ``n`` as its
        neighbour across ``(u, v)``, ``n`` takes it in place of ``t``, and
        the fan triangles are linked around ``c``: the one across
        ``(v, c)`` is the one whose border edge starts at ``v``.
        """
        tris = self._tris
        nbr = self._nbr
        # Fan triangle by the border vertex its edge starts / ends at.
        starts: Dict[int, int] = {}
        ends: Dict[int, int] = {}
        t = self._next_id
        for a, b, n, old in boundary:
            tris[t] = (a, b, c)
            slots = [n, -1, -1]
            if n >= 0:
                slots_n = nbr[n]
                slots_n[slots_n.index(old)] = t
            s = starts.get(b)
            if s is not None:
                slots[1] = s
                nbr[s][2] = t
            e = ends.get(a)
            if e is not None:
                slots[2] = e
                nbr[e][1] = t
            starts[a] = t
            ends[b] = t
            nbr[t] = slots
            t += 1
        self._new_ids = range(self._next_id, t)
        self._next_id = t

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find_vertex(self, point: PointLike, tol: float = 1e-9) -> Optional[int]:
        """Public index of an existing vertex within ``tol``, else ``None``.

        The lowest such index: a vertex matches when both coordinate
        differences are within ``tol`` and its squared distance is within
        ``tol * tol``.
        """
        p = Point2.of(point)
        return self._grid.find(p.x, p.y, float(tol))

    def locate(self, point: PointLike) -> Optional[Triangle]:
        """The real triangle containing ``point`` (boundary inclusive).

        Returns ``None`` when the point is outside the convex hull of the
        real vertices. Evaluated as one whole-array orientation test per
        edge, matching the scalar ``point_in_triangle`` predicate.
        """
        p = Point2.of(point)
        simp = self.simplices
        if simp.size == 0:
            return None
        pts = self._real_points()
        a = pts[simp[:, 0]]
        b = pts[simp[:, 1]]
        c = pts[simp[:, 2]]

        def orient_sign(ox, oy, tx, ty) -> np.ndarray:
            det = (tx - ox) * (p.y - oy) - (ty - oy) * (p.x - ox)
            return np.where(det > EPSILON, 1, np.where(det < -EPSILON, -1, 0))

        o1 = orient_sign(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
        o2 = orient_sign(b[:, 0], b[:, 1], c[:, 0], c[:, 1])
        o3 = orient_sign(c[:, 0], c[:, 1], a[:, 0], a[:, 1])
        inside = ((o1 >= 0) & (o2 >= 0) & (o3 >= 0)) | (
            (o1 <= 0) & (o2 <= 0) & (o3 <= 0)
        )
        idx = np.flatnonzero(inside)
        if idx.size == 0:
            return None
        a_, b_, c_ = simp[idx[0]]
        return Triangle(int(a_), int(b_), int(c_))

    def edges(self) -> List[Tuple[int, int]]:
        """Undirected edges between real vertices (public indices, sorted)."""
        simp = self.simplices
        if simp.size == 0:
            return []
        pairs = np.vstack(
            [simp[:, (0, 1)], simp[:, (1, 2)], simp[:, (2, 0)]]
        )
        pairs.sort(axis=1)
        unique = np.unique(pairs, axis=0)
        return [(int(u), int(v)) for u, v in unique]

    def __len__(self) -> int:
        return self.n_points

    def __repr__(self) -> str:
        return (
            f"DelaunayTriangulation(n_points={self.n_points}, "
            f"n_triangles={len(self.simplices)})"
        )


def brio_order(points: np.ndarray) -> np.ndarray:
    """A biased randomised insertion order (Amenta, Choi & Rote 2003).

    A fixed permutation is cut into rounds that double in size, the last
    holding half the points, and each round is sorted along a Z-curve
    (:func:`repro.geometry.spatial_index.morton_argsort`). Inserting in
    this order keeps each walk short and each cavity small; the fixed
    seed makes the order a function of the input alone.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    perm = np.random.default_rng(_BRIO_SEED).permutation(n)
    bounds = [n]
    while bounds[-1] > _BRIO_FIRST:
        bounds.append(bounds[-1] // 2)
    bounds.append(0)
    bounds.reverse()
    rounds = [perm[:0]]
    with np.errstate(invalid="ignore"):  # a non-finite point fails on insert
        for lo, hi in zip(bounds, bounds[1:]):
            if hi > lo:
                idx = perm[lo:hi]
                rounds.append(idx[morton_argsort(pts[idx, 0], pts[idx, 1])])
    return np.concatenate(rounds)


def _dedup_kept(points: np.ndarray, tol: float) -> np.ndarray:
    """Input indices of the points a sequential dedup keeps, ascending.

    A point is dropped when an earlier *kept* point is within ``tol``:
    both coordinate differences ``abs(dx)``, ``abs(dy)`` are ``<= tol``
    and ``dx * dx + dy * dy <= tol * tol``, the test of
    :meth:`DelaunayTriangulation.find_vertex`. Non-finite points are
    always kept and match nothing; ``tol`` must be finite and not
    negative.

    The candidate pairs come from sorted searches, not a per-point loop:
    the points are sorted by ``(x, y)`` and each point looks, for every
    distinct ``x`` within its padded ``tol`` window, at the run of points
    with that ``x`` whose ``y`` is within the window too. The exact test
    then filters the pairs, and the few points with an earlier partner are
    settled one by one in input order, since a partner only counts if it
    was kept itself.
    """
    tol = _dedup_tolerance(tol)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    fin = np.flatnonzero(np.isfinite(pts).all(axis=1))
    if len(fin) < 2:
        return np.arange(n)
    x = pts[fin, 0]
    y = pts[fin, 1]
    with np.errstate(over="ignore"):
        # Padded as _VertexGrid.find pads its cell range: a difference
        # that rounds to <= tol is at most tol * (1 + 2^-52) exactly.
        mx = tol + 4.0 * np.spacing(np.abs(x) + tol)
        my = tol + 4.0 * np.spacing(np.abs(y) + tol)
        key = _xy_keys(x, y)
        order = np.argsort(key, kind="stable")
        skey = key[order]
        ux = np.unique(x)
        u0 = np.searchsorted(ux, x - mx)
        n_u = np.searchsorted(ux, x + mx, side="right") - u0
        q = _ranges(u0, n_u)
        qi = np.repeat(np.arange(len(x)), n_u)
        lo = np.searchsorted(skey, _xy_keys(ux[q], y[qi] - my[qi]))
        hi = np.searchsorted(
            skey, _xy_keys(ux[q], y[qi] + my[qi]), side="right"
        )
        n_c = np.maximum(hi - lo, 0)
        pi = np.repeat(qi, n_c)
        pj = order[_ranges(lo, n_c)]
        earlier = pj < pi
        pi, pj = pi[earlier], pj[earlier]
        dx = np.abs(x[pj] - x[pi])
        dy = np.abs(y[pj] - y[pi])
        match = (dx <= tol) & (dy <= tol) & (dx * dx + dy * dy <= tol * tol)
    pi, pj = fin[pi[match]], fin[pj[match]]
    keep = np.ones(n, dtype=bool)
    if len(pi):
        by_i = np.argsort(pi, kind="stable")
        pi, pj = pi[by_i], pj[by_i]
        starts = np.flatnonzero(np.r_[True, pi[1:] != pi[:-1]])
        for i, s, e in zip(pi[starts].tolist(), starts.tolist(),
                           np.r_[starts[1:], len(pi)].tolist()):
            keep[i] = not keep[pj[s:e]].any()
    return np.flatnonzero(keep)


def _xy_keys(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x + iy``: complex numbers sort by real part, then imaginary part."""
    key = np.empty(len(x), dtype=complex)
    key.real = x
    key.imag = y
    return key


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``."""
    total = int(counts.sum())
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(starts, counts) + offsets


def delaunay_mesh(
    points: np.ndarray, dedup_tol: float = 1e-9
) -> Tuple[np.ndarray, np.ndarray]:
    """The Delaunay triangles over ``points``, built in BRIO order.

    Points within ``dedup_tol`` of an earlier kept point are dropped, in
    input order, as ``DelaunayTriangulation(points, skip_duplicates=True)``
    drops them. The kept points are inserted in :func:`brio_order`, each
    with its index among the kept points as its tie-break priority, so the
    triangles are the ones the in-order build makes, whatever the order
    (see :meth:`DelaunayTriangulation._bad`).

    Returns ``(kept, simplices)``: the input indices of the kept points,
    ascending, and the triangles over ``points[kept]`` in the canonical
    form of :func:`canonical_simplices`.
    """
    tri = DelaunayTriangulation(dedup_tol=dedup_tol)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    kept_idx = _dedup_kept(pts, tri._dedup_tol)
    unique = pts[kept_idx]
    order = brio_order(unique)
    for i, (x, y) in zip(order.tolist(), unique[order].tolist()):
        tri._insert_new(x, y, i)
    return kept_idx, canonical_simplices(order[tri.simplices])
