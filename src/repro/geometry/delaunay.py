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
* Duplicate detection on ``insert`` looks up a hash grid of cell side
  ``dedup_tol`` instead of scanning every vertex.
* :func:`delaunay_mesh`, the measurement build, inserts in
  :func:`brio_order` with each point's input index as its priority, and
  gets the triangles of the in-order build with short walks and small
  cavities.
* :class:`DelaunayMesher` carries that mesh to the next call's moved
  points: Lawson flips plus removal and re-insertion of the vertices
  whose move would invert a triangle (see
  ``DelaunayTriangulation._move_to``) give the triangles a fresh build
  gives.
"""

from __future__ import annotations

import math
from itertools import chain, islice
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.geometry.primitives import Point2, PointLike
from repro.geometry.spatial_index import morton_argsort


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

#: A duplicate query spanning more hash-grid cells than this scans every
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


def _not_ccw(pos: np.ndarray, simp: np.ndarray) -> np.ndarray:
    """Which triangles ``simp`` over ``pos`` are not counter-clockwise.

    The float orientation determinant of every row at once, with the
    stage-A bound of :func:`_orient`; only rows inside the bound go to
    :func:`_orient`.
    """
    a, b, c = pos[simp[:, 0]], pos[simp[:, 1]], pos[simp[:, 2]]
    left = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
    right = (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    det = left - right
    sure = np.abs(det) > _ORIENT_ERR * (np.abs(left) + np.abs(right)) + _TINY
    out = sure & (det < 0)
    for r in np.flatnonzero(~sure).tolist():
        out[r] = _orient(*a[r].tolist(), *b[r].tolist(), *c[r].tolist()) <= 0
    return out


def _surely_outside(
    pos: np.ndarray, simp: np.ndarray, apex: np.ndarray
) -> np.ndarray:
    """Where the float stage of ``_bad(simp[i], pos[apex[i]], ...)`` says no.

    The same operations in the same order as ``DelaunayTriangulation._bad``,
    so each row's determinant and bound are the ones it computes: a row
    marked here is outside its circle whatever the priorities.
    """
    p = pos[apex]
    adx, ady = (pos[simp[:, 0]] - p).T
    bdx, bdy = (pos[simp[:, 1]] - p).T
    cdx, cdy = (pos[simp[:, 2]] - p).T
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
        alift * (np.abs(bdxcdy) + np.abs(cdxbdy))
        + blift * (np.abs(cdxady) + np.abs(adxcdy))
        + clift * (np.abs(adxbdy) + np.abs(bdxady))
    ) + _TINY
    return det < -bound


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
        # Hash grid over the inserted vertices, for duplicates.
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
        the triangles. The point is not added to the duplicate grid:
        callers that insert here dedup on their own (see
        :func:`delaunay_mesh`).
        """
        start = self._walk(px, py, self._next_id - 1)
        index = len(self._verts)
        self._verts.append((px, py))
        self._prio.append(prio)
        self._fill(start, index)
        return index - _N_SUPER

    def _fill(self, start: int, v: int) -> None:
        """Replace the triangles vertex ``v`` conflicts with by a fan on it.

        ``start`` is the triangle holding ``v``'s position.
        """
        # Cavity border, interior on the left, in the order of the
        # (a,b) (b,c) (c,a) scan of the cavity: the edges whose other
        # side is not in the cavity. Each carries the triangle across it
        # and the cavity triangle it came from.
        tris = self._tris
        nbr = self._nbr
        px, py = self._verts[v]
        cavity = self._grow_cavity(start, px, py, self._prio[v])
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
        self._add_fan(boundary, v)
        self._simplices_cache = None
        self._points_cache = None

    def _walk(self, px: float, py: float, t: int) -> int:
        """The triangle containing ``(px, py)``, found by a visibility walk.

        Starts at triangle ``t`` and crosses an edge the point lies
        strictly to the right of. A point on an edge of the super-triangle
        crosses it too. On a Delaunay triangulation with exact orientation
        tests the walk cannot cycle (Edelsbrunner 1990). Raises
        :class:`ValueError` for a point that is not finite or that the
        walk leaves the super-triangle for.
        """
        tris = self._tris
        nbr = self._nbr
        verts = self._verts
        if not (math.isfinite(px) and math.isfinite(py)):
            t = -1
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
        raise ValueError(
            f"point {Point2(px, py)} is outside the triangulation's "
            "working area; construct DelaunayTriangulation with a "
            "larger span"
        )

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
    # Moving the vertices
    # ------------------------------------------------------------------
    def _move_to(self, xy: np.ndarray) -> None:
        """Move every real vertex to ``xy`` and repair to Delaunay.

        ``xy`` holds the new positions in public index order; priorities
        stay. The triangles afterwards are the ones a fresh build of the
        moved points makes:

        1. Vertices whose move would invert a triangle (super-triangle
           ones included) are held at their old positions, until no
           triangle inverts. Every triangle is then counter-clockwise and
           the super-triangle is fixed, so the mesh is a triangulation of
           the moved and held points.
        2. Lawson flips, decided by :meth:`_bad`, make it Delaunay. Under
           the priority perturbation the lifted points are in general
           position, so every flip lowers the lifted surface and the flips
           end at the one Delaunay triangulation.
        3. Each held vertex is removed (:meth:`_remove`) and inserted at
           its new position with its own priority.
        """
        verts = self._verts
        old = np.array(verts, dtype=float)
        pos = old.copy()
        pos[_N_SUPER:] = xy
        moved = (pos != old).any(axis=1)
        if not moved.any():
            return
        self._simplices_cache = None
        self._points_cache = None
        self._new_ids = range(0)
        tris = self._tris
        m = len(tris)
        ids = np.fromiter(tris, dtype=np.intp, count=m)
        simp = np.fromiter(
            chain.from_iterable(tris.values()), dtype=np.intp, count=3 * m
        ).reshape(-1, 3)

        rows = np.flatnonzero(moved[simp].any(axis=1))
        held = np.zeros(len(pos), dtype=bool)
        while True:
            flat = _not_ccw(pos, simp[rows])
            hold = simp[rows[flat]].ravel()
            hold = np.unique(hold[moved[hold] & ~held[hold]])
            if not len(hold):
                break
            held[hold] = True
            pos[hold] = old[hold]
        free = np.flatnonzero(moved & ~held)
        for v, x, y in zip(free.tolist(), *pos[free].T.tolist()):
            verts[v] = (x, y)
        self._flip_from(ids, simp, moved & ~held, pos)

        held_ids = np.flatnonzero(held).tolist()
        if held_ids:
            self._relocate(held_ids, xy[held[_N_SUPER:]])

    def _relocate(self, held: List[int], xy: np.ndarray) -> None:
        """Move each vertex ``held[i]`` to ``xy[i]`` by removal and insertion.

        One vertex at a time, so each hole is one vertex's link. When the
        new position is exactly where a held vertex not yet moved stands,
        that one is removed first.
        """
        tris = self._tris
        verts = self._verts
        # A triangle of each held vertex still in the mesh; after its
        # removal, one near where it was.
        start = dict.fromkeys(held, -1)
        for t, tri in tris.items():
            for v in tri:
                if v in start:
                    start[v] = t
        standing = {verts[v]: v for v in held}
        for v, (x, y) in zip(held, xy.tolist()):
            for u in (v, standing.get((x, y))):
                if u is not None and standing.get(verts[u]) == u:
                    del standing[verts[u]]
                    self._remove(u, start[u], start)
            verts[v] = (x, y)
            hint = start[v] if start[v] in tris else self._next_id - 1
            self._fill(self._walk(x, y, hint), v)
            for t in self._new_ids:
                for u in tris[t]:
                    if u in start:
                        start[u] = t

    def _flip_from(
        self, ids: np.ndarray, simp: np.ndarray, moved: np.ndarray,
        pos: np.ndarray,
    ) -> None:
        """Lawson-flip the mesh ``(ids, simp)`` to Delaunay after a move.

        Only an edge whose two triangles hold a ``moved`` vertex can have
        stopped being locally Delaunay. Those edges are screened with the
        float stage of :meth:`_bad` as one array pass; the ones it cannot
        call surely Delaunay are tested exactly, flipped when bad, and each
        flip queues the four edges around it.
        """
        tris = self._tris
        nbr = self._nbr
        nbrs = np.fromiter(
            chain.from_iterable(map(nbr.__getitem__, tris)),
            dtype=np.intp, count=3 * len(ids),
        ).reshape(-1, 3)
        row_of = np.full(self._next_id, -1, dtype=np.intp)
        row_of[ids] = np.arange(len(ids))
        near = moved[simp].any(axis=1)
        rows, slots = np.nonzero(near[:, None] & (nbrs >= 0))
        across = nbrs[rows, slots]
        other = row_of[across]
        # Each edge once: from its lower id when both sides are near.
        once = ~near[other] | (ids[rows] < across)
        rows, slots, other = rows[once], slots[once], other[once]
        back = np.argmax(nbrs[other] == ids[rows][:, None], axis=1)
        apex = simp[other, (back + 2) % 3]
        unsure = ~_surely_outside(pos, simp[rows], apex)
        queue = list(zip(ids[rows[unsure]].tolist(), slots[unsure].tolist()))

        verts = self._verts
        prio = self._prio
        bad = self._bad
        while queue:
            t, j = queue.pop()
            tri = tris.get(t)
            if tri is None:
                continue
            n = nbr[t][j]
            if n < 0:
                continue
            k = nbr[n].index(t)
            d = tris[n][(k + 2) % 3]
            if bad(tri, *verts[d], prio[d]):
                queue.extend(self._flip(t, j, n, k))

    def _flip(self, t: int, j: int, n: int, k: int) -> List[Tuple[int, int]]:
        """Flip the edge in slot ``j`` of triangle ``t`` (slot ``k`` of ``n``).

        ``t`` is ``(p, q, r)`` from slot ``j`` and ``n`` is ``(q, p, s)``
        from slot ``k``; they become ``(p, s, r)`` and ``(s, q, r)``.
        Returns the four edges around the new pair as ``(id, slot)``.
        """
        tris = self._tris
        nbr = self._nbr
        tri, slots = tris.pop(t), nbr.pop(t)
        p, q, r = tri[j], tri[(j + 1) % 3], tri[(j + 2) % 3]
        qr, rp = slots[(j + 1) % 3], slots[(j + 2) % 3]
        tri, slots = tris.pop(n), nbr.pop(n)
        s = tri[(k + 2) % 3]
        ps, sq = slots[(k + 1) % 3], slots[(k + 2) % 3]
        u = self._next_id
        w = u + 1
        self._next_id += 2
        tris[u] = (p, s, r)
        nbr[u] = [ps, w, rp]
        tris[w] = (s, q, r)
        nbr[w] = [sq, qr, u]
        for x, gone, new in ((ps, n, u), (rp, t, u), (sq, n, w), (qr, t, w)):
            if x >= 0:
                back = nbr[x]
                back[back.index(gone)] = new
        return [(u, 0), (u, 2), (w, 0), (w, 1)]

    def _remove(self, v: int, t: int, start: Dict[int, int]) -> None:
        """Remove vertex ``v`` of triangle ``t`` and re-triangulate its hole.

        The hole is the polygon of ``v``'s link. Ears are cut off it while
        it has more than three corners: an ear is a convex corner whose
        circle, by :meth:`_bad`, holds no other link vertex, and such an
        ear is a triangle of the Delaunay triangulation without ``v``
        (Devillers 2002). One always exists, cocircular links included,
        since the perturbation leaves one Delaunay triangulation of the
        link. ``start`` maps vertices still to be removed to a triangle
        of theirs; the new triangles keep it current, and ``start[v]``
        becomes one of them.
        """
        tris = self._tris
        nbr = self._nbr
        verts = self._verts
        prio = self._prio
        # The link, counter-clockwise, and per link edge the triangle
        # across it with the slot there that points into the hole.
        poly: List[int] = []
        outer: List[Tuple[int, int]] = []
        first = t
        while True:
            tri, slots = tris.pop(t), nbr.pop(t)
            i = tri.index(v)
            poly.append(tri[(i + 1) % 3])
            n = slots[(i + 1) % 3]
            outer.append((n, nbr[n].index(t) if n >= 0 else -1))
            t = slots[(i + 2) % 3]
            if t == first:
                break

        bad = self._bad
        while True:
            size = len(poly)
            for i in range(size):
                ear = (poly[i - 1], poly[i], poly[(i + 1) % size])
                if _orient(*verts[ear[0]], *verts[ear[1]], *verts[ear[2]]) > 0 \
                        and not any(
                            bad(ear, *verts[q], prio[q])
                            for q in poly if q not in ear
                        ):
                    break
            else:
                raise AssertionError(f"no Delaunay ear around vertex {v}")
            new = self._next_id
            self._next_id += 1
            tris[new] = ear
            # The third edge is a new diagonal until the last triangle.
            edges = [outer[i - 1], outer[i],
                     outer[(i + 1) % size] if size == 3 else (-1, -1)]
            nbr[new] = [x for x, _ in edges]
            for x, slot in edges:
                if x >= 0:
                    nbr[x][slot] = new
            for x in ear:
                if x in start:
                    start[x] = new
            if size == 3:
                start[v] = new
                return
            outer[i - 1] = (new, 2)
            del outer[i], poly[i]

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
    and ``dx * dx + dy * dy <= tol * tol``, the duplicate test of
    :meth:`DelaunayTriangulation.insert`. Non-finite points are
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


class DelaunayMesher:
    """The Delaunay triangles over a point set, carried from call to call.

    Each call returns what :func:`delaunay_mesh` returns for its points.
    The first call builds the triangulation in :func:`brio_order`; later
    calls repair the last call's triangulation to the new positions (see
    :meth:`DelaunayTriangulation._move_to`) when they can. That needs the
    points to be the same ones in the same order, named by ``ids``, and
    the dedup to keep the same of them. Any other call builds afresh:
    without ``ids``, or when the ids or the kept points differ. The
    priorities are the kept indices either way, so the triangles are the
    same.
    """

    def __init__(self, dedup_tol: float = 1e-9) -> None:
        self._dedup_tol = _dedup_tolerance(dedup_tol)
        self._tri: Optional[DelaunayTriangulation] = None
        #: Kept index of each vertex, by public index (the BRIO order).
        self._order = np.zeros(0, dtype=int)
        self._ids: Optional[np.ndarray] = None
        self._kept = np.zeros(0, dtype=int)

    def __call__(
        self, points: np.ndarray, ids: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(kept, simplices)`` over ``points``, as :func:`delaunay_mesh`.

        ``ids`` names each point; the mesh is carried when they equal the
        last call's.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        kept = _dedup_kept(pts, self._dedup_tol)
        unique = pts[kept]
        tri, self._tri = self._tri, None
        carry = (
            tri is not None
            and ids is not None
            and self._ids is not None
            and np.array_equal(ids, self._ids)
            and np.array_equal(kept, self._kept)
            and bool(np.isfinite(unique).all())
        )
        if carry:
            tri._move_to(unique[self._order])
        else:
            del tri  # free the old mesh before the build
            tri = self._build(unique)
        # Only a mesh with ids can be carried, so only that one is kept.
        self._tri = None if ids is None else tri
        self._ids = None if ids is None else np.array(ids, copy=True)
        self._kept = kept
        return kept, canonical_simplices(self._order[tri.simplices])

    def _build(self, unique: np.ndarray) -> DelaunayTriangulation:
        """A fresh triangulation of ``unique``, inserted in BRIO order."""
        tri = DelaunayTriangulation(dedup_tol=self._dedup_tol)
        order = brio_order(unique)
        for i, (x, y) in zip(order.tolist(), unique[order].tolist()):
            tri._insert_new(x, y, i)
        self._order = order
        return tri


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
    form of :func:`canonical_simplices`. A one-shot
    :class:`DelaunayMesher`.
    """
    return DelaunayMesher(dedup_tol)(points)
