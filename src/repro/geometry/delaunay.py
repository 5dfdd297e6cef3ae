"""Incremental Bowyer--Watson Delaunay triangulation.

The paper reconstructs the environment surface from the ``k`` sampled
positions with a Delaunay triangulation (``z* = DT(x, y)``, Section 3.1) and
FRA refines that triangulation one insertion at a time (Table 1). This
module provides exactly that: a triangulation that supports *incremental*
insertion, built from scratch on the predicates in
:mod:`repro.geometry.predicates`.

Implementation notes
--------------------
* A large super-triangle encloses all real points; triangles incident to its
  three synthetic vertices are hidden from the public API.
* Triangles live in a dict keyed by a creation id. Dicts iterate in
  insertion order, so ``simplices`` lists the live triangles in creation
  order. Beside each triangle ``(a, b, c)`` three neighbour slots hold
  the ids of the triangles across ``(a, b)``, ``(b, c)`` and ``(c, a)``
  (``-1`` for none), as in Shewchuk's *Triangle*.
* An insert is local. It walks from the last-created triangle to the one
  containing the point, then grows the cavity through bad edge neighbours
  (a neighbour within the tie window that is not bad is passed through
  without joining). The cavity triangles are
  taken in creation order and the new fan follows the order of their
  ``(a,b) (b,c) (c,a)`` border edges, so the rows and their order are
  what a scan over every triangle gives. Each new triangle is wired to
  the triangle across its border edge and to its two fan neighbours.
* The in-circle test reads each triangle's cached circumcircle
  ``(centre, r^2)`` and the threshold ``EPSILON / |2A|``, and tests
  ``r^2 - d^2 > threshold``. Queries inside a conservative rounding band
  around the threshold re-run the exact determinant of the scalar
  :func:`repro.geometry.predicates.incircle`, so the decision is always the
  scalar predicate's (see ``_incircle`` and ``_CC_BAND``).
* When the walk fails, or the triangle it reaches is not strictly bad, the
  insert falls back to a scan over every triangle (see ``_scan``). That
  scan also supplies the closed-circumdisk cavity for points that lie
  exactly on circumcircles. After a degenerate step (see ``_local``) the
  bad triangles need not be connected, so every later insert scans.
* Duplicate detection (``find_vertex``) looks up a hash grid of cell side
  ``dedup_tol`` instead of scanning every vertex.
* Cocircular points (common on integer grids) make the Delaunay
  triangulation non-unique. Ties in the in-circle predicate are resolved
  by a symbolic perturbation keyed on each vertex's priority (see
  ``_incircle``). ``insert`` gives each point its insertion index, so
  every tie resolves as "outside". With fixed priorities the triangles
  depend only on the point set, not on the insertion order, as long as
  every near-tie the predicate sees is an exact tie (see ``_incircle``
  for where that fails).
* :func:`delaunay_mesh`, the measurement build, uses that: it inserts in
  :func:`brio_order` with each point's input index as its priority, and
  gets the triangles of the in-order build with short walks and small
  cavities.
"""

from __future__ import annotations

import math
import sys
from itertools import chain, islice
from operator import itemgetter
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

from repro.geometry.predicates import EPSILON, incircle
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

#: Relative half-width of the uncertainty band of the cached in-circle
#: test (see _incircle), in units of r^2 + d^2: ~1024 ulp, times a
#: per-triangle factor 1 + |u|_1 / r + 16 / sin^2(largest angle). The
#: centre u is solved relative to a vertex, so its error scales with r
#: and the conditioning of the largest angle; storing it absolutely adds
#: one ulp of |u|, which is the |u|_1 / r term (a triangle 9 m across at
#: x = 400 needs it). The determinant's own rounding grows with
#: 1 / sin^2 of the largest angle. Measured on random, lattice, sliver and
#: super-triangle needles at offsets up to 2e4, the needed band stayed
#: below 700 ulp of that scale; real workloads still almost never reach
#: the exact determinant.
_CC_BAND = 1024 * sys.float_info.epsilon

#: Triangles whose largest angle has 1 / sin^2 above this (within ~1.8
#: degrees of flat) skip the cached test: the determinant decides.
_KAPPA2_MAX = 1e3

#: A find_vertex query spanning more hash-grid cells than this scans every
#: vertex instead (only a tol much larger than dedup_tol gets there).
_MAX_QUERY_CELLS = 64

#: Limits past which a new triangle ends the local search (see _local).
#: A sliver has a threshold EPSILON / |2A| above _SLIVER * r^2: its tie
#: window is so wide that the mesh around it can be far from Delaunay.
#: A cached circle that misses the triangle's own vertices by more than
#: _MISS * r * (shortest edge), in r^2 - d^2 units, can contradict the
#: determinant well outside the retest band. A cluster 1e-4 across under
#: the 1e6 super-triangle makes both; on the benchmark workloads both
#: ratios stay below 1e-8. A third limit needs no constant: a triangle
#: whose tie window, as a distance from its circle (threshold / 2r), is
#: wider than its shortest edge has vertices closer than the predicate
#: resolves (vertices 1e-8 apart make one).
_SLIVER = 1e-6
_MISS = 1e-3

#: One stored triangle: vertices a, b, c (counter-clockwise unless flat),
#: orientation sign, circumcentre x/y, r^2, the threshold EPSILON / |2A|
#: and the band factor of _incircle (_CC_BAND times the triangle's factor).
_Tri = Tuple[int, int, int, int, float, float, float, float, float]


#: Points in the first BRIO round; each later round doubles (see brio_order).
_BRIO_FIRST = 64

#: Seed of the fixed permutation that draws the BRIO rounds.
_BRIO_SEED = 0


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

        # Deliberately asymmetric super-triangle to dodge degeneracies with
        # axis-aligned / diagonal input.
        self._verts: List[Tuple[float, float]] = [
            (-3.17 * span, -2.89 * span),
            (3.61 * span, -3.07 * span),
            (0.13 * span, 3.79 * span),
        ]
        # Tie-break priority of each vertex (see _incircle): the super
        # vertices rank below every real one.
        self._prio: List[float] = [-3.0, -2.0, -1.0]
        # Hash grid over the real vertices for find_vertex.
        self._grid = _VertexGrid(
            self._dedup_tol if self._dedup_tol > 0 else 1.0
        )

        # Live triangles by creation id (dict order is creation order) and
        # their neighbour slots: the ids across (a, b), (b, c) and (c, a),
        # -1 for none. The slots are kept only while _local.
        self._tris: Dict[int, _Tri] = {}
        self._nbr: Dict[int, List[int]] = {}
        self._next_id = 0
        # The walk and the grown cavity are trusted while every step so far
        # was a clean Bowyer-Watson step. False for good once a step made
        # a flat or clockwise triangle, a sliver, a triangle whose cached
        # circle misses its vertices or whose tie window is wider than its
        # shortest edge (see _SLIVER), had a cavity that is not a disk, or
        # a fan that is not one closed ring (two fan triangles starting or
        # ending at one border vertex); from then on every insert scans
        # all triangles (see _scan) and the slots are dropped.
        self._local = True
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
            rows = chain.from_iterable(map(itemgetter(0, 1, 2), tris.values()))
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
        rows = [tris[t][:3] for t in self._new_ids]
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

        The point's tie-break priority (see :meth:`_incircle`) is its
        public index: it ranks above every vertex already there, so each
        tie resolves with the new point outside.

        Raises :class:`DuplicatePointError` on (near-)duplicate input unless
        the triangulation was built with ``skip_duplicates=True``.
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
        the triangles (within the limits set out in :meth:`_incircle`).
        The point is not added to the :meth:`find_vertex` grid: callers
        that insert here dedup on their own (see :func:`delaunay_mesh`).
        """
        local = self._local
        start = self._walk(px, py) if local else None
        if (
            start is not None
            and self._incircle(self._tris[start], px, py, prio) > 0
        ):
            cavity = self._grow_cavity(start, px, py, prio)
        else:
            cavity = self._scan(px, py, prio)
        if not cavity:
            # Outside every closed circumdisk: only possible when the
            # point is outside the super-triangle.
            raise ValueError(
                f"point {Point2(px, py)} is outside the triangulation's "
                "working area; construct DelaunayTriangulation with a "
                "larger span"
            )

        # Cavity border, interior on the left, in the order of the
        # (a,b) (b,c) (c,a) scan of the cavity: the edges whose other
        # side is not in the cavity. Each carries the triangle across it
        # and the cavity triangle it came from (-1, -1 without slots).
        tris = self._tris
        boundary: List[Tuple[int, int, int, int]] = []
        if local:
            nbr = self._nbr
            inner = set(cavity)
            for t in cavity:
                a, b, c = tris.pop(t)[:3]
                n0, n1, n2 = nbr.pop(t)
                if n0 not in inner:
                    boundary.append((a, b, n0, t))
                if n1 not in inner:
                    boundary.append((b, c, n1, t))
                if n2 not in inner:
                    boundary.append((c, a, n2, t))
        else:
            # Without slots an edge is inner when the scan meets it twice.
            border: Dict[Tuple[int, int], Optional[Tuple[int, int]]] = {}
            for t in cavity:
                a, b, c = tris.pop(t)[:3]
                for u, v in ((a, b), (b, c), (c, a)):
                    key = (u, v) if u < v else (v, u)
                    border[key] = None if key in border else (u, v)
            boundary = [(*e, -1, -1) for e in border.values() if e is not None]
        if len(boundary) != len(cavity) + 2:
            # Not a disk triangulated without inner vertices: the cavity
            # has a hole, is split, or swallows a vertex.
            self._local = False

        index = len(self._verts)
        self._verts.append((px, py))
        self._prio.append(prio)
        self._add_fan(boundary, index)
        self._simplices_cache = None
        self._points_cache = None
        return index - _N_SUPER

    def _walk(self, px: float, py: float) -> Optional[int]:
        """The triangle containing ``(px, py)``, found by a visibility walk.

        Starts at the last-created triangle and crosses any edge the point
        lies strictly to the right of. Returns ``None`` when the walk
        leaves the super-triangle or does not settle within one step per
        triangle.
        """
        tris = self._tris
        nbr = self._nbr
        verts = self._verts
        t = self._next_id - 1
        for _ in range(len(tris) + 1):
            a, b, c = tris[t][:3]
            ax, ay = verts[a]
            bx, by = verts[b]
            cx, cy = verts[c]
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) < 0.0:
                t = nbr[t][0]
            elif (cx - bx) * (py - by) - (cy - by) * (px - bx) < 0.0:
                t = nbr[t][1]
            elif (ax - cx) * (py - cy) - (ay - cy) * (px - cx) < 0.0:
                t = nbr[t][2]
            else:
                return t
            if t < 0:
                return None
        return None

    def _incircle(self, tri: _Tri, px: float, py: float, prio: float) -> int:
        """In-circle test of ``(px, py)``, priority ``prio``, against ``tri``.

        ``1`` when the triangle is bad: its circumcircle strictly contains
        the point, or the point is on it and the tie rule below says
        inside. ``0`` when it is not bad but ``r^2 - d^2`` is within the
        window ``threshold + band`` of zero (or the triangle is flat), and
        ``-1`` when the point is clearly outside.

        Tie rule, a symbolic perturbation keyed on the priorities: each
        vertex's lifted height ``x^2 + y^2`` is raised by an infinitesimal
        that dominates every lower priority's. When the scalar predicate
        says tie (``|det| <= EPSILON``) and the query ranks highest of the
        four points, raising it puts it outside. Otherwise the triangle's
        highest vertex ``v`` decides: raising ``v`` lifts the circle's
        plane on ``v``'s side of the opposite edge, so the triangle is bad
        iff the query lies strictly on that side. A consistent perturbation
        leaves one Delaunay triangulation, so the triangles do not depend
        on the order the points were inserted in. It is consistent only
        while every quadruple within ``EPSILON`` is truly cocircular and
        no insert reaches the closed-circumdisk step of :meth:`_scan`,
        which ignores priorities. ``EPSILON`` is absolute, so on finer
        lattices than ~0.005, on points jittered by ~1e-10 or with a
        vertex within ~1e-8 of another, near-ties that are not ties can
        make the triangles depend on the order.

        Tests cached circumcircle parameters: the scalar in-circle
        determinant satisfies ``orient_det * incircle_det = |2A| *
        (r^2 - d^2)`` in exact arithmetic, so the predicate's
        ``incircle_det > EPSILON`` rule (with its orientation adjustment)
        becomes ``r^2 - d^2 > EPSILON / |2A|``. The two formulations round
        differently, so queries landing inside a conservative relative
        error band around the threshold (the triangle's band factor, see
        ``_CC_BAND``, times ``r^2 + d^2``, the magnitudes the cached
        subtraction cancels between) are re-tested with the exact
        determinant of the scalar
        predicate — the decision is *always* the scalar predicate's, the
        cache only filters the clear cases. The band matters: a query on
        a chord of a super-triangle-sized circumcircle is inside by a
        margin of ~1 against r^2 ~ 1e13, far below any fixed relative
        fudge. Flat (orient == 0) triangles are never bad.
        """
        a, b, c, orient, ux, uy, r2, thr, bw = tri
        if orient == 0:
            return 0
        dx = ux - px
        dy = uy - py
        d2 = dx * dx + dy * dy
        lhs = r2 - d2
        band = bw * (r2 + d2)
        if lhs > thr + band:
            return 1
        if not lhs > -thr - band:
            return -1
        det = self._incircle_det(a, b, c, px, py)
        if orient < 0:
            det = -det
        if det > EPSILON:
            return 1
        if det < -EPSILON:
            return 0
        prios = self._prio
        pa, pb, pc = prios[a], prios[b], prios[c]
        if prio > pa and prio > pb and prio > pc:
            return 0
        if pa > pb and pa > pc:
            u, v = b, c
        elif pb > pc:
            u, v = c, a
        else:
            u, v = a, b
        # The highest vertex is left of u -> v when orient > 0.
        verts = self._verts
        ax, ay = verts[u]
        bx, by = verts[v]
        side = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        return 1 if side * orient > 0 else 0

    def _incircle_det(self, a: int, b: int, c: int, px: float, py: float) -> float:
        """The in-circle determinant of the scalar predicate, same term order."""
        verts = self._verts
        ax, ay = verts[a]
        bx, by = verts[b]
        cx, cy = verts[c]
        adx, ady = ax - px, ay - py
        bdx, bdy = bx - px, by - py
        cdx, cdy = cx - px, cy - py
        return (
            (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
            - (bdx * bdx + bdy * bdy) * (adx * cdy - cdx * ady)
            + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
        )

    def _grow_cavity(
        self, start: int, px: float, py: float, prio: float
    ) -> List[int]:
        """Bad triangles reachable from ``start``, sorted by creation id.

        Grows through edge neighbours. A bad neighbour joins the cavity; a
        flat one, or one within the tie window of :meth:`_incircle` that
        is not bad, is passed through without joining: a scan over every
        triangle would also find bad triangles behind such a neighbour.
        """
        tris = self._tris
        nbr = self._nbr
        incircle = self._incircle
        cavity = [start]
        seen = {start, -1}  # -1: no triangle across the edge
        todo = [start]
        while todo:
            for n in nbr[todo.pop()]:
                if n in seen:
                    continue
                seen.add(n)
                test = incircle(tris[n], px, py, prio)
                if test >= 0:
                    todo.append(n)
                    if test:
                        cavity.append(n)
        cavity.sort()
        return cavity

    def _scan(self, px: float, py: float, prio: float) -> List[int]:
        """Every bad triangle, in creation order: the fallback cavity.

        Bad is :meth:`_incircle`'s verdict, tie rule included. When no
        triangle is bad the point ties with every circle around it and
        ranks above their vertices: it is within rounding of a vertex
        (closer than the determinant resolves, yet beyond the dedup
        tolerance). The closed-circumdisk cavity is still a valid
        Bowyer–Watson step, so the scan retries non-strictly with the
        exact determinant; flat triangles stay out. An empty result means
        the point is outside the super-triangle.
        """
        tris = self._tris
        incircle = self._incircle
        bad = [t for t, tri in tris.items() if incircle(tri, px, py, prio) > 0]
        if bad:
            return bad
        closed = []
        for t, (a, b, c, orient, *_) in tris.items():
            if orient == 0:
                continue
            det = self._incircle_det(a, b, c, px, py)
            if (det >= -EPSILON) if orient > 0 else (-det >= -EPSILON):
                closed.append(t)
        return closed

    def _add_fan(self, boundary: List[Tuple[int, int, int, int]], c: int) -> None:
        """Create triangle ``(u, v, c)`` for each border edge, in order.

        Each border edge ``(u, v, n, t)`` names the triangle ``n`` across
        it and the removed triangle ``t`` whose slot it was. Each new
        triangle gets the next creation id and caches its orientation sign
        and circumcircle for :meth:`_incircle`. The orientation is the
        scalar predicate's formula and EPSILON, inlined. While ``_local``,
        the new triangle takes ``n`` as its neighbour across ``(u, v)``,
        ``n`` takes it in place of ``t``, and the fan triangles are linked
        around ``c``: the one across ``(v, c)`` is the one whose border
        edge starts at ``v``.
        """
        verts = self._verts
        tris = self._tris
        nbr = self._nbr
        local = self._local
        # Fan triangle by the border vertex its edge starts / ends at.
        starts: Dict[int, int] = {}
        ends: Dict[int, int] = {}
        links = 0
        limit = _MISS * _MISS
        cx, cy = verts[c]
        t = self._next_id
        for a, b, n, old in boundary:
            ax, ay = verts[a]
            bx, by = verts[b]
            det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if det < -EPSILON:
                # Only a cavity that is not star-shaped around c makes a
                # clockwise triangle.
                local = False
                a, b = b, a
                ax, ay, bx, by = bx, by, ax, ay
                # Orientation of the *stored* (swapped) triple, recomputed:
                # this is exactly what the scalar in-circle predicate sees.
                det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if det > EPSILON or det < -EPSILON:
                # Circumcircle: centre, radius^2, the strictness threshold
                # EPSILON / |2A| (the in-circle determinant divided by the
                # doubled signed area equals r^2 - d^2 in exact
                # arithmetic) and the band factor of _incircle. The
                # centre is solved relative to the vertex at the largest
                # angle, so its rounding scales with the edges, not with
                # the coordinates (see _CC_BAND).
                ex, ey = bx - ax, by - ay
                fx, fy = cx - bx, cy - by
                gx, gy = ax - cx, ay - cy
                e2 = ex * ex + ey * ey
                f2 = fx * fx + fy * fy
                g2 = gx * gx + gy * gy
                if f2 >= e2 and f2 >= g2:
                    ox, oy, px, py, qx, qy = ax, ay, ex, ey, -gx, -gy
                    k2 = e2 * g2
                elif g2 >= e2:
                    ox, oy, px, py, qx, qy = bx, by, fx, fy, -ex, -ey
                    k2 = e2 * f2
                else:
                    ox, oy, px, py, qx, qy = cx, cy, gx, gy, -fx, -fy
                    k2 = f2 * g2
                p2 = px * px + py * py
                q2 = qx * qx + qy * qy
                d = 2.0 * (px * qy - py * qx)
                rx = (qy * p2 - py * q2) / d
                ry = (px * q2 - qx * p2) / d
                ux = ox + rx
                uy = oy + ry
                r2 = rx * rx + ry * ry
                thr = EPSILON / abs(det)
                # 1 / sin^2 of the largest angle: past _KAPPA2_MAX the
                # determinant decides every query (band factor inf).
                k2 /= det * det
                if k2 > _KAPPA2_MAX:
                    bw = math.inf
                else:
                    bw = _CC_BAND * (
                        1.0 + (abs(ux) + abs(uy)) / math.sqrt(r2) + 16.0 * k2
                    )
                tri = (a, b, c, 1 if det > 0 else -1, ux, uy, r2, thr, bw)
                # How far the cached circle misses b and c, against
                # _MISS * r * (each edge length).
                sx, sy = bx - ux, by - uy
                tx, ty = cx - ux, cy - uy
                m1 = sx * sx + sy * sy - r2
                m2 = tx * tx + ty * ty - r2
                miss2 = max(m1 * m1, m2 * m2)
                k = limit * r2
                if (
                    thr > _SLIVER * r2
                    or miss2 > k * e2
                    or miss2 > k * f2
                    or miss2 > k * g2
                    or thr * thr > 4.0 * r2 * min(e2, f2, g2)
                ):
                    local = False
            else:
                # Degenerate triangle: no finite circumcircle, never bad.
                tri = (a, b, c, 0, 0.0, 0.0, -math.inf, 0.0, 0.0)
                local = False
            tris[t] = tri
            if local:
                if a in starts or b in ends:
                    local = False
                else:
                    slots = [n, -1, -1]
                    if n >= 0:
                        slots_n = nbr[n]
                        slots_n[slots_n.index(old)] = t
                    s = starts.get(b)
                    if s is not None:
                        slots[1] = s
                        nbr[s][2] = t
                        links += 1
                    e = ends.get(a)
                    if e is not None:
                        slots[2] = e
                        nbr[e][1] = t
                        links += 1
                    starts[a] = t
                    ends[b] = t
                    nbr[t] = slots
            t += 1
        if links != len(boundary) and c >= _N_SUPER:
            # The fan is not one closed ring (the super-triangle alone has
            # no neighbours to link).
            local = False
        if not local:
            nbr.clear()
        self._new_ids = range(self._next_id, t)
        self._next_id = t
        self._local = local

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

    def is_delaunay(self, eps: float = 1e-7) -> bool:
        """Verify the empty-circumcircle property over real triangles.

        O(m·n) and deliberately evaluated with the *scalar*
        :func:`~repro.geometry.predicates.incircle` one triangle at a time,
        so it shares no code with the cached insertion test. Intended for
        tests and assertions, not hot paths. Cocircular configurations
        count as valid.
        """
        pts = self.points
        for tri in self.triangles:
            pa, pb, pc = pts[tri.a], pts[tri.b], pts[tri.c]
            for i in range(self.n_points):
                if tri.has_vertex(i):
                    continue
                if incircle(pa, pb, pc, pts[i], eps=eps) > 0:
                    return False
        return True

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
    always kept and match nothing; ``tol`` must be finite.

    The candidate pairs come from sorted searches, not a per-point loop:
    the points are sorted by ``(x, y)`` and each point looks, for every
    distinct ``x`` within its padded ``tol`` window, at the run of points
    with that ``x`` whose ``y`` is within the window too. The exact test
    then filters the pairs, and the few points with an earlier partner are
    settled one by one in input order, since a partner only counts if it
    was kept itself.
    """
    if not math.isfinite(tol):
        raise ValueError(f"dedup tolerance must be finite, got {tol}")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    fin = np.flatnonzero(np.isfinite(pts).all(axis=1))
    if tol < 0 or len(fin) < 2:
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
    (within the limits of the tie rule, see
    :meth:`DelaunayTriangulation._incircle`).

    Returns ``(kept, simplices)``: the input indices of the kept points,
    ascending, and the triangles over ``points[kept]`` in the canonical
    form of :func:`canonical_simplices`.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    kept_idx = _dedup_kept(pts, float(dedup_tol))
    unique = pts[kept_idx]
    order = brio_order(unique)
    tri = DelaunayTriangulation(dedup_tol=dedup_tol)
    for i, (x, y) in zip(order.tolist(), unique[order].tolist()):
        tri._insert_new(x, y, i)
    return kept_idx, canonical_simplices(order[tri.simplices])
