"""Planar geometric predicates.

Orientation (which side of a line), in-circle (the empty-circumcircle
test), point-in-triangle and their relatives, written against plain floats
with an absolute tolerance ``eps``: a determinant within ``eps`` of zero
counts as zero. They serve the convex hull, point location and the
barycentric weights. The Delaunay kernel does not use them: it decides
with exact predicates of its own (:mod:`repro.geometry.delaunay`), since
a tolerance cannot tell a near-tie from a tie.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.geometry.primitives import Point2, PointLike

#: Default tolerance for sign decisions. Coordinates in this library live in
#: regions of side ~1e2, so 1e-9 is ~1e-11 relative — far below any feature
#: the algorithms care about, far above accumulated rounding noise.
EPSILON = 1e-9


def orientation(a: PointLike, b: PointLike, c: PointLike, eps: float = EPSILON) -> int:
    """Orientation of the triple ``(a, b, c)``.

    Returns ``+1`` for counter-clockwise, ``-1`` for clockwise and ``0`` for
    (numerically) collinear.
    """
    pa, pb, pc = Point2.of(a), Point2.of(b), Point2.of(c)
    det = (pb.x - pa.x) * (pc.y - pa.y) - (pb.y - pa.y) * (pc.x - pa.x)
    if det > eps:
        return 1
    if det < -eps:
        return -1
    return 0


def signed_area(a: PointLike, b: PointLike, c: PointLike) -> float:
    """Signed area of triangle ``abc`` (positive when counter-clockwise)."""
    pa, pb, pc = Point2.of(a), Point2.of(b), Point2.of(c)
    return 0.5 * ((pb.x - pa.x) * (pc.y - pa.y) - (pb.y - pa.y) * (pc.x - pa.x))


def triangle_area(a: PointLike, b: PointLike, c: PointLike) -> float:
    """Unsigned area of triangle ``abc``."""
    return abs(signed_area(a, b, c))


def collinear(a: PointLike, b: PointLike, c: PointLike, eps: float = EPSILON) -> bool:
    """Whether the three points are (numerically) on one line."""
    return orientation(a, b, c, eps=eps) == 0


def incircle(
    a: PointLike,
    b: PointLike,
    c: PointLike,
    d: PointLike,
    eps: float = EPSILON,
) -> int:
    """Empty-circumcircle predicate.

    With ``(a, b, c)`` counter-clockwise, returns ``+1`` if ``d`` lies
    strictly inside their circumcircle, ``-1`` if strictly outside and ``0``
    if (numerically) on it. If ``(a, b, c)`` is clockwise the sign is
    flipped so callers need not normalise orientation first.
    """
    pa, pb, pc, pd = (Point2.of(p) for p in (a, b, c, d))
    adx, ady = pa.x - pd.x, pa.y - pd.y
    bdx, bdy = pb.x - pd.x, pb.y - pd.y
    cdx, cdy = pc.x - pd.x, pc.y - pd.y
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        - (bdx * bdx + bdy * bdy) * (adx * cdy - cdx * ady)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    orient = orientation(pa, pb, pc, eps=eps)
    if orient < 0:
        det = -det
    elif orient == 0:
        # Degenerate triangle has no circumcircle; treat as "outside" so the
        # Bowyer-Watson cavity never takes in a flat triangle.
        return -1
    if det > eps:
        return 1
    if det < -eps:
        return -1
    return 0


def point_in_triangle(
    p: PointLike,
    a: PointLike,
    b: PointLike,
    c: PointLike,
    eps: float = EPSILON,
) -> bool:
    """Whether ``p`` lies inside or on the boundary of triangle ``abc``."""
    o1 = orientation(a, b, p, eps=eps)
    o2 = orientation(b, c, p, eps=eps)
    o3 = orientation(c, a, p, eps=eps)
    non_negative = o1 >= 0 and o2 >= 0 and o3 >= 0
    non_positive = o1 <= 0 and o2 <= 0 and o3 <= 0
    return non_negative or non_positive


def circumcenter(
    a: PointLike, b: PointLike, c: PointLike
) -> Tuple[Point2, float]:
    """Circumcenter and circumradius of triangle ``abc``.

    Raises :class:`ValueError` for (numerically) collinear input.
    """
    pa, pb, pc = Point2.of(a), Point2.of(b), Point2.of(c)
    d = 2.0 * (pa.x * (pb.y - pc.y) + pb.x * (pc.y - pa.y) + pc.x * (pa.y - pb.y))
    if abs(d) < EPSILON:
        raise ValueError(f"collinear points have no circumcircle: {pa}, {pb}, {pc}")
    sa = pa.x * pa.x + pa.y * pa.y
    sb = pb.x * pb.x + pb.y * pb.y
    sc = pc.x * pc.x + pc.y * pc.y
    ux = (sa * (pb.y - pc.y) + sb * (pc.y - pa.y) + sc * (pa.y - pb.y)) / d
    uy = (sa * (pc.x - pb.x) + sb * (pa.x - pc.x) + sc * (pb.x - pa.x)) / d
    center = Point2(ux, uy)
    return center, center.distance_to(pa)


def segments_intersect(
    p1: PointLike, p2: PointLike, q1: PointLike, q2: PointLike, eps: float = EPSILON
) -> bool:
    """Whether closed segments ``p1p2`` and ``q1q2`` intersect."""
    d1 = orientation(q1, q2, p1, eps=eps)
    d2 = orientation(q1, q2, p2, eps=eps)
    d3 = orientation(p1, p2, q1, eps=eps)
    d4 = orientation(p1, p2, q2, eps=eps)
    if d1 != d2 and d3 != d4:
        return True

    def on_segment(a: PointLike, b: PointLike, p: PointLike) -> bool:
        pa, pb, pp = Point2.of(a), Point2.of(b), Point2.of(p)
        return (
            min(pa.x, pb.x) - eps <= pp.x <= max(pa.x, pb.x) + eps
            and min(pa.y, pb.y) - eps <= pp.y <= max(pa.y, pb.y) + eps
        )

    if d1 == 0 and on_segment(q1, q2, p1):
        return True
    if d2 == 0 and on_segment(q1, q2, p2):
        return True
    if d3 == 0 and on_segment(p1, p2, q1):
        return True
    if d4 == 0 and on_segment(p1, p2, q2):
        return True
    return False


def barycentric_weights(
    px: np.ndarray,
    py: np.ndarray,
    a: PointLike,
    b: PointLike,
    c: PointLike,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised barycentric coordinates of query points w.r.t. ``abc``.

    ``px``/``py`` are broadcastable arrays of query coordinates. Returns the
    weights ``(wa, wb, wc)``; each sums to 1 per point. Degenerate triangles
    raise :class:`ValueError`.
    """
    pa, pb, pc = Point2.of(a), Point2.of(b), Point2.of(c)
    det = (pb.y - pc.y) * (pa.x - pc.x) + (pc.x - pb.x) * (pa.y - pc.y)
    if abs(det) < EPSILON:
        raise ValueError("degenerate triangle in barycentric_weights")
    wa = ((pb.y - pc.y) * (px - pc.x) + (pc.x - pb.x) * (py - pc.y)) / det
    wb = ((pc.y - pa.y) * (px - pc.x) + (pa.x - pc.x) * (py - pc.y)) / det
    wc = 1.0 - wa - wb
    return wa, wb, wc
