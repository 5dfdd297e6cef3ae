"""Geometry kernel: 2-D predicates, convex hull, Delaunay triangulation.

This package implements, from scratch, the planar computational-geometry
substrate that the paper's algorithms rest on:

* tolerance-based orientation and in-circle predicates for the hull
  (:mod:`.predicates`),
* Andrew monotone-chain convex hull (:mod:`.hull`),
* incremental Bowyer--Watson Delaunay triangulation on exact predicates:
  each insert walks to the point and grows its cavity through
  neighbouring triangles, and a tie rule keyed on point priorities makes
  the triangles independent of the insertion order, so the measurement
  mesh is built in BRIO order and carried to moved points by flips and
  vertex relocation (:mod:`.delaunay`),
* vectorised piecewise-linear evaluation of the triangulated surface
  ``z* = DT(x, y)`` used by the paper's reconstruction metric
  (:mod:`.interpolation`),
* a cell-list spatial hash for fixed-radius neighbor queries, bit-exact
  against the dense pairwise-distance oracle (:mod:`.spatial_index`).

The triangulation is cross-validated against :mod:`scipy.spatial` in the
test suite but does not depend on it at runtime.
"""

from repro.geometry.predicates import (
    incircle,
    orientation,
    point_in_triangle,
    triangle_area,
)
from repro.geometry.hull import convex_hull, point_in_convex_polygon
from repro.geometry.primitives import (
    BoundingBox,
    Point2,
    Point3,
    distance,
    distance_squared,
    midpoint,
    unit_vector,
)
from repro.geometry.delaunay import (
    DelaunayTriangulation,
    canonical_simplices,
    delaunay_mesh,
)
from repro.geometry.interpolation import (
    LinearSurfaceInterpolator,
    barycentric_coordinates,
)
from repro.geometry.spatial_index import (
    SpatialHashGrid,
    radius_adjacency,
    radius_neighbor_lists,
)

__all__ = [
    "BoundingBox",
    "DelaunayTriangulation",
    "LinearSurfaceInterpolator",
    "Point2",
    "Point3",
    "SpatialHashGrid",
    "barycentric_coordinates",
    "canonical_simplices",
    "convex_hull",
    "delaunay_mesh",
    "distance",
    "distance_squared",
    "incircle",
    "midpoint",
    "orientation",
    "point_in_convex_polygon",
    "point_in_triangle",
    "radius_adjacency",
    "radius_neighbor_lists",
    "triangle_area",
    "unit_vector",
]
