"""Canonical simplex order: the triangle-set form every consumer sees.

:func:`canonical_simplices` makes the rasteriser's shared-edge tie-break
and extrapolation's first-improvement winner functions of the triangle
*set* alone, independent of the order a mesh was built in.
"""

import numpy as np

from repro.geometry.delaunay import canonical_simplices


class TestCanonicalSimplices:
    def test_rotation_preserves_cyclic_order(self):
        simp = np.array([[5, 2, 9], [1, 0, 3]])
        out = canonical_simplices(simp)
        # rows rotated min-first, then lexsorted
        assert out.tolist() == [[0, 3, 1], [2, 9, 5]]

    def test_row_order_independent(self):
        simp = np.array([[3, 1, 2], [0, 4, 5]])
        a = canonical_simplices(simp)
        b = canonical_simplices(simp[::-1])
        assert np.array_equal(a, b)

    def test_empty(self):
        out = canonical_simplices(np.empty((0, 3), dtype=int))
        assert out.shape == (0, 3)
