"""``_dedup_kept`` keeps exactly the points the sequential dedup keeps.

The oracle (``delaunay_reference.reference_dedup_kept``) walks the points
in input order against a hash grid of the kept ones. The inputs crowd the
``tol`` boundary: pairs at, just under and just over ``tol`` along an axis
and the diagonal, chains whose links are each within ``tol``, lattices
sharing coordinates, exact duplicates, ``tol = 0`` and non-finite points.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaunay_reference import reference_dedup_kept
from repro.geometry.delaunay import _dedup_kept, delaunay_mesh

TOLS = [0.0, 1e-9, 1e-3, 0.5, 3.0]


def _near(tol, which):
    """``tol``, or the double just under or just over it."""
    return {"at": tol, "under": math.nextafter(tol, 0.0),
            "over": math.nextafter(tol, math.inf)}[which]


@st.composite
def crowded_points(draw):
    tol = draw(st.sampled_from(TOLS))
    unit = tol if tol > 0 else 1e-3
    coord = st.one_of(
        st.integers(-50, 50).map(float),
        st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    )
    pieces = []
    for _ in range(draw(st.integers(1, 6))):
        bx, by = draw(coord), draw(coord)
        kind = draw(st.sampled_from(
            ["pair", "diagonal", "chain", "grid", "duplicate", "non_finite"]
        ))
        d = _near(tol, draw(st.sampled_from(["at", "under", "over"])))
        if kind == "pair":
            sx, sy = draw(st.sampled_from([(1, 0), (0, 1), (-1, 0), (0, -1)]))
            pieces.append([(bx, by), (bx + sx * d, by + sy * d)])
        elif kind == "diagonal":
            h = d / math.sqrt(2.0)
            h = draw(st.sampled_from(
                [h, math.nextafter(h, 0.0), math.nextafter(h, math.inf)]
            ))
            pieces.append([(bx, by), (bx + h, by + h)])
        elif kind == "chain":
            n = draw(st.integers(3, 6))
            pieces.append([(bx + i * d, by) for i in range(n)])
        elif kind == "grid":
            step = draw(st.sampled_from([d, 0.5 * unit, 2.0 * unit]))
            g = np.arange(draw(st.integers(2, 5))) * step
            xx, yy = np.meshgrid(bx + g, by + g)
            pieces.append(list(zip(xx.ravel().tolist(), yy.ravel().tolist())))
        elif kind == "duplicate":
            pieces.append([(bx, by)] * draw(st.integers(2, 3)) + [(-0.0, 0.0)])
        else:
            bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            pieces.append([(bad, by), (bx, bad), (bx, by), (bad, bad)])
    pts = np.asarray([p for piece in pieces for p in piece], dtype=float)
    perm = draw(st.permutations(range(len(pts))))
    return pts[list(perm)], tol


class TestDedupKept:
    @settings(max_examples=200, deadline=None)
    @given(crowded_points())
    def test_matches_sequential_oracle(self, case):
        pts, tol = case
        expected = reference_dedup_kept(pts, tol)
        assert np.array_equal(_dedup_kept(pts, tol), expected)

    def test_chain_keeps_every_other_link(self):
        # B is within tol of A and C, C is not within tol of A: A and C stay.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        assert _dedup_kept(pts, 1.0).tolist() == [0, 2]

    def test_tol_boundary_is_inclusive(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, math.nextafter(0.5, 1.0)]])
        assert _dedup_kept(pts, 0.5).tolist() == [0, 2]

    def test_zero_tol_drops_exact_duplicates_only(self):
        pts = np.array([[1.0, 2.0], [1.0, 2.0], [math.nextafter(1.0, 2.0), 2.0],
                        [0.0, 0.0], [-0.0, 0.0]])
        assert _dedup_kept(pts, 0.0).tolist() == [0, 2, 3]

    def test_non_finite_points_are_kept(self):
        pts = np.array([[math.nan, 0.0], [math.nan, 0.0], [math.inf, 1.0],
                        [math.inf, 1.0], [0.0, 0.0], [0.0, 0.0]])
        assert _dedup_kept(pts, 1e-9).tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError):
            _dedup_kept(np.zeros((2, 2)), tol)

    def test_mesh_builds_over_the_kept_points(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 10.0, (40, 2))
        pts = np.vstack([pts, pts[:10] + 1e-12])
        kept, _ = delaunay_mesh(pts)
        assert kept.tolist() == list(range(40))
