"""A carried mesh is the mesh a fresh build gives, call after call.

:class:`DelaunayMesher` repairs its last triangulation to moved points:
Lawson flips, plus removal and re-insertion of every vertex whose move
would invert a triangle. Every call must return exactly what
``delaunay_mesh`` returns for the same points: the same kept indices and
the same canonical simplices, array for array.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaunay_reference import square_lattice
from repro.geometry.delaunay import (
    DelaunayMesher,
    DelaunayTriangulation,
    delaunay_mesh,
)


@pytest.fixture
def calls(monkeypatch):
    """The objects the build, the flips and the removals were called on.

    ``calls["build"].count(mesher)`` is how often ``mesher`` built
    afresh; the reference builds of ``delaunay_mesh`` count apart.
    """
    calls = {"build": [], "flip": [], "remove": []}
    for owner, name in (
        (DelaunayMesher, "_build"),
        (DelaunayTriangulation, "_flip"),
        (DelaunayTriangulation, "_remove"),
    ):
        real = getattr(owner, name)

        def counted(self, *args, _real=real, _key=name.lstrip("_")):
            calls[_key].append(self)
            return _real(self, *args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def assert_same_as_build(mesher, points, ids):
    kept, simplices = mesher(points, ids)
    want_kept, want_simplices = delaunay_mesh(points)
    assert np.array_equal(kept, want_kept)
    assert np.array_equal(simplices, want_simplices)


# One round of moves: (kind, fraction of points moved, step, seed).
MOVES = st.tuples(
    st.sampled_from(
        ["jitter", "jump", "snap", "swap", "near_duplicate", "reorder"]
    ),
    st.floats(0.05, 1.0),
    st.sampled_from([1e-6, 0.05, 0.5, 3.0]),
    st.integers(0, 2**16),
)


def _move(points, ids, kind, share, step, seed):
    rng = np.random.default_rng(seed)
    n = len(points)
    pts = points.copy()
    sel = rng.random(n) < share
    if kind == "reorder":
        perm = rng.permutation(n)
        return pts[perm], ids[perm]
    if kind == "swap":
        # Each chosen point takes the next one's former position.
        chosen = np.flatnonzero(sel)
        pts[chosen] = points[np.roll(chosen, 1)]
        return pts, ids
    if kind == "near_duplicate":
        # Onto another point, give or take less than the dedup tolerance.
        j = rng.integers(0, n, size=sel.sum())
        pts[sel] = points[j] + rng.uniform(-4e-10, 4e-10, size=(sel.sum(), 2))
        return pts, ids
    delta = rng.normal(0.0, step, size=(sel.sum(), 2))
    if kind == "jump":
        delta *= 10.0
    pts[sel] += delta
    if kind == "snap":
        # Back onto the integer lattice: cocircular cells, exact ties.
        pts[sel] = np.round(pts[sel])
    return pts, ids


@settings(max_examples=60, deadline=None)
@given(
    start=st.sampled_from(["random", "lattice"]),
    n=st.integers(3, 40),
    seed=st.integers(0, 2**16),
    moves=st.lists(MOVES, min_size=1, max_size=5),
)
def test_every_update_equals_a_fresh_build(start, n, seed, moves):
    rng = np.random.default_rng(seed)
    if start == "lattice":
        side = int(np.ceil(np.sqrt(n)))
        points = square_lattice(side, 1.0, 0.0)[:n]
    else:
        points = rng.uniform(0.0, 10.0, size=(n, 2))
    ids = np.arange(n) * 3 + 1
    mesher = DelaunayMesher()
    assert_same_as_build(mesher, points, ids)
    for kind, share, step, move_seed in moves:
        points, ids = _move(points, ids, kind, share, step, move_seed)
        assert_same_as_build(mesher, points, ids)


class TestNamedMoves:
    def test_relocated_lattice_vertex_with_cocircular_link(self, calls):
        # The centre of a 5 x 5 lattice: its link is four cocircular
        # diamonds. Moving it past its neighbours inverts its triangles,
        # so it is removed from that link and re-inserted.
        points = square_lattice(5, 1.0, 0.0)
        ids = np.arange(len(points))
        centre = int(np.flatnonzero((points == (2.0, 2.0)).all(axis=1))[0])
        mesher = DelaunayMesher()
        assert_same_as_build(mesher, points, ids)
        for target in [(3.5, 2.0), (1.0, 2.5), (2.0, 2.0)]:
            points = points.copy()
            points[centre] = target
            assert_same_as_build(mesher, points, ids)
        assert calls["build"].count(mesher) == 1
        assert len(calls["remove"]) >= 2

    def test_hull_vertex_moves_outward_and_inward(self, calls):
        rng = np.random.default_rng(3)
        points = rng.uniform(0.0, 10.0, size=(30, 2))
        ids = np.arange(30)
        corner = int(np.argmax(points.sum(axis=1)))
        mesher = DelaunayMesher()
        assert_same_as_build(mesher, points, ids)
        for target in [(40.0, 40.0), (5.0, 5.1), (10.5, 10.5)]:
            points = points.copy()
            points[corner] = target
            assert_same_as_build(mesher, points, ids)
        assert calls["build"].count(mesher) == 1

    def test_point_lands_on_another_former_position(self, calls):
        points = square_lattice(4, 1.0, 0.0)
        ids = np.arange(len(points))
        mesher = DelaunayMesher()
        assert_same_as_build(mesher, points, ids)
        # 5 takes 6's place and 6 moves on; then 9 and 10 swap.
        moved = points.copy()
        moved[5], moved[6] = points[6], (2.5, 1.5)
        assert_same_as_build(mesher, moved, ids)
        swapped = moved.copy()
        swapped[9], swapped[10] = moved[10], moved[9]
        assert_same_as_build(mesher, swapped, ids)
        assert calls["build"].count(mesher) == 1
        assert calls["remove"]

    def test_unmoved_points_keep_the_mesh(self, calls):
        points = square_lattice(4, 1.0, 0.0)
        mesher = DelaunayMesher()
        first = mesher(points, np.arange(16))
        again = mesher(points.copy(), np.arange(16))
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        assert calls == {"build": [mesher], "flip": [], "remove": []}


class TestRebuilds:
    def test_without_ids_every_call_builds(self, calls):
        points = square_lattice(3, 1.0, 0.0)
        mesher = DelaunayMesher()
        mesher(points)
        mesher(points + 0.1)
        assert calls["build"].count(mesher) == 2

    def test_other_ids_or_kept_points_rebuild(self, calls):
        points = square_lattice(3, 1.0, 0.0)
        mesher = DelaunayMesher()
        assert_same_as_build(mesher, points, np.arange(9))
        assert_same_as_build(mesher, points, np.arange(9)[::-1])
        assert calls["build"].count(mesher) == 2
        merged = points.copy()
        merged[4] = merged[3] + 1e-12
        assert_same_as_build(mesher, merged, np.arange(9)[::-1])
        assert calls["build"].count(mesher) == 3

    def test_a_non_finite_point_fails_as_the_build_does(self, calls):
        points = square_lattice(3, 1.0, 0.0)
        ids = np.arange(9)
        mesher = DelaunayMesher()
        mesher(points, ids)
        bad = points.copy()
        bad[2] = (np.nan, 1.0)
        with pytest.raises(ValueError, match="working area"):
            mesher(bad, ids)
        with pytest.raises(ValueError, match="working area"):
            delaunay_mesh(bad)
        assert calls["build"].count(mesher) == 2

    def test_a_failed_update_drops_the_mesh(self, calls):
        points = square_lattice(3, 1.0, 0.0)
        ids = np.arange(9)
        mesher = DelaunayMesher()
        mesher(points, ids)
        far = points.copy()
        far[4] = (1e9, 1e9)
        with pytest.raises(ValueError, match="working area"):
            mesher(far, ids)
        with pytest.raises(ValueError, match="working area"):
            delaunay_mesh(far)
        assert_same_as_build(mesher, points + 0.5, ids)
        assert calls["build"].count(mesher) == 2
