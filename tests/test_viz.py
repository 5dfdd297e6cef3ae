"""Tests for ASCII rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import uniform_grid_placement
from repro.fields.base import GridSample
from repro.geometry.primitives import BoundingBox
from repro.viz.ascii import (
    render_field,
    render_series,
    render_topology,
    render_triangulation,
)


def render_topology_reference(positions, region, rc=None, width=60, height=24):
    """Pair-by-pair oracle for :func:`render_topology`.

    One ``np.linalg.norm`` per pair ``i < j``, one line walk per link in
    Python floats: the renderer's output must match it byte for byte.
    """
    if width < 2 or height < 2:
        raise ValueError("width and height must each be >= 2")
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    canvas = [[" "] * width for _ in range(height)]

    def to_cell(x, y):
        cx = int(round((x - region.xmin) / max(region.width, 1e-12) * (width - 1)))
        cy = int(round((y - region.ymin) / max(region.height, 1e-12) * (height - 1)))
        return min(max(cx, 0), width - 1), min(max(cy, 0), height - 1)

    if rc is not None:
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if np.linalg.norm(pts[i] - pts[j]) <= rc:
                    steps = max(
                        abs(to_cell(*pts[i])[0] - to_cell(*pts[j])[0]),
                        abs(to_cell(*pts[i])[1] - to_cell(*pts[j])[1]),
                        1,
                    )
                    for s in range(steps + 1):
                        f = s / steps
                        x = pts[i][0] + f * (pts[j][0] - pts[i][0])
                        y = pts[i][1] + f * (pts[j][1] - pts[i][1])
                        cx, cy = to_cell(x, y)
                        if canvas[cy][cx] == " ":
                            canvas[cy][cx] = "."

    for x, y in pts:
        cx, cy = to_cell(float(x), float(y))
        canvas[cy][cx] = "o"
    return "\n".join("".join(row) for row in reversed(canvas))


def grid(values):
    values = np.asarray(values, dtype=float)
    return GridSample(
        xs=np.linspace(0, 10, values.shape[1]),
        ys=np.linspace(0, 10, values.shape[0]),
        values=values,
    )


class TestRenderField:
    def test_dimensions(self):
        out = render_field(grid(np.random.default_rng(0).normal(size=(20, 20))),
                           width=30, height=10)
        lines = out.splitlines()
        assert len(lines) == 10
        assert all(len(line) == 30 for line in lines)

    def test_constant_field_uniform_chars(self):
        out = render_field(grid(np.full((5, 5), 3.0)), width=10, height=5)
        assert len(set(out.replace("\n", ""))) == 1

    def test_high_values_darker(self):
        values = np.zeros((10, 10))
        values[:, 5:] = 10.0
        out = render_field(grid(values), width=10, height=5)
        first_line = out.splitlines()[0]
        assert first_line[0] == " "
        assert first_line[-1] == "@"

    def test_origin_bottom_left(self):
        values = np.zeros((10, 10))
        values[0, 0] = 10.0  # y=0, x=0 -> bottom-left
        out = render_field(grid(values), width=10, height=5)
        assert out.splitlines()[-1][0] == "@"

    def test_validation(self):
        with pytest.raises(ValueError):
            render_field(grid(np.zeros((3, 3))), width=1)


class TestRenderTopology:
    REGION = BoundingBox.square(10.0)

    def test_nodes_marked(self):
        out = render_topology(
            np.array([[5.0, 5.0]]), self.REGION, width=11, height=11
        )
        assert out.count("o") == 1

    def test_links_drawn(self):
        out = render_topology(
            np.array([[0.0, 5.0], [10.0, 5.0]]), self.REGION, rc=20.0,
            width=21, height=11,
        )
        assert "." in out
        assert out.count("o") == 2

    def test_no_links_without_rc(self):
        out = render_topology(
            np.array([[0.0, 5.0], [10.0, 5.0]]), self.REGION,
            width=21, height=11,
        )
        assert "." not in out


class TestRenderSeries:
    def test_marks_and_header(self):
        out = render_series([0, 1, 2], [5.0, 7.0, 6.0], width=20, height=5,
                            label="demo")
        assert out.startswith("demo")
        assert out.count("*") == 3

    def test_empty(self):
        assert render_series([], []) == "(empty series)"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            render_series([1, 2], [1.0])


class TestRenderTriangulation:
    REGION = BoundingBox.square(10.0)

    def test_vertices_and_edges(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 10.0]])
        tris = np.array([[0, 1, 2]])
        out = render_triangulation(pts, tris, self.REGION, width=21, height=11)
        assert out.count("o") == 3
        assert "." in out

    def test_empty_triangulation(self):
        pts = np.array([[5.0, 5.0]])
        out = render_triangulation(
            pts, np.empty((0, 3), dtype=int), self.REGION, width=11, height=5
        )
        assert out.count("o") == 1
        assert "." not in out

    def test_validation(self):
        with pytest.raises(ValueError):
            render_triangulation(
                np.zeros((1, 2)), np.empty((0, 3)), self.REGION, width=1
            )


def _same_as_reference(positions, region, rc, width=60, height=24):
    out = render_topology(positions, region, rc=rc, width=width, height=height)
    assert out == render_topology_reference(
        positions, region, rc=rc, width=width, height=height
    )
    return out


_coords = st.floats(-5.0, 15.0, allow_nan=False, allow_infinity=False)


class TestRenderTopologyMatchesReference:
    """``render_topology`` is byte-identical to the pair-by-pair loop."""

    REGION = BoundingBox.square(10.0)

    @given(
        points=st.lists(st.tuples(_coords, _coords), max_size=30),
        rc=st.none() | st.floats(0.0, 12.0),
        width=st.integers(2, 70),
        height=st.integers(2, 30),
    )
    def test_random_points(self, points, rc, width, height):
        # the coordinate range reaches 5 past every edge of the region
        positions = np.array(points, dtype=float).reshape(-1, 2)
        _same_as_reference(positions, self.REGION, rc, width, height)

    @settings(max_examples=30)
    @given(
        rc=st.floats(1.0, 5.0),
        width=st.integers(2, 70),
        height=st.integers(2, 30),
    )
    def test_lattice_spaced_exactly_rc(self, rc, width, height):
        steps = np.arange(int(10.0 / rc) + 1) * rc
        positions = np.array([(x, y) for x in steps for y in steps])
        _same_as_reference(positions, self.REGION, rc, width, height)

    @pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)])
    @pytest.mark.parametrize("rc", [1.0, 2.5, 3.0 + 1e-9, 7.3])
    def test_pairs_one_ulp_either_side_of_rc(self, direction, rc):
        origin = np.array([1.25, 2.0])
        positions = [origin]
        for length in (np.nextafter(rc, 0.0), rc, np.nextafter(rc, np.inf)):
            positions.append(origin + length * np.array(direction))
        positions = np.array(positions)
        for end in range(1, 4):
            pair = positions[[0, end]]
            for limit in (np.nextafter(rc, 0.0), rc, np.nextafter(rc, np.inf)):
                _same_as_reference(pair, self.REGION, limit, 41, 21)

    def test_duplicates_and_tiny_fleets(self):
        for positions in (
            np.empty((0, 2)),
            np.array([[3.0, 4.0]]),
            np.array([[3.0, 4.0], [3.0, 4.0]]),
            np.array([[3.0, 4.0], [3.0, 4.0], [3.0, 4.0], [6.0, 4.0]]),
        ):
            for rc in (None, 0.0, 2.0, 5.0):
                _same_as_reference(positions, self.REGION, rc, 21, 11)
        out = render_topology(np.empty((0, 2)), self.REGION, rc=3.0, width=4, height=2)
        assert out == "    \n    "

    def test_points_outside_the_region(self):
        positions = np.array(
            [[-4.0, 5.0], [14.0, 5.0], [5.0, -3.0], [5.0, 13.0], [-1.0, -1.0], [0.5, 0.5]]
        )
        for rc in (None, 2.0, 9.5, 20.0):
            _same_as_reference(positions, self.REGION, rc, 30, 12)

    @given(points=st.lists(
        st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)), max_size=16
    ))
    def test_fig3_canvas(self, points):
        # fig3: 16 nodes on a 100 m square, Rc = 30, drawn at 40 x 16
        region = BoundingBox.square(100.0)
        _same_as_reference(uniform_grid_placement(region, 16), region, 30.0, 40, 16)
        positions = np.array(points, dtype=float).reshape(-1, 2)
        _same_as_reference(positions, region, 30.0, 40, 16)
