"""The array connectivity kernel against networkx on unit-disk layouts.

The oracle graph is built pair by pair in plain Python with the same
distance expression the kernel uses (``sqrt(dx*dx + dy*dy) <= r``), so a
pair at exactly ``Rc`` is an edge in both. Layouts mix lattice points of
step ``Rc/2`` (exact-``Rc`` gaps, duplicates, collinear runs) with free
points, at sizes on both sides of ``DENSE_CROSSOVER``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.spatial_index import DENSE_CROSSOVER
from repro.graphs.geometric import unit_disk_graph
from repro.graphs.robustness import layout_fragility
from repro.graphs.traversal import connected_components, hop_counts

nx = pytest.importorskip("networkx")

RADII = (10.0, 6.0, 3.7)


@st.composite
def layouts(draw, max_size=DENSE_CROSSOVER + 40):
    radius = draw(st.sampled_from(RADII))
    lattice = st.integers(0, 12).map(lambda i: i * radius / 2)
    free = st.floats(0.0, 6.0 * radius, allow_nan=False)
    point = st.one_of(st.tuples(lattice, lattice), st.tuples(free, free))
    n = draw(st.one_of(
        st.integers(0, 8), st.integers(DENSE_CROSSOVER - 4, max_size)
    ))
    pts = draw(st.lists(point, min_size=n, max_size=n))
    return np.asarray(pts, dtype=float).reshape(-1, 2), radius


EMPTY = (np.empty((0, 2)), 10.0)
SINGLE = (np.array([[3.0, 4.0]]), 10.0)
EXACT_AND_DUPLICATE = (
    np.array([[0.0, 0.0], [6.0, 8.0], [6.0, 8.0], [16.0, 8.0]]), 10.0
)


def oracle(pts, radius):
    g = nx.Graph()
    g.add_nodes_from(range(len(pts)))
    xy = pts.tolist()
    for i, (xi, yi) in enumerate(xy):
        for j in range(i + 1, len(xy)):
            dx, dy = xi - xy[j][0], yi - xy[j][1]
            if math.sqrt(dx * dx + dy * dy) <= radius:
                g.add_edge(i, j)
    return g


@settings(max_examples=60, deadline=None)
@given(layouts())
@example(EMPTY)
@example(SINGLE)
@example(EXACT_AND_DUPLICATE)
def test_labels_are_canonical_networkx_components(layout):
    pts, radius = layout
    comps = sorted(nx.connected_components(oracle(pts, radius)), key=min)
    expected = np.empty(len(pts), dtype=int)
    for label, comp in enumerate(comps):
        expected[list(comp)] = label
    labels = connected_components(unit_disk_graph(pts, radius))
    assert labels.tolist() == expected.tolist()


@settings(max_examples=60, deadline=None)
@given(layouts(), st.integers(0, 10**6))
@example(SINGLE, 0)
@example(EXACT_AND_DUPLICATE, 3)
def test_hop_counts_match_shortest_path_lengths(layout, pick):
    pts, radius = layout
    if len(pts) == 0:
        return
    source = pick % len(pts)
    lengths = nx.single_source_shortest_path_length(oracle(pts, radius), source)
    expected = [lengths.get(v, -1) for v in range(len(pts))]
    assert hop_counts(unit_disk_graph(pts, radius), source).tolist() == expected


@settings(max_examples=40, deadline=None)
@given(layouts(max_size=DENSE_CROSSOVER + 16))
@example(EMPTY)
@example(SINGLE)
@example(EXACT_AND_DUPLICATE)
def test_fragility_is_articulation_share(layout):
    pts, radius = layout
    n = len(pts)
    cut = list(nx.articulation_points(oracle(pts, radius)))
    assert layout_fragility(pts, radius) == (len(cut) / n if n else 0.0)
