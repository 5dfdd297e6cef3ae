"""Tests for relay placement (FRA's L(G,r) / P(G,i) primitives)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.geometric import unit_disk_graph
from repro.graphs.relay import (
    IncrementalRelayCount,
    count_required_relays,
    plan_relays,
    relays_for_gap,
)
from repro.graphs.traversal import connected_components, is_connected


class TestRelaysForGap:
    def test_no_relay_within_radius(self):
        assert relays_for_gap(5.0, 10.0) == 0
        assert relays_for_gap(10.0, 10.0) == 0

    def test_one_relay(self):
        assert relays_for_gap(15.0, 10.0) == 1
        assert relays_for_gap(20.0, 10.0) == 1  # exactly 2 hops

    def test_many_relays(self):
        assert relays_for_gap(35.0, 10.0) == 3

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            relays_for_gap(5.0, 0.0)


class TestCountRequired:
    def test_connected_needs_none(self):
        pts = np.array([[0, 0], [5, 0], [10, 0]], dtype=float)
        assert count_required_relays(pts, 10.0) == 0

    def test_two_islands(self):
        pts = np.array([[0, 0], [25, 0]], dtype=float)
        assert count_required_relays(pts, 10.0) == 2  # 25m gap -> 2 relays

    def test_three_islands_mst(self):
        pts = np.array([[0, 0], [15, 0], [30, 0]], dtype=float)
        # Two 15m gaps along the MST, one relay each.
        assert count_required_relays(pts, 10.0) == 2

    def test_trivial_inputs(self):
        assert count_required_relays(np.empty((0, 2)), 10.0) == 0
        assert count_required_relays(np.array([[1.0, 1.0]]), 10.0) == 0


class TestPlanRelays:
    def test_full_plan_connects(self):
        pts = np.array([[0, 0], [25, 0], [0, 40]], dtype=float)
        plan = plan_relays(pts, 10.0)
        assert plan.connected
        combined = np.vstack([pts, plan.positions])
        assert is_connected(unit_disk_graph(combined, 10.0))
        assert len(plan.positions) == plan.required

    def test_relay_spacing_within_radius(self):
        pts = np.array([[0, 0], [37, 0]], dtype=float)
        plan = plan_relays(pts, 10.0)
        chain = np.vstack([pts[:1], plan.positions, pts[1:]])
        order = np.argsort(chain[:, 0])
        hops = np.diff(chain[order, 0])
        assert (hops <= 10.0 + 1e-9).all()

    def test_budget_zero(self):
        pts = np.array([[0, 0], [25, 0]], dtype=float)
        plan = plan_relays(pts, 10.0, budget=0)
        assert len(plan.positions) == 0
        assert not plan.connected
        assert plan.components_after == 2

    def test_partial_budget_cheapest_first(self):
        # Component A-B gap needs 1 relay, A-C needs 3; budget 1 joins A-B.
        pts = np.array([[0, 0], [18, 0], [0, 38]], dtype=float)
        plan = plan_relays(pts, 10.0, budget=1)
        assert len(plan.positions) == 1
        assert plan.components_after == 2
        assert not plan.connected

    def test_already_connected(self):
        pts = np.array([[0, 0], [5, 0]], dtype=float)
        plan = plan_relays(pts, 10.0)
        assert plan.connected
        assert plan.required == 0
        assert len(plan.positions) == 0

    def test_empty_input(self):
        plan = plan_relays(np.empty((0, 2)), 10.0)
        assert plan.connected
        assert plan.components_before == 0


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=15), st.integers(0, 9999))
    def test_full_plan_always_connects(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 100, size=(n, 2))
        rc = 12.0
        plan = plan_relays(pts, rc)
        assert plan.connected
        combined = np.vstack([pts, plan.positions])
        assert is_connected(unit_disk_graph(combined, rc))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(0, 9999))
    def test_count_matches_plan(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 80, size=(n, 2))
        assert count_required_relays(pts, 10.0) == plan_relays(pts, 10.0).required


def _state(counter):
    return (counter._points.copy(), counter._labels.copy(), counter._gaps.copy())


def _assert_same_state(a, b):
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def _partition(labels):
    return {
        frozenset(np.flatnonzero(labels == lab).tolist())
        for lab in np.unique(labels)
    }


def _check_sequence(points, probes, radius):
    """After every add, L and every probe match a full recount."""
    counter = IncrementalRelayCount(radius)
    assert counter.required() == 0
    for i, p in enumerate(points):
        counter.add(p)
        so_far = np.asarray(points[: i + 1], dtype=float)
        assert counter.required() == count_required_relays(so_far, radius)
        # A gap of exactly Rc costs no relay whether or not it is
        # merged, so L alone cannot see the in-range test; the labels can.
        assert _partition(counter._labels) == _partition(
            connected_components(unit_disk_graph(so_far, radius))
        )
        for c in probes:
            before = _state(counter)
            assert counter.required(c) == count_required_relays(
                np.vstack([so_far, c]), radius
            )
            _assert_same_state(before, _state(counter))


class TestIncrementalRelayCount:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_full_recount(self, data):
        radius = data.draw(st.sampled_from([10.0, 6.0, 3.7]))
        # Lattice steps of Rc/2 give gaps of exactly Rc and 2·Rc,
        # duplicates and collinear runs; free points fill in between.
        lattice = st.integers(0, 8).map(lambda i: i * radius / 2)
        free = st.floats(0.0, 4.0 * radius, allow_nan=False)
        point = st.one_of(st.tuples(lattice, lattice), st.tuples(free, free))
        points = data.draw(st.lists(point, min_size=1, max_size=20))
        probes = data.draw(st.lists(point, max_size=3))
        _check_sequence(points, probes, radius)

    def test_matches_full_recount_past_dense_crossover(self):
        # Beyond 64 points count_required_relays builds its graph from
        # the cell-list grid instead of the dense distance matrix.
        rng = np.random.default_rng(3)
        points = [tuple(p) for p in rng.uniform(0, 100, size=(90, 2))]
        probes = [tuple(p) for p in rng.uniform(0, 100, size=(2, 2))]
        _check_sequence(points, probes, 10.0)

    def test_exact_gaps(self):
        counter = IncrementalRelayCount(10.0)
        for p in [(0.0, 0.0), (10.0, 0.0), (30.0, 0.0), (60.0, 0.0)]:
            counter.add(p)
        # 10 apart joins; 20 needs one relay, 30 needs two.
        assert counter.required() == 3
        assert counter.required((20.0, 0.0)) == 2
        assert counter.required((40.0, 0.0)) == 2

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            IncrementalRelayCount(0.0)
