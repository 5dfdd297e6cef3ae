"""Tests for the Foresighted Refinement Algorithm."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.fra as fra_module
from fra_reference import FullRecomputeTracker, WindowErrorTracker
from repro.core.fra import (
    FRAConfig,
    SelectionCriterion,
    foresighted_refinement,
    solve_osd,
)
from repro.core.problem import OSDProblem
from repro.fields.base import sample_grid
from repro.fields.greenorbs import GreenOrbsLightField
from repro.graphs.geometric import unit_disk_graph
from repro.graphs.relay import IncrementalRelayCount, count_required_relays
from repro.graphs.traversal import is_connected
from repro.obs import Instrumentation


RC = 10.0


def _relay_cost_grid(grid_x, grid_y, selected, rc):
    """Oracle: relays to join each cell to its nearest selected node,
    rescanning every node over the whole grid."""
    pts = np.asarray(selected, dtype=float).reshape(-1, 2)
    d2 = np.full(grid_x.shape, np.inf)
    for x, y in pts:
        d2 = np.minimum(d2, (grid_x - x) ** 2 + (grid_y - y) ** 2)
    dmin = np.sqrt(d2)
    return np.maximum(np.ceil(dmin / rc - 1e-9) - 1.0, 0.0)


class _FullRecount:
    """Oracle foresight: ``count_required_relays`` over every node, per call."""

    def __init__(self, radius):
        self.radius = radius
        self.points = []

    def add(self, point):
        self.points.append(tuple(point))

    def required(self, candidate=None):
        pts = self.points + ([candidate] if candidate is not None else [])
        return count_required_relays(
            np.asarray(pts, dtype=float).reshape(-1, 2), self.radius
        )


FORESIGHT_CONFIGS = {
    "default": FRAConfig(),
    "paper_pick": FRAConfig(cost_aware_selection=False),
    "corners": FRAConfig(corners_are_nodes=True),
    "random": FRAConfig(selection=SelectionCriterion.RANDOM, seed=3),
}


class TestBudgetAccounting:
    def test_exactly_k_nodes(self, bump_reference):
        for k in (1, 2, 7, 30):
            result = foresighted_refinement(bump_reference, k, RC)
            assert result.k == k
            assert result.n_refinement + result.n_relays + result.n_leftover == k

    def test_invalid_inputs(self, bump_reference):
        with pytest.raises(ValueError):
            foresighted_refinement(bump_reference, 0, RC)
        with pytest.raises(ValueError):
            foresighted_refinement(bump_reference, 5, 0.0)

    def test_corners_as_nodes_consume_budget(self, bump_reference):
        result = foresighted_refinement(
            bump_reference, 10, RC, FRAConfig(corners_are_nodes=True)
        )
        assert result.k == 10
        corners = {(0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)}
        placed = {tuple(p) for p in result.positions}
        assert corners <= placed
        assert len(result.anchor_positions) == 0

    def test_corners_as_nodes_small_k_raises(self, bump_reference):
        with pytest.raises(ValueError):
            foresighted_refinement(
                bump_reference, 3, RC, FRAConfig(corners_are_nodes=True)
            )

    def test_anchor_positions_exposed(self, bump_reference):
        result = foresighted_refinement(bump_reference, 5, RC)
        assert len(result.anchor_positions) == 4


class TestConnectivity:
    @pytest.mark.parametrize("k", [5, 12, 25, 40])
    def test_layout_connected(self, bump_reference, k):
        result = foresighted_refinement(bump_reference, k, RC)
        assert result.connected
        assert is_connected(unit_disk_graph(result.positions, RC))

    def test_corner_nodes_count_as_reachable(self):
        # Corner nodes are network nodes, so a leftover pick may join
        # one of them. Seed-7 GreenOrbs, k=5: the single leftover lands
        # in radio reach of the (100, 100) corner, not mid-region.
        field = GreenOrbsLightField(side=100.0, seed=7)
        reference = sample_grid(field, field.region, 101, t=600.0)
        result = foresighted_refinement(
            reference, 5, RC, FRAConfig(corners_are_nodes=True)
        )
        assert result.n_leftover == 1
        leftover = result.positions[-1]
        assert leftover.tolist() == [100.0, 90.0]
        corners = result.positions[:4]
        assert np.hypot(*(corners - leftover).T).min() <= RC

    def test_fallback_takes_a_cell_exactly_rc_away(self):
        # In reach means d <= Rc, boundary included. Seed-3 GreenOrbs,
        # k=5, Rc=15: foresight vetoes the fifth pick, and the best cell
        # in reach is (40, 70), exactly Rc from the node at (52, 61)
        # (a 9-12-15 triangle).
        field = GreenOrbsLightField(side=100.0, seed=3)
        reference = sample_grid(field, field.region, 101, t=600.0)
        obs = Instrumentation.in_memory()
        result = foresighted_refinement(reference, 5, 15.0, obs=obs)
        kinds = [
            e.fields["kind"] for e in obs.memory_events()
            if e.name == "fra_refine"
        ]
        assert kinds[-1] == "fallback"
        pick = result.positions[-1]
        assert pick.tolist() == [40.0, 70.0]
        d2 = ((result.positions[:-1] - pick) ** 2).sum(axis=1)
        assert d2.min() == 15.0 ** 2

    def test_single_node_connected(self, bump_reference):
        result = foresighted_refinement(bump_reference, 1, RC)
        assert result.connected

    def test_positions_inside_region(self, bump_reference):
        result = foresighted_refinement(bump_reference, 30, RC)
        region = bump_reference.region
        for x, y in result.positions:
            assert region.contains((x, y), tol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=20))
    def test_property_connected_for_all_k(self, k):
        import repro.fields.analytic as fa
        from repro.fields.base import sample_grid
        from repro.geometry.primitives import BoundingBox

        field = fa.GaussianMixtureField.random(
            4, BoundingBox.square(60.0), seed=k
        )
        reference = sample_grid(field, BoundingBox.square(60.0), 31)
        result = foresighted_refinement(reference, k, 10.0)
        assert result.connected


class TestQuality:
    def test_beats_random_on_features(self, greenorbs_reference):
        from repro.core.baselines import random_placement
        from repro.fields.grid import GridField
        from repro.surfaces.reconstruction import reconstruct_surface

        k = 40
        problem = OSDProblem(k=k, rc=RC, reference=greenorbs_reference)
        fra = solve_osd(problem)
        gf = GridField(greenorbs_reference)
        random_deltas = []
        for seed in range(3):
            pts = random_placement(greenorbs_reference.region, k, seed=seed)
            random_deltas.append(
                reconstruct_surface(
                    greenorbs_reference, pts, values=gf.sample(pts)
                ).delta
            )
        assert fra.delta < np.mean(random_deltas)

    def test_delta_decreases_with_k(self, greenorbs_reference):
        deltas = [
            solve_osd(
                OSDProblem(k=k, rc=RC, reference=greenorbs_reference)
            ).delta
            for k in (10, 40, 80)
        ]
        assert deltas[0] > deltas[1] > deltas[2]

    def test_incremental_matches_full_recompute(
        self, bump_reference, monkeypatch
    ):
        fast = foresighted_refinement(bump_reference, 30, RC)
        # The cavity-window update picks the same cells; a recompute of
        # the whole grid after every insert differs only by rounding on
        # shared edges.
        monkeypatch.setattr(fra_module, "_ErrorTracker", WindowErrorTracker)
        window = foresighted_refinement(bump_reference, 30, RC)
        monkeypatch.setattr(fra_module, "_ErrorTracker", FullRecomputeTracker)
        slow = foresighted_refinement(bump_reference, 30, RC)
        assert np.array_equal(fast.positions, window.positions)
        assert np.allclose(fast.positions, slow.positions)

    def test_record_history_monotone_tail(self, bump_reference):
        result = foresighted_refinement(
            bump_reference, 20, RC, FRAConfig(record_history=True)
        )
        assert len(result.history) >= result.n_refinement
        ks = [k for k, _ in result.history]
        assert ks == sorted(ks)


_FIG7_FIELD = GreenOrbsLightField(side=100.0, seed=7)
#: The fig7 reference (resolution 101: cells on the integer lattice) and
#: the same field off the lattice, where the triangles that share an
#: edge round the value on it differently.
FAN_REFERENCES = [
    sample_grid(_FIG7_FIELD, _FIG7_FIELD.region, n, t=600.0) for n in (101, 73)
]

#: One step of an insertion sequence: a cell on a boundary row or
#: column, a neighbour of the previous cell, or any cell.
_STEPS = st.one_of(
    st.tuples(st.just("edge"), st.sampled_from("LRBT"), st.integers(0, 100)),
    st.tuples(st.just("next"), st.integers(-1, 1), st.integers(-1, 1)),
    st.tuples(st.just("any"), st.integers(0, 100), st.integers(0, 100)),
)


def _cells(n, steps):
    """Cells of an ``n``-square grid: the four corners first, no repeats."""
    last = n - 1
    cells = [(0, 0), (last, 0), (last, last), (0, last)]
    seen = set(cells)
    for kind, a, b in steps:
        ix, iy = cells[-1]
        if kind == "edge":
            b %= n
            ix, iy = {"L": (0, b), "R": (last, b), "B": (b, 0), "T": (b, last)}[a]
        elif kind == "next":
            ix, iy = min(max(ix + a, 0), last), min(max(iy + b, 0), last)
        else:
            ix, iy = a % n, b % n
        if (ix, iy) not in seen:
            seen.add((ix, iy))
            cells.append((ix, iy))
    return cells


def _insert_cell(tracker, ref, ix, iy):
    return tracker.insert(
        float(ref.xs[ix]), float(ref.ys[iy]), ref.value_at_index(ix, iy)
    )


class TestFanUpdate:
    """The per-triangle fan update against the cavity-window oracle."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(FAN_REFERENCES),
        st.integers(0, 80).flatmap(
            lambda n: st.lists(_STEPS, min_size=n, max_size=n)
        ),
    )
    def test_err_equals_window_oracle_after_every_insert(self, ref, steps):
        tracker = fra_module._ErrorTracker(ref, Instrumentation.disabled())
        oracle = WindowErrorTracker(ref)
        for ix, iy in _cells(len(ref.xs), steps):
            index = _insert_cell(tracker, ref, ix, iy)
            assert index == _insert_cell(oracle, ref, ix, iy)
            assert np.array_equal(tracker.err, oracle.err)
            # The fan the kernel hands over is the rows of simplices that
            # hold the new vertex, in the same order.
            simp = tracker.tri.simplices
            assert np.array_equal(
                tracker.tri.new_triangles, simp[(simp == index).any(axis=1)]
            )
        full = FullRecomputeTracker(ref)
        for x, y, z in tracker.vertices:
            full.insert(x, y, z)
        assert np.allclose(tracker.err, full.err)

    def test_rasterize_span_per_update(self):
        # One span per insert that has a triangle to update: the 3rd
        # corner onwards.
        ref = FAN_REFERENCES[0]
        obs = Instrumentation.in_memory()
        tracker = fra_module._ErrorTracker(ref, obs)
        cells = _cells(101, [("any", 50, 50), ("next", 1, 0), ("edge", "L", 7)])
        for ix, iy in cells:
            _insert_cell(tracker, ref, ix, iy)
        paths = [e.fields["path"] for e in obs.memory_events()
                 if e.name == "span"]
        assert paths == ["rasterize"] * (len(cells) - 2)


class TestSelectionCriteria:
    @pytest.mark.parametrize("criterion", list(SelectionCriterion))
    def test_all_criteria_run(self, bump_reference, criterion):
        result = foresighted_refinement(
            bump_reference, 12, RC, FRAConfig(selection=criterion, seed=1)
        )
        assert result.k == 12
        assert result.connected

    def test_random_criterion_seeded(self, bump_reference):
        cfg = FRAConfig(selection=SelectionCriterion.RANDOM, seed=9)
        a = foresighted_refinement(bump_reference, 10, RC, cfg)
        b = foresighted_refinement(bump_reference, 10, RC, cfg)
        assert np.allclose(a.positions, b.positions)


class TestSolveOSD:
    def test_placement_result_fields(self, bump_reference):
        problem = OSDProblem(k=20, rc=RC, reference=bump_reference)
        result = solve_osd(problem)
        assert result.k == 20
        assert result.connected
        assert result.delta > 0
        assert result.meta["algorithm"] == "fra"

    @pytest.mark.parametrize("anchors", [True, False])
    def test_history_ends_at_final_delta(self, greenorbs_reference, anchors):
        # With no relays and no leftovers the last commit completes the
        # layout, so the last history point scores the final point set.
        problem = OSDProblem(k=15, rc=RC, reference=greenorbs_reference)
        result = solve_osd(
            problem,
            FRAConfig(record_history=True, anchors_in_reconstruction=anchors),
        )
        assert result.meta["n_relays"] == 0
        assert result.meta["n_leftover"] == 0
        last_k, last_delta = result.meta["history"][-1]
        assert last_k == 15
        assert last_delta == result.reconstruction.delta

    def test_anchor_toggle_changes_delta(self, greenorbs_reference):
        problem = OSDProblem(k=15, rc=RC, reference=greenorbs_reference)
        with_anchors = solve_osd(problem, FRAConfig(anchors_in_reconstruction=True))
        without = solve_osd(problem, FRAConfig(anchors_in_reconstruction=False))
        assert with_anchors.delta != without.delta


class TestIncrementalForesight:
    @pytest.mark.parametrize("corners", [False, True])
    def test_running_cost_grid_matches_rescan(
        self, greenorbs_reference, monkeypatch, corners
    ):
        reference = greenorbs_reference
        grid_x, grid_y = np.meshgrid(reference.xs, reference.ys)
        added = []
        checked = []
        original_add = IncrementalRelayCount.add
        original_cost = fra_module._relays_to_nearest

        def spy_add(self, point):
            added.append(tuple(point))
            original_add(self, point)

        def spy_cost(nearest_d2, rc):
            cost = original_cost(nearest_d2, rc)
            assert np.array_equal(
                cost, _relay_cost_grid(grid_x, grid_y, added, rc)
            )
            reach = np.zeros(grid_x.shape, dtype=bool)
            for x, y in added:
                reach |= (grid_x - x) ** 2 + (grid_y - y) ** 2 <= rc * rc
            assert np.array_equal(nearest_d2 <= rc * rc, reach)
            checked.append(len(added))
            return cost

        monkeypatch.setattr(IncrementalRelayCount, "add", spy_add)
        monkeypatch.setattr(fra_module, "_relays_to_nearest", spy_cost)
        result = foresighted_refinement(
            reference, 60, 6.0, FRAConfig(corners_are_nodes=corners)
        )
        assert result.n_relays > 0
        assert len(checked) >= result.n_refinement - 1
        assert checked == sorted(checked)

    @pytest.mark.parametrize("rc", [6.0, 10.0, 15.0])
    @pytest.mark.parametrize("name", sorted(FORESIGHT_CONFIGS))
    def test_placements_match_full_recount(
        self, greenorbs_reference, monkeypatch, name, rc
    ):
        reference = greenorbs_reference
        cfg = FORESIGHT_CONFIGS[name]
        ks = [k for k in (1, 5, 30, 200) if k >= 4 or not cfg.corners_are_nodes]
        configs = [replace(cfg, record_history=k <= 30) for k in ks]
        shipped = [
            foresighted_refinement(reference, k, rc, c)
            for k, c in zip(ks, configs)
        ]

        grid_x, grid_y = np.meshgrid(reference.xs, reference.ys)
        oracles = []

        def make_oracle(radius):
            oracles.append(_FullRecount(radius))
            return oracles[-1]

        monkeypatch.setattr(fra_module, "IncrementalRelayCount", make_oracle)
        monkeypatch.setattr(
            fra_module,
            "_relays_to_nearest",
            lambda d2, r: _relay_cost_grid(grid_x, grid_y, oracles[-1].points, r),
        )
        for k, c, fast in zip(ks, configs, shipped):
            slow = foresighted_refinement(reference, k, rc, c)
            assert np.array_equal(fast.positions, slow.positions), k
            assert fast.n_relays == slow.n_relays
            assert fast.n_leftover == slow.n_leftover
            assert fast.connected == slow.connected
            assert fast.history == slow.history
