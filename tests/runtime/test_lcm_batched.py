"""The batched LCM phase against the per-planner loop, move for move.

:func:`repro.runtime.cma_phases.lcm` prescreens every (planner,
follower) slot at once and recomputes the prescreen only after a real
move. ``lcm_reference`` keeps the loop that prescreened each planner at
its turn. From the same fleet and plan both must leave the same
positions bit for bit, make the same moves in the same number of
passes, and call :func:`~repro.core.lcm.lcm_adjustment` as often.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcm_reference as ref
from repro.core.cma import CMAPlan, NeighborTable
from repro.geometry.primitives import BoundingBox
from repro.obs.instrument import Instrumentation
from repro.runtime import cma_phases
from repro.runtime.state import WorldState

RC = 10.0
REGION = BoundingBox.square(60.0)


def make_engine(positions, alive):
    state = WorldState.initial(np.asarray(positions, dtype=float), t=0.0)
    state.alive[:] = alive
    return SimpleNamespace(
        obs=Instrumentation(enabled=True),
        problem=SimpleNamespace(rc=RC, region=REGION),
        state=state,
        round_index=0,
    )


def make_plan(planners, tables):
    counts = [len(t) for t in tables]
    ids = [j for t in tables for j in t]
    table = NeighborTable.from_records(
        counts, ids, np.zeros((len(ids), 2)), np.zeros(len(ids))
    )
    return CMAPlan(
        node_ids=np.asarray(planners, dtype=np.intp),
        origins=None, destinations=None, breakdown=None, magnitudes=None,
        neighbors=table,
    )


def counting(monkeypatch, module):
    calls = []
    original = module.lcm_adjustment

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "lcm_adjustment", wrapper)
    return calls


def assert_matches_oracle(monkeypatch, positions, alive, planners, tables):
    batched_calls = counting(monkeypatch, cma_phases)
    oracle_calls = counting(monkeypatch, ref)
    plan = make_plan(planners, tables)
    batched = make_engine(positions, alive)
    oracle = make_engine(positions, alive)

    moves = cma_phases.lcm(batched, plan)
    ref_moves, ref_passes = ref.lcm(oracle, plan)

    assert np.array_equal(batched.state.positions, oracle.state.positions)
    assert np.array_equal(
        batched.state.distance_travelled, oracle.state.distance_travelled
    )
    assert moves == ref_moves
    counters = batched.obs.metrics.snapshot()
    assert counters["lcm.moves"] == ref_moves
    assert counters["lcm.passes"] == ref_passes
    assert len(batched_calls) == len(oracle_calls)
    return moves, ref_passes, len(oracle_calls)


def test_chain_of_followers_in_one_pass(monkeypatch):
    """Node 0 has moved away: 1 follows it, then 2 follows 1, and so on.

    The first move is in the first row, and every later row needs the
    prescreen recomputed from the moves before it.
    """
    positions = [[5.0, 30.0], [30.0, 30.0], [39.0, 30.0], [48.0, 30.0],
                 [57.0, 30.0]]
    tables = [[1], [0, 2], [1, 3], [2, 4], [3]]
    moves, passes, _ = assert_matches_oracle(
        monkeypatch, positions, [True] * 5, range(5), tables
    )
    assert (moves, passes) == (4, 2)


def test_follower_at_exactly_rc_goes_to_the_scalar_check(monkeypatch):
    """d² = Rc² is not surely linked; lcm_adjustment keeps it in place."""
    positions = [[20.0, 20.0], [26.0, 28.0], [23.0, 24.0]]
    moves, passes, calls = assert_matches_oracle(
        monkeypatch, positions, [True] * 3, [0, 1], [[1, 2], [0]]
    )
    assert (moves, passes, calls) == (0, 1, 2)


def test_dead_planners_and_followers_are_skipped(monkeypatch):
    positions = [[5.0, 5.0], [40.0, 40.0], [5.0, 55.0], [55.0, 5.0]]
    alive = [True, False, True, False]
    tables = [[1, 2, 3], [0], [0, 3], [0, 2]]
    moves, passes, calls = assert_matches_oracle(
        monkeypatch, positions, alive, range(4), tables
    )
    # Only the live pair (0, 2), 50 m apart, is checked: 2 follows 0
    # onto its Rc circle, where each later check of the pair is a tie
    # the prescreen leaves to lcm_adjustment.
    assert (moves, passes, calls) == (1, 2, 4)


def test_several_moves_in_one_row_and_pass(monkeypatch):
    positions = [[30.0, 30.0], [30.0, 45.0], [45.0, 30.0], [15.0, 30.0],
                 [50.0, 50.0], [10.0, 10.0]]
    tables = [[1, 2, 3], [0, 4], [0], [0, 5], [1], [3]]
    moves, passes, _ = assert_matches_oracle(
        monkeypatch, positions, [True] * 6, range(6), tables
    )
    assert moves >= 4
    assert passes == 2


coordinate = st.one_of(
    st.integers(0, 60).map(float), st.floats(0.0, 60.0, allow_nan=False)
)


@st.composite
def fleets(draw):
    n = draw(st.integers(1, 10))
    positions = [[draw(coordinate), draw(coordinate)] for _ in range(n)]
    alive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    planners = draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=n,
                             unique=True).map(sorted))
    tables = []
    for p in planners:
        others = [j for j in range(n) if j != p]
        tables.append(
            draw(st.lists(st.sampled_from(others), unique=True).map(sorted))
            if others else []
        )
    return positions, alive, planners, tables


@settings(max_examples=100, deadline=None)
@given(fleets())
def test_matches_per_planner_loop(fleet):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_matches_oracle(monkeypatch, *fleet)
