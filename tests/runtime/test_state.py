"""Tests for the serializable WorldState."""

import numpy as np
import pytest

from repro.runtime import WorldState


def make_state(k=4, **overrides):
    kwargs = dict(
        round_index=3,
        t=603.0,
        positions=np.arange(2 * k, dtype=float).reshape(k, 2),
        alive=[True] * k,
        curvature=np.linspace(0.0, 1.0, k),
        distance_travelled=np.zeros(k),
        died_at=np.full(k, np.nan),
        curvature_scale=0.5,
        rng_states={"sensor": {"state": 12345678901234567890}},
        arrays={"targets": np.ones((k, 2))},
        aux={"fired": [602.0]},
    )
    kwargs.update(overrides)
    return WorldState(**kwargs)


class TestCoercion:
    def test_dtypes_and_shapes_normalised(self):
        state = WorldState(
            round_index=np.int64(2),
            t=np.float64(601.0),
            positions=[[0, 0], [1, 1]],
            alive=[1, 0],
            curvature=[0, 1],
            distance_travelled=[0, 0],
            died_at=[np.nan, 600.5],
        )
        assert isinstance(state.round_index, int)
        assert isinstance(state.t, float)
        assert state.positions.dtype == float
        assert state.positions.shape == (2, 2)
        assert state.alive.dtype == bool
        assert state.k == 2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            make_state(alive=[True] * 3)


class TestFleetLiveness:
    """Moves and the crash/death rule, kept by WorldState alone."""

    def test_move_accumulates_distance(self):
        fleet = WorldState.initial([[0.0, 0.0]], t=600.0)
        assert fleet.move(0, np.array([3.0, 4.0])) == 5.0
        fleet.move(0, np.array([3.0, 10.0]))
        assert fleet.distance_travelled[0] == 11.0
        assert np.array_equal(fleet.positions[0], [3.0, 10.0])

    def test_kill_idempotent(self):
        fleet = WorldState.initial(np.zeros((2, 2)), t=600.0)
        fleet.kill(1, 5.0)
        fleet.kill(1, 9.0)
        assert not fleet.alive[1]
        assert fleet.died_at[1] == 5.0
        assert fleet.alive[0] and np.isnan(fleet.died_at[0])

    def test_crash_is_recoverable(self):
        fleet = WorldState.initial(np.zeros((2, 2)), t=600.0)
        fleet.crash(0)
        assert not fleet.alive[0]
        assert np.isnan(fleet.died_at[0])
        fleet.recover(0)
        assert fleet.alive[0]

    def test_recover_never_revives_the_dead(self):
        fleet = WorldState.initial(np.zeros((3, 2)), t=600.0)
        fleet.crash([0, 1])
        fleet.kill(0, 601.0)  # a crashed node can still die for good
        fleet.kill(2, 602.0)
        fleet.recover([0, 1, 2])
        assert fleet.alive.tolist() == [False, True, False]
        assert fleet.died_at[0] == 601.0
        assert fleet.dead.tolist() == [True, False, True]

    def test_position_coerced(self):
        fleet = WorldState.initial([[1, 2]], t=600)
        assert fleet.positions.dtype == float
        assert fleet.positions.shape == (1, 2)

    def test_initial_copies_positions(self):
        init = np.array([[1.0, 2.0]])
        fleet = WorldState.initial(init, t=600.0)
        fleet.move(0, [5.0, 5.0])
        assert np.array_equal(init, [[1.0, 2.0]])


class TestCopy:
    def test_copy_is_independent(self):
        state = make_state()
        dup = state.copy()
        dup.positions[0, 0] = 99.0
        dup.arrays["targets"][0, 0] = 99.0
        dup.rng_states["sensor"]["state"] = 0
        dup.aux["fired"].append(700.0)
        assert state.positions[0, 0] == 0.0
        assert state.arrays["targets"][0, 0] == 1.0
        assert state.rng_states["sensor"]["state"] == 12345678901234567890
        assert state.aux["fired"] == [602.0]

    def test_copy_allclose_to_original(self):
        state = make_state()
        assert state.copy().allclose(state)


class TestAllclose:
    def test_exact_by_default(self):
        a = make_state()
        b = make_state()
        b.positions[0, 0] += 1e-12
        assert not a.allclose(b)
        assert a.allclose(b, atol=1e-9)

    def test_nan_died_at_compares_equal(self):
        assert make_state().allclose(make_state())

    def test_differs_on_scalars(self):
        assert not make_state().allclose(make_state(round_index=4))
        assert not make_state().allclose(make_state(curvature_scale=None))

    def test_differs_on_extras(self):
        assert not make_state().allclose(make_state(arrays={}))
        assert not make_state().allclose(make_state(aux={"fired": []}))

    @pytest.mark.parametrize("field,mutate", [
        ("positions", lambda s: s.positions.__setitem__((1, 0), -1.0)),
        ("alive", lambda s: s.alive.__setitem__(2, False)),
        ("curvature", lambda s: s.curvature.__setitem__(0, 9.0)),
        ("distance_travelled",
         lambda s: s.distance_travelled.__setitem__(3, 1.0)),
        ("died_at", lambda s: s.died_at.__setitem__(1, 602.0)),
        ("t", lambda s: setattr(s, "t", 604.0)),
        ("round_index", lambda s: setattr(s, "round_index", 9)),
        ("curvature_scale", lambda s: setattr(s, "curvature_scale", 2.0)),
        ("rng_states",
         lambda s: s.rng_states["sensor"].__setitem__("state", 0)),
        ("arrays",
         lambda s: s.arrays["targets"].__setitem__((0, 0), 5.0)),
        ("aux", lambda s: s.aux["fired"].append(700.0)),
    ])
    def test_disagrees_on_each_individual_field(self, field, mutate):
        """Every field participates in the comparison on its own."""
        a = make_state()
        b = make_state()
        assert a.allclose(b)
        mutate(b)
        assert not a.allclose(b), f"allclose blind to {field}"


class TestCopyFieldIndependence:
    """A copy shares no mutable storage with its original, field by field."""

    @pytest.mark.parametrize("mutate", [
        lambda s: s.positions.__setitem__((0, 0), 99.0),
        lambda s: s.alive.__setitem__(0, False),
        lambda s: s.curvature.__setitem__(0, 99.0),
        lambda s: s.distance_travelled.__setitem__(0, 99.0),
        lambda s: s.died_at.__setitem__(0, 99.0),
        lambda s: s.rng_states["sensor"].__setitem__("state", 0),
        lambda s: s.arrays["targets"].__setitem__((0, 0), 99.0),
        lambda s: s.aux["fired"].append(700.0),
    ])
    def test_mutating_copy_leaves_original(self, mutate):
        state = make_state()
        dup = state.copy()
        mutate(dup)
        assert state.allclose(make_state())
        assert not state.allclose(dup)
