"""Tests for the mobile-simulation round loop."""

import itertools

import numpy as np
import pytest

from repro.core.cma import CMAParams
from repro.core.problem import OSTDProblem
from repro.fields.greenorbs import GreenOrbsLightField
from repro.obs import Instrumentation, use_instrumentation
from repro.runtime import cma_phases
from repro.sim.centralized import CentralizedSimulation
from repro.sim.engine import MobileSimulation, SimulationResult
from repro.sim.netmodel import MessageLossModel, NodeFailureSchedule
from repro.sim.recorders import (
    ConnectivityRecorder,
    DeltaRecorder,
    TrajectoryRecorder,
)
from repro.sim.sensing import TraceSampler
from repro.surfaces.reconstruction import reconstruct_surface


def make_problem(k=25, duration=4.0, side=50.0, seed=7):
    field = GreenOrbsLightField(side=side, seed=seed, freeze_sun_at=600.0)
    return OSTDProblem(
        k=k, rc=10.0, rs=5.0, region=field.region, field=field,
        speed=1.0, t0=600.0, duration=duration,
    )


def make_sim(problem=None, **kwargs):
    problem = problem or make_problem()
    kwargs.setdefault("resolution", 51)
    return MobileSimulation(problem, **kwargs)


class TestSetup:
    def test_default_grid_init_with_slack(self):
        sim = make_sim()
        pts = sim.positions
        assert pts.shape == (25, 2)
        # 10% shrink: outermost lattice points pulled toward the centre.
        assert pts[:, 0].min() > 0.0
        assert pts[:, 0].max() < 50.0

    def test_custom_init_size_checked(self):
        with pytest.raises(ValueError):
            make_sim(initial_positions=np.zeros((3, 2)))

    def test_params_radii_must_match(self):
        with pytest.raises(ValueError):
            make_sim(params=CMAParams(rc=99.0, rs=5.0))


class TestRounds:
    def test_time_advances(self):
        sim = make_sim()
        r0 = sim.step()
        r1 = sim.step()
        assert r0.t == 600.0
        assert r1.t == 601.0
        assert r1.round_index == 1

    def test_run_collects_all_rounds(self):
        result = make_sim().run()
        assert len(result.rounds) == 4
        assert result.times.tolist() == [600.0, 601.0, 602.0, 603.0]
        assert result.deltas.shape == (4,)
        assert result.final_positions.shape == (25, 2)

    def test_run_validation(self):
        with pytest.raises(ValueError):
            make_sim().run(n_rounds=0)

    def test_deterministic(self):
        a = make_sim().run()
        b = make_sim().run()
        assert np.allclose(a.deltas, b.deltas)
        assert np.allclose(a.final_positions, b.final_positions)

    def test_speed_cap_per_round(self):
        problem = make_problem(duration=3.0)
        sim = make_sim(problem)
        prev = sim.positions.copy()
        rec = sim.step()
        moved = np.linalg.norm(sim.positions - prev, axis=1)
        # CMA step is capped at v*dt; LCM followers can add up to about the
        # same again, so 2x is a safe envelope.
        assert (moved <= 2.0 * problem.speed * problem.dt + 1e-6).all()

    def test_positions_stay_in_region(self):
        result = make_sim().run()
        for record in result.rounds:
            assert (record.positions >= 0.0).all()
            assert (record.positions <= 50.0).all()


class TestConnectivity:
    def test_stays_connected(self):
        result = make_sim().run()
        assert result.always_connected

    def test_components_tracked(self):
        result = make_sim().run()
        assert all(r.n_components >= 1 for r in result.rounds)


class TestFailures:
    def test_node_death_reduces_alive(self):
        schedule = NodeFailureSchedule(at={601.0: [0, 1, 2]})
        sim = make_sim(failure_schedule=schedule)
        r0 = sim.step()
        assert r0.n_alive == 25
        r1 = sim.step()
        assert r1.n_alive == 22

    def test_message_loss_still_runs(self):
        sim = make_sim(message_loss=MessageLossModel(0.3, seed=1))
        result = sim.run()
        assert len(result.rounds) == 4
        assert np.isfinite(result.deltas).all()


class TestTraceSampling:
    def test_trace_sample_count_recorded(self):
        sim = make_sim(trace_sampler=TraceSampler(samples_per_move=2))
        record = sim.step()
        # Each node that actually travelled contributes 2 path samples
        # (plan-movers may be clipped to zero; LCM followers add paths).
        assert record.n_trace_samples > 0
        assert record.n_trace_samples % 2 == 0

    def test_extra_samples_help_or_match(self):
        base = make_sim().run()
        traced = make_sim(trace_sampler=TraceSampler(samples_per_move=3)).run()
        # Extra samples can only help the reconstruction on average.
        assert traced.deltas.mean() <= base.deltas.mean() * 1.02


class TestEnergyBudget:
    def test_nodes_die_when_budget_spent(self):
        sim = make_sim(make_problem(duration=6.0), energy_budget=1.5)
        sim.run()
        spent = sim.state.distance_travelled
        # Whoever died must have spent at least the budget.
        assert (spent[~sim.state.alive] >= 1.5).all()
        # A tight budget kills at least the most active nodes in 6 rounds.
        assert spent.max() >= 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            make_sim(energy_budget=0.0)

    def test_no_budget_no_deaths(self):
        sim = make_sim(make_problem(duration=4.0))
        sim.run()
        assert sim.state.alive.all()


class TestRecorders:
    def test_recorders_receive_rounds(self):
        delta_rec = DeltaRecorder()
        traj_rec = TrajectoryRecorder()
        conn_rec = ConnectivityRecorder()
        sim = make_sim(recorders=[delta_rec, traj_rec, conn_rec])
        result = sim.run()
        assert len(delta_rec.deltas) == 4
        assert np.allclose(delta_rec.series()[:, 1], result.deltas)
        assert len(traj_rec.positions) == 4
        assert conn_rec.always_connected == result.always_connected
        assert traj_rec.displacement().shape == (3,)


class TestDeadFleet:
    def test_fully_dead_fleet_is_not_connected(self):
        # Regression: a dead fleet used to report connected=True, so
        # always_connected claimed the run never partitioned.
        schedule = NodeFailureSchedule(at={600.0: list(range(25))})
        sim = make_sim(failure_schedule=schedule)
        record = sim.step()
        assert record.n_alive == 0
        assert record.connected is False
        assert record.n_components == 0
        assert np.isnan(record.delta)
        result = SimulationResult(rounds=[record])
        assert not result.always_connected

    def test_connectivity_recorder_sees_dead_fleet(self):
        schedule = NodeFailureSchedule(at={600.0: list(range(25))})
        conn_rec = ConnectivityRecorder()
        sim = make_sim(failure_schedule=schedule, recorders=[conn_rec])
        sim.step()
        assert conn_rec.always_connected is False


def measure_now(sim):
    """Run the measure phase on the engine's current, unmoved positions.

    Returns the sensed field snapshot and the round's record.
    """
    alive_ids = np.flatnonzero(sim.alive_mask).tolist()
    snapshot, _ = cma_phases.sense(sim, alive_ids)
    record = cma_phases.measure(sim, snapshot, [], [], 0, 0, np.empty(0))
    return snapshot, record


def expected_delta(sim, snapshot, keep):
    pts = sim.positions[keep]
    values = sim.problem.field.sample(sim.positions, sim.t)[keep]
    return reconstruct_surface(snapshot, pts, values=values).delta


class TestMeasureDegenerateInputs:
    """The measurement mesh is rebuilt from scratch every round; these
    pin what that build does with positions LCM and clamping produce."""

    def test_bitwise_duplicate_positions(self):
        # Two nodes clamped onto the same region corner.
        sim = make_sim()
        region = sim.problem.region
        sim.state.positions[:2] = [region.xmin, region.ymin]
        snapshot, measured = measure_now(sim)
        assert np.isfinite(measured.delta)
        keep = np.ones(25, dtype=bool)
        keep[1] = False  # node 0's sample stands for the corner
        assert measured.delta == expected_delta(sim, snapshot, keep)

    def test_near_duplicate_within_dedup_tol(self):
        sim = make_sim()
        sim.state.positions[1] = sim.state.positions[0] + [1e-10, 0.0]
        snapshot, measured = measure_now(sim)
        assert np.isfinite(measured.delta)
        keep = np.ones(25, dtype=bool)
        keep[1] = False  # the later sample collapses onto the first
        assert measured.delta == expected_delta(sim, snapshot, keep)

    def test_nodes_on_region_edge(self):
        sim = make_sim()
        r = sim.problem.region
        edge = [(r.xmin, r.ymin), (r.xmax, r.ymin), (r.xmax, r.ymax),
                (r.xmin, r.ymax), (r.xmin, 25.0), (r.xmax, 25.0),
                (25.0, r.ymin), (25.0, r.ymax)]
        sim.state.positions[:len(edge)] = edge
        snapshot, measured = measure_now(sim)
        assert np.isfinite(measured.delta)
        assert measured.delta == expected_delta(
            sim, snapshot, np.ones(25, dtype=bool)
        )
        record = sim.step()
        assert np.isfinite(record.delta)
        for x, y in record.positions:
            assert r.xmin <= x <= r.xmax and r.ymin <= y <= r.ymax


class TestFleetStateAliasing:
    """Moves write rows of ``sim.state`` in place, so nothing the engine
    takes in or hands out may share memory with it."""

    def test_caller_initial_positions_untouched(self):
        init = make_sim().positions
        before = init.copy()
        sim = make_sim(initial_positions=init)
        sim.run()
        assert not np.array_equal(sim.state.positions, before)  # it moved
        assert np.array_equal(init, before)
        assert not np.shares_memory(sim.positions, sim.state.positions)
        assert not np.shares_memory(sim.alive_mask, sim.state.alive)

    def test_round_records_own_their_positions(self):
        sim = make_sim()
        records = sim.run().rounds
        for a, b in itertools.combinations(records, 2):
            assert not np.shares_memory(a.positions, b.positions)
        last = sim.step()
        kept = last.positions.copy()
        sim.state.positions += 1.0
        assert np.array_equal(last.positions, kept)

    def test_restored_engines_share_nothing(self):
        source = make_sim()
        source.step()
        captured = source.capture_state()
        assert not np.shares_memory(captured.positions, source.state.positions)
        pristine = captured.copy()
        stepped, idle = make_sim(), make_sim()
        stepped.restore_state(captured)
        idle.restore_state(captured)
        idle_before = idle.capture_state()
        stepped.step()
        stepped.step()
        assert not stepped.capture_state().allclose(idle_before)
        assert idle.capture_state().allclose(idle_before)
        assert captured.allclose(pristine)


class TestSmallFleets:
    """k=1 has no neighbours and no mesh beyond one sample; both engines
    still score every round."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_mobile(self, k):
        sim = make_sim(make_problem(k=k, duration=3.0))
        rounds = sim.run().rounds
        assert len(rounds) == 3
        assert all(np.isfinite(r.delta) for r in rounds)
        if k == 1:
            assert all(r.connected is True for r in rounds)
            assert all(r.n_components == 1 for r in rounds)

    @pytest.mark.parametrize("k", [1, 2])
    def test_centralized(self, k):
        sim = CentralizedSimulation(
            make_problem(k=k, duration=3.0), resolution=51
        )
        rounds = sim.run().rounds
        assert len(rounds) == 3
        assert all(np.isfinite(r.delta) for r in rounds)


class TestSenseCalibration:
    def test_no_samples_in_round_zero_falls_back_to_unit_scale(self):
        # Regression: with every node at a half-cell offset and Rs
        # smaller than half a cell, no node senses a sample in round 0,
        # and the calibration raised on an empty concatenate.
        field = GreenOrbsLightField(seed=7, freeze_sun_at=600.0)
        problem = OSTDProblem(
            k=9, rc=10.0, rs=0.3, region=field.region, field=field,
            speed=1.0, t0=600.0, duration=2.0,
        )
        grid = np.array(
            [[40.5 + 5 * i, 40.5 + 5 * j] for i in range(3) for j in range(3)]
        )
        sim = MobileSimulation(
            problem, params=CMAParams(rs=0.3), resolution=101,
            initial_positions=grid,
        )
        rounds = sim.run().rounds
        assert len(rounds) == 2
        assert sim.state.curvature_scale == 1.0
        assert all(np.isfinite(r.delta) for r in rounds)


class TestInstrumentation:
    def test_sense_sub_spans_nest_under_sense(self):
        obs = Instrumentation.in_memory()
        make_sim(obs=obs).step()
        paths = [e.fields["path"] for e in obs.memory_events()
                 if e.name == "span"]
        assert paths[:3] == ["step/sense/read", "step/sense/fit",
                             "step/sense"]
        assert paths.count("step/sense/read") == 1
        assert paths.count("step/sense/fit") == 1

    def test_traced_run_matches_untraced(self):
        untraced = make_sim()
        traced = make_sim(obs=Instrumentation.in_memory())
        for _ in range(3):
            a, b = untraced.step(), traced.step()
            assert np.array_equal(a.positions, b.positions)
            assert a.delta == b.delta
            assert a.mean_force == b.mean_force
        assert np.array_equal(untraced.state.curvature, traced.state.curvature)
        assert np.array_equal(untraced.state.distance_travelled,
                              traced.state.distance_travelled)

    def test_step_emits_phase_spans_and_round_event(self):
        obs = Instrumentation.in_memory()
        sim = make_sim(obs=obs)
        record = sim.step()
        names = [e.name for e in obs.memory_events()]
        assert names.count("round") == 1
        spans = [e for e in obs.memory_events() if e.name == "span"]
        paths = {e.fields["path"] for e in spans}
        for phase in ("sense", "exchange", "plan", "constrain_move",
                      "lcm", "measure"):
            assert f"step/{phase}" in paths
        assert "step" in paths
        # Round event carries the record's measurements.
        (round_event,) = [e for e in obs.memory_events() if e.name == "round"]
        assert round_event.fields["delta"] == record.delta
        assert round_event.fields["n_moved"] == record.n_moved
        assert obs.metrics.counter("round.moves").value == record.n_moved

    def test_ambient_instrumentation_picked_up(self):
        obs = Instrumentation.in_memory()
        with use_instrumentation(obs):
            sim = make_sim()
        assert sim.obs is obs
        sim.step()
        assert any(e.name == "round" for e in obs.memory_events())

    def test_disabled_by_default_and_deterministic(self):
        sim = make_sim()
        assert sim.obs.enabled is False
        baseline = make_sim().run()
        instrumented = make_sim(obs=Instrumentation.in_memory()).run()
        assert np.allclose(baseline.deltas, instrumented.deltas)


class TestConvergence:
    def test_converged_after_none_for_short_runs(self):
        result = make_sim(make_problem(duration=2.0)).run()
        # Too short to conclude anything; just check the API contract.
        out = result.converged_after(10.0)  # huge tolerance: converged at once
        assert out is None or out >= 600.0

    @staticmethod
    def _result_from_moves(moves, t0=600.0):
        """Hand-built SimulationResult: one node moving `moves[i]` metres
        between rounds i and i+1, rounds stamped t0, t0+1, ..."""
        from repro.sim.engine import RoundRecord

        x = 0.0
        positions = [np.array([[x, 0.0]])]
        for d in moves:
            x += d
            positions.append(np.array([[x, 0.0]]))
        return SimulationResult(rounds=[
            RoundRecord(
                round_index=i, t=t0 + i, positions=p, delta=0.0, rmse=0.0,
                connected=True, n_components=1, n_alive=1, n_moved=0,
                n_lcm_moves=0, mean_force=0.0,
            )
            for i, p in enumerate(positions)
        ])

    def test_converged_after_hand_built(self):
        # Settles after the move between rounds 1 and 2 (the last move
        # above tolerance): converged from round 2's *end*, i.e. t=602...
        # pinned exactly: the round after the last over-tolerance move
        # completes is rounds[3] (t=603).
        result = self._result_from_moves([1.0, 0.8, 0.02, 0.03, 0.01])
        assert result.converged_after(0.05) == 603.0

    def test_converged_after_immediately(self):
        # Every move under tolerance: converged from the first recorded
        # post-move round.
        result = self._result_from_moves([0.01, 0.02, 0.01])
        assert result.converged_after(0.05) == 601.0

    def test_converged_after_never(self):
        # The final move is still above tolerance: no settling claim.
        result = self._result_from_moves([0.01, 0.01, 1.0])
        assert result.converged_after(0.05) is None

    def test_converged_after_too_few_rounds(self):
        assert self._result_from_moves([]).converged_after(0.05) is None
        assert SimulationResult(rounds=[]).converged_after(0.05) is None

    def test_converged_after_matches_forward_reference(self):
        # Property: the single reverse pass equals the quadratic forward
        # definition "first round from which every later move is under
        # tolerance" on random trajectories.
        rng = np.random.default_rng(42)
        for _ in range(50):
            n_moves = int(rng.integers(1, 12))
            moves = rng.choice([0.0, 0.02, 0.04, 0.06, 0.5], size=n_moves)
            result = self._result_from_moves(list(moves))
            tol = 0.05
            expect = None
            for i in range(1, len(result.rounds)):
                if all(m <= tol for m in moves[i - 1:]):
                    expect = result.rounds[i].t
                    break
            assert result.converged_after(tol) == expect, list(moves)
