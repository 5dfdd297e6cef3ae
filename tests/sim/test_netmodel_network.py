"""Unit tests for the NetworkModel pipeline, delay queue and churn models."""

import json

import numpy as np
import pytest

from repro.sim.netmodel import (
    BernoulliLink,
    CrashSchedule,
    EnergyDepletionModel,
    GilbertElliottLink,
    NetworkModel,
    PerfectLink,
    RandomChurn,
    RetryPolicy,
    UniformDelayModel,
)
from repro.runtime.state import WorldState
from repro.sim.netmodel.delay import BeaconDelayQueue, PendingBeacon
from repro.sim.radio import Radio

RC = 10.0


def line_positions(n, spacing=5.0):
    """n nodes on a line, each hearing its immediate neighbours."""
    return np.array([[i * spacing, 0.0] for i in range(n)])


def make_network(**kwargs):
    kwargs.setdefault("link", PerfectLink())
    return NetworkModel(**kwargs)


def run_exchange(net, positions, round_index=0, alive=None, curvatures=None):
    radio = Radio(RC)
    k = len(positions)
    curvs = curvatures if curvatures is not None else [float(i) for i in range(k)]
    return net.exchange(radio, positions, curvs, alive, round_index)


class TestPerfectEquivalence:
    def test_matches_plain_radio(self):
        """PerfectLink + no delay + max_age 0 == the legacy radio exchange."""
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 30, size=(12, 2))
        curvs = rng.uniform(0, 4, size=12).tolist()
        alive = np.ones(12, dtype=bool)
        alive[3] = False

        baseline = Radio(RC).exchange(pts, curvs, alive=alive)
        heard = make_network().exchange(Radio(RC), pts, curvs, alive, 0)
        assert len(heard) == len(baseline)
        for got, exp in zip(heard, baseline):
            assert [o.node_id for o in got] == [o.node_id for o in exp]
            assert [o.curvature for o in got] == [o.curvature for o in exp]
            assert all(o.staleness == 0 for o in got)
            for g, e in zip(got, exp):
                assert np.array_equal(g.position, e.position)


class TestDelay:
    def test_delayed_beacon_arrives_late_with_staleness(self):
        net = make_network(
            delay=UniformDelayModel(0), max_age=3
        )
        # Force a deterministic 2-round delay by pushing directly.
        net.queue.push(PendingBeacon(
            deliver_round=2, receiver=0, sender=1,
            x=5.0, y=0.0, curvature=1.5, sent_round=0,
        ))
        pts = np.array([[0.0, 0.0], [100.0, 100.0]])  # out of range now
        assert run_exchange(net, pts, round_index=1)[0] == []
        inbox = run_exchange(net, pts, round_index=2)[0]
        assert [o.node_id for o in inbox] == [1]
        assert inbox[0].staleness == 2
        assert inbox[0].curvature == 1.5
        assert np.array_equal(inbox[0].position, [5.0, 0.0])

    def test_fresh_beacon_beats_stale_cache_entry(self):
        net = make_network(max_age=4)
        pts = line_positions(2)
        run_exchange(net, pts, round_index=0, curvatures=[0.0, 1.0])
        inbox = run_exchange(net, pts, round_index=1, curvatures=[0.0, 9.0])[0]
        assert [o.curvature for o in inbox] == [9.0]
        assert inbox[0].staleness == 0

    def test_cache_entries_evicted_past_max_age(self):
        net = make_network(max_age=2)
        pts = line_positions(2)
        run_exchange(net, pts, round_index=0)
        # Move node 1 out of range; the cached state ages out at age 3.
        far = np.array([[0.0, 0.0], [100.0, 0.0]])
        assert [o.staleness for o in run_exchange(net, far, 1)[0]] == [1]
        assert [o.staleness for o in run_exchange(net, far, 2)[0]] == [2]
        assert run_exchange(net, far, 3)[0] == []

    def test_dead_receiver_hears_nothing(self):
        net = make_network(max_age=3)
        pts = line_positions(3)
        run_exchange(net, pts, round_index=0)
        alive = np.array([True, False, True])
        heard = run_exchange(net, pts, round_index=1, alive=alive)
        assert heard[1] == []

    def test_zero_max_delay_consumes_no_rng(self):
        model = UniformDelayModel(0, seed=4)
        before = json.dumps(model.state_dict(), default=str)
        assert all(model.sample() == 0 for _ in range(50))
        assert json.dumps(model.state_dict(), default=str) == before

    def test_samples_within_bound(self):
        model = UniformDelayModel(3, seed=4)
        draws = {model.sample() for _ in range(300)}
        assert draws == {0, 1, 2, 3}

    def test_queue_round_trips_through_json(self):
        queue = BeaconDelayQueue()
        queue.push(PendingBeacon(5, 0, 1, 1.0, 2.0, 3.0, 4))
        queue.push(PendingBeacon(4, 1, 0, 0.5, 0.5, 0.1, 3))
        restored = BeaconDelayQueue()
        restored.load_state_dict(json.loads(json.dumps(queue.state_dict())))
        assert restored.state_dict() == queue.state_dict()
        assert [b.receiver for b in restored.pop_due(4)] == [1]
        assert len(restored) == 1


class TestRetry:
    def test_backoff_slots_double(self):
        policy = RetryPolicy(max_retries=3, backoff_base=2)
        assert [policy.backoff_slots(a) for a in range(3)] == [2, 4, 8]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1)

    @staticmethod
    def _link_starting_bad():
        """A channel whose bursts deterministically end after one slot.

        Both directed links start in the bad state; the first attempt in
        a round is always lost, and any idle/transmission slot after it
        recovers the link for good (p_fail = 0).
        """
        link = GilbertElliottLink(
            p_fail=0.0, p_recover=1.0, loss_good=0.0, loss_bad=1.0, seed=0
        )
        link.load_state_dict(
            {"rng": link.rng_state, "bad": {"0,1": 1, "1,0": 1}}
        )
        return link

    def test_retries_recover_bursty_losses(self):
        """One backoff slot outlives the burst, so the retry goes through."""
        net = NetworkModel(
            self._link_starting_bad(), retry=RetryPolicy(max_retries=1)
        )
        heard = run_exchange(net, line_positions(2), round_index=0)
        assert [o.node_id for o in heard[0]] == [1]
        assert [o.node_id for o in heard[1]] == [0]

    def test_no_retry_drops_bursty_losses(self):
        net = NetworkModel(self._link_starting_bad())
        pts = line_positions(2)
        # Round 0 hits the burst and (max_age=0) nothing is heard; the
        # lost attempt itself ends the burst, so round 1 goes through.
        assert list(run_exchange(net, pts, round_index=0)) == [[], []]
        heard = run_exchange(net, pts, round_index=1)
        assert [o.node_id for o in heard[0]] == [1]


class TestNetworkState:
    def test_state_round_trips_mid_run(self):
        """Snapshot after round r, restore, replay — identical inboxes."""
        def build():
            return NetworkModel(
                BernoulliLink(0.4, seed=3),
                delay=UniformDelayModel(2, seed=5),
                retry=RetryPolicy(max_retries=1),
                max_age=3,
            )

        rng = np.random.default_rng(11)
        pts = [rng.uniform(0, 25, size=(8, 2)) for _ in range(6)]
        reference = build()
        for r in range(3):
            run_exchange(reference, pts[r], round_index=r)
        snapshot = json.loads(json.dumps(reference.state_dict(), default=str))

        restored = build()
        restored.load_state_dict(snapshot)
        for r in range(3, 6):
            a = run_exchange(reference, pts[r], round_index=r)
            b = run_exchange(restored, pts[r], round_index=r)
            for inbox_a, inbox_b in zip(a, b):
                assert [(o.node_id, o.staleness, o.curvature) for o in inbox_a] \
                    == [(o.node_id, o.staleness, o.curvature) for o in inbox_b]

    def test_reset_clears_queue_and_cache(self):
        net = make_network(delay=UniformDelayModel(2, seed=1), max_age=3)
        pts = line_positions(3)
        for r in range(3):
            run_exchange(net, pts, round_index=r)
        net.reset()
        assert net.state_dict()["queue"] == []
        assert net.state_dict()["cache"] == {}

    def test_rejects_negative_max_age(self):
        with pytest.raises(ValueError):
            NetworkModel(max_age=-1)


class TestEngineBitIdentity:
    """A disabled-fault NetworkModel must not perturb the engine at all."""

    @staticmethod
    def run_engine(**kwargs):
        from repro.core.problem import OSTDProblem
        from repro.fields.greenorbs import GreenOrbsLightField
        from repro.sim.engine import MobileSimulation

        field = GreenOrbsLightField(side=40.0, seed=3, freeze_sun_at=600.0)
        problem = OSTDProblem(
            k=16, rc=10.0, rs=5.0, region=field.region, field=field,
            speed=1.0, t0=600.0, duration=6.0,
        )
        return MobileSimulation(problem, resolution=41, **kwargs).run(6)

    def test_perfect_network_matches_plain_engine(self):
        plain = self.run_engine()
        netted = self.run_engine(
            network=NetworkModel(PerfectLink(), max_age=0)
        )
        assert np.array_equal(netted.deltas, plain.deltas)
        assert np.array_equal(netted.rmses, plain.rmses)
        assert np.array_equal(netted.final_positions, plain.final_positions)

    def test_zero_intensity_models_match_plain_engine(self):
        """p=0 loss and 0-round delay consume no RNG: still bit-identical."""
        plain = self.run_engine()
        netted = self.run_engine(
            network=NetworkModel(
                BernoulliLink(0.0, seed=1),
                delay=UniformDelayModel(0, seed=2),
                retry=RetryPolicy(max_retries=2),
                max_age=0,
            )
        )
        assert np.array_equal(netted.deltas, plain.deltas)
        assert np.array_equal(netted.final_positions, plain.final_positions)

    def test_network_plus_message_loss_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            from repro.sim.netmodel import MessageLossModel

            self.run_engine(
                network=NetworkModel(PerfectLink()),
                message_loss=MessageLossModel(0.1),
            )


def make_fleet(n):
    return WorldState.initial([[float(i), 0.0] for i in range(n)], t=600.0)


class TestCrashSchedule:
    def test_crash_then_recover(self):
        fleet = make_fleet(3)
        sched = CrashSchedule(at={602.0: {1: 2}})
        sched.step(601.0, 0, fleet)
        assert fleet.alive[1]
        sched.step(602.0, 1, fleet)
        assert not fleet.alive[1] and np.isnan(fleet.died_at[1])
        sched.step(603.0, 2, fleet)
        assert not fleet.alive[1]
        sched.step(604.0, 3, fleet)
        assert fleet.alive[1]

    def test_dead_nodes_never_revived(self):
        fleet = make_fleet(2)
        sched = CrashSchedule(at={602.0: {1: 1}})
        sched.step(602.0, 0, fleet)
        fleet.kill(1, 602.5)  # dies for good while crashed
        sched.step(603.0, 1, fleet)
        assert not fleet.alive[1]

    def test_state_round_trip_keeps_pending_recovery(self):
        fleet = make_fleet(2)
        sched = CrashSchedule(at={602.0: {1: 2}})
        sched.step(602.0, 0, fleet)
        state = json.loads(json.dumps(sched.state_dict()))

        restored = CrashSchedule(at={602.0: {1: 2}})
        restored.load_state_dict(state)
        restored.step(603.0, 1, fleet)   # not due yet
        assert not fleet.alive[1]
        restored.step(604.0, 2, fleet)   # recovery round reached
        assert fleet.alive[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            CrashSchedule(at={600.0: {0: 0}})


class TestRandomChurn:
    def test_deterministic_given_seed(self):
        def liveness(seed):
            fleet = make_fleet(6)
            churn = RandomChurn(0.4, recover_prob=0.5, seed=seed)
            series = []
            for r in range(12):
                churn.step(600.0 + r, r, fleet)
                series.append(tuple(fleet.alive.tolist()))
            return series

        assert liveness(3) == liveness(3)
        assert liveness(3) != liveness(4)

    def test_crashes_are_transient(self):
        fleet = make_fleet(4)
        churn = RandomChurn(0.5, recover_prob=1.0, seed=0)
        crashed_at_some_point = False
        for r in range(20):
            churn.step(600.0 + r, r, fleet)
            crashed_at_some_point |= not fleet.alive.all()
            # recover_prob=1: a node down entering this round comes back
            # before the next one, and nobody ever dies permanently.
            assert not fleet.dead.any()
        assert crashed_at_some_point

    def test_zero_probability_consumes_no_rng(self):
        fleet = make_fleet(3)
        churn = RandomChurn(0.0, seed=7)
        before = json.dumps(churn.state_dict(), default=str)
        for r in range(10):
            churn.step(600.0 + r, r, fleet)
        assert json.dumps(churn.state_dict(), default=str) == before

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomChurn(1.0)
        with pytest.raises(ValueError):
            RandomChurn(0.1, recover_prob=0.0)


class TestEnergyDepletion:
    def test_movement_and_idle_drain(self):
        fleet = make_fleet(1)
        model = EnergyDepletionModel(capacity=10.0, move_cost=2.0, idle_cost=1.0)
        model.step(600.0, 0, fleet)
        assert model.remaining(0) == pytest.approx(9.0)
        fleet.distance_travelled[0] = 3.0
        model.step(601.0, 1, fleet)
        assert model.remaining(0) == pytest.approx(9.0 - 1.0 - 6.0)

    def test_kills_at_capacity(self):
        fleet = make_fleet(1)
        model = EnergyDepletionModel(capacity=2.5, idle_cost=1.0, move_cost=0.0)
        for r in range(3):
            model.step(600.0 + r, r, fleet)
        assert not fleet.alive[0]
        assert fleet.died_at[0] == 602.0

    def test_crashed_nodes_consume_nothing(self):
        fleet = make_fleet(1)
        fleet.crash(0)
        model = EnergyDepletionModel(capacity=5.0, idle_cost=1.0)
        for r in range(10):
            model.step(600.0 + r, r, fleet)
        fleet.recover(0)
        model.step(610.0, 10, fleet)
        assert model.remaining(0) == pytest.approx(4.0)

    def test_state_round_trip(self):
        fleet = make_fleet(2)
        model = EnergyDepletionModel(capacity=10.0, idle_cost=1.0)
        fleet.distance_travelled[0] = 2.0
        model.step(600.0, 0, fleet)
        restored = EnergyDepletionModel(capacity=10.0, idle_cost=1.0)
        restored.load_state_dict(json.loads(json.dumps(model.state_dict())))
        assert restored.remaining(0) == model.remaining(0)
        assert restored.remaining(1) == model.remaining(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyDepletionModel(capacity=0.0)
        with pytest.raises(ValueError):
            EnergyDepletionModel(capacity=1.0, move_cost=-1.0)
