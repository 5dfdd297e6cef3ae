"""The networked exchange's per-round ``net`` event and ``net.*`` counters.

``tests/sim/test_exchange_table.py`` holds every round's counts equal to
the per-beacon oracle's; these pin a few hand-checkable rounds and the
engine-level contract: one ``net`` event per networked round, summing to
the counters, and an instrumented run equal to an uninstrumented one.
"""

import dataclasses
import json

import numpy as np

from repro.core.problem import OSTDProblem
from repro.fields.greenorbs import GreenOrbsLightField
from repro.obs import Instrumentation, use_instrumentation
from repro.runtime import CheckpointConfig
from repro.sim.engine import MobileSimulation
from repro.sim.netmodel import (
    BernoulliLink,
    GilbertElliottLink,
    NetworkModel,
    PerfectLink,
    RetryPolicy,
    UniformDelayModel,
)
from repro.sim.radio import Radio

RC = 10.0


class AlwaysLossLink(PerfectLink):
    """Every delivery attempt fails."""

    def delivered(self, sender=-1, receiver=-1, distance=0.0):
        return False


def line_positions(n, spacing=5.0):
    return np.array([[i * spacing, 0.0] for i in range(n)])


def run_exchange(net, positions, round_index=0):
    k = len(positions)
    return net.exchange(
        Radio(RC), positions, [float(i) for i in range(k)], None, round_index
    )


def net_events(obs):
    return [e.fields for e in obs.memory_events() if e.name == "net"]


class ScriptedLink(PerfectLink):
    """Fails the first ``failures`` attempts, then delivers."""

    def __init__(self, failures):
        super().__init__()
        self.failures = failures
        self.attempts = self.slots = 0

    def delivered(self, sender=-1, receiver=-1, distance=0.0):
        self.attempts += 1
        return self.attempts > self.failures

    def advance_slot(self, sender=-1, receiver=-1):
        self.slots += 1


class FirstAttemptLossLink(PerfectLink):
    """Every other attempt fails: each beacon's first try, never its retry."""

    def __init__(self):
        super().__init__()
        self.attempts = 0

    def delivered(self, sender=-1, receiver=-1, distance=0.0):
        self.attempts += 1
        return self.attempts % 2 == 0


class OneRoundDelay:
    """Holds every delivered beacon back exactly one round."""

    def sample(self):
        return 1


def faulty_network():
    return NetworkModel(
        link=GilbertElliottLink(p_fail=0.4, p_recover=0.3, loss_bad=0.9,
                                seed=5),
        delay=UniformDelayModel(2, seed=9),
        retry=RetryPolicy(max_retries=2),
        max_age=4,
    )


def assert_tables_equal(got, want):
    for f in dataclasses.fields(got):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), \
            f.name


class TestExchangeCounts:
    def test_attempt_delivery_returns_the_failed_attempts(self):
        # Up to three attempts; backoffs of 1 and 2 slots between them.
        for failures, returned, slots in [(0, 0, 0), (1, 1, 1), (2, 2, 3),
                                          (3, 3, 3), (5, 3, 3)]:
            link = ScriptedLink(failures)
            net = NetworkModel(link=link, retry=RetryPolicy(2))
            assert net._attempt_delivery(1, 0, 1.0) == returned
            assert (link.attempts, link.slots) == (min(failures + 1, 3), slots)
        assert NetworkModel(link=ScriptedLink(1))._attempt_delivery(
            1, 0, 1.0
        ) == 1

    def test_lost_beacons_count_every_drop_and_retry(self):
        net = NetworkModel(link=AlwaysLossLink(), retry=RetryPolicy(2))
        obs = Instrumentation.in_memory()
        with use_instrumentation(obs):
            run_exchange(net, line_positions(2))
        (event,) = net_events(obs)
        # Two directed pairs, three attempts each, both lost.
        assert event == {
            "round": 0, "sent": 2, "delivered": 0, "delayed": 0,
            "dropped": 6, "retries": 4, "lost": 2, "stale_served": 0,
            "expired": 0,
        }
        snapshot = obs.metrics.snapshot()
        assert snapshot["net.dropped"] == 6
        assert snapshot["net.retries"] == 4
        assert "net.delivered" not in snapshot  # zero counts add nothing

    def test_delayed_beacons_arrive_later_and_serve_stale(self):
        net = NetworkModel(delay=UniformDelayModel(1, seed=4), max_age=3)
        obs = Instrumentation.in_memory()
        pts = line_positions(3, spacing=6.0)  # two links, four pairs
        with use_instrumentation(obs):
            for rnd in range(4):
                run_exchange(net, pts, rnd)
        events = net_events(obs)
        assert [e["sent"] for e in events] == [4] * 4
        delivered = sum(e["delivered"] for e in events)
        in_flight = len(net.queue.state_dict())
        # Nothing is lost: every beacon sent has landed or is in flight.
        assert delivered + in_flight == 16
        assert sum(e["delayed"] for e in events) > 0
        assert sum(e["stale_served"] for e in events) > 0
        assert all(e["dropped"] == e["lost"] == 0 for e in events)

    def test_expiry_is_counted_in_the_evicting_round(self):
        net = NetworkModel(max_age=1)
        obs = Instrumentation.in_memory()
        far = np.array([[0.0, 0.0], [500.0, 0.0]])
        with use_instrumentation(obs):
            run_exchange(net, line_positions(2), 0)
            # Out of range: the round-0 entries are served stale once,
            # then age out at round 2.
            run_exchange(net, far, 1)
            run_exchange(net, far, 2)
        events = net_events(obs)
        assert [e["expired"] for e in events] == [0, 0, 2]
        assert [e["stale_served"] for e in events] == [0, 2, 0]
        assert [e["sent"] for e in events] == [2, 0, 0]

    def test_perfect_network_delivers_every_beacon_fresh(self):
        net = NetworkModel()
        obs = Instrumentation.in_memory()
        with use_instrumentation(obs):
            # Only neighbours along the line are in range: six pairs.
            table = run_exchange(net, line_positions(4, spacing=6.0))
        (event,) = net_events(obs)
        assert event == {
            "round": 0, "sent": 6, "delivered": 6, "delayed": 0,
            "dropped": 0, "retries": 0, "lost": 0, "stale_served": 0,
            "expired": 0,
        }
        assert table.counts.tolist() == [1, 2, 2, 1]
        assert all(o.staleness == 0 for inbox in table for o in inbox)

    def test_retried_beacons_count_retries_but_no_loss(self):
        net = NetworkModel(link=FirstAttemptLossLink(), retry=RetryPolicy(1))
        obs = Instrumentation.in_memory()
        with use_instrumentation(obs):
            table = run_exchange(net, line_positions(2))
        (event,) = net_events(obs)
        assert (event["sent"], event["dropped"], event["retries"],
                event["lost"], event["delivered"]) == (2, 2, 2, 0, 2)
        assert table.counts.tolist() == [1, 1]

    def test_dead_nodes_neither_send_nor_hear(self):
        # Spacing 4 puts nodes one and two places apart in range.
        pts = line_positions(4, spacing=4.0)
        alive = np.array([True, False, True, True])
        net = NetworkModel()
        obs = Instrumentation.in_memory()
        with use_instrumentation(obs):
            table = net.exchange(Radio(RC), pts, [0.0] * 4, alive, 0)
        (event,) = net_events(obs)
        # Live pairs 0-2 and 2-3, both directions.
        assert (event["sent"], event["delivered"]) == (4, 4)
        assert table.counts.tolist() == [1, 0, 2, 1]
        assert all(o.node_id != 1 for inbox in table for o in inbox)

    def test_late_beacon_for_a_dead_receiver_is_not_delivered(self):
        net = NetworkModel(delay=OneRoundDelay(), max_age=2)
        obs = Instrumentation.in_memory()
        pts = line_positions(2)
        with use_instrumentation(obs):
            run_exchange(net, pts, 0)
            table = net.exchange(
                Radio(RC), pts, [0.0, 1.0], np.array([True, False]), 1
            )
        first, second = net_events(obs)
        assert (first["sent"], first["delayed"], first["delivered"]) == \
            (2, 2, 0)
        # Node 1 died before its beacon landed; node 0 hears a
        # one-round-old beacon from it.
        assert (second["sent"], second["delivered"],
                second["stale_served"]) == (0, 1, 1)
        assert table.counts.tolist() == [1, 0]
        assert [(o.node_id, o.staleness) for o in table[0]] == [(1, 1)]

    def test_stale_served_counts_the_tables_stale_rows(self):
        net = faulty_network()
        obs = Instrumentation.in_memory()
        stale = []
        with use_instrumentation(obs):
            for rnd in range(10):
                table = run_exchange(net, line_positions(6), rnd)
                stale.append(
                    sum(o.staleness > 0 for inbox in table for o in inbox)
                )
        assert [e["stale_served"] for e in net_events(obs)] == stale
        assert sum(stale) > 0, "fault injection served nothing stale"

    def test_counting_does_not_perturb_the_exchange(self):
        plain, counted = faulty_network(), faulty_network()
        obs = Instrumentation.in_memory()
        for rnd in range(8):
            want = run_exchange(plain, line_positions(6), rnd)
            with use_instrumentation(obs):
                got = run_exchange(counted, line_positions(6), rnd)
            assert_tables_equal(got, want)
        assert len(net_events(obs)) == 8
        assert plain.state_dict() == counted.state_dict()

    def test_uninstrumented_exchange_emits_nothing(self):
        net = NetworkModel(link=BernoulliLink(0.5, seed=3), max_age=2)
        obs = Instrumentation.in_memory()
        run_exchange(net, line_positions(3), 0)
        assert obs.memory_events() == []
        assert obs.metrics.snapshot() == {}


def make_problem(k, duration):
    field = GreenOrbsLightField(side=40.0, seed=7, freeze_sun_at=600.0)
    return OSTDProblem(
        k=k, rc=12.0, rs=6.0, region=field.region, field=field,
        speed=1.0, t0=600.0, duration=duration,
    )


def networked_sim(obs=None):
    network = NetworkModel(
        BernoulliLink(0.3, seed=3),
        delay=UniformDelayModel(2, seed=5),
        retry=RetryPolicy(max_retries=1),
        max_age=3,
    )
    sim = MobileSimulation(
        make_problem(8, 4.0), resolution=21, network=network, obs=obs
    )
    tables = []
    exchange = network.exchange

    def recording(*args):
        tables.append(exchange(*args))
        return tables[-1]

    network.exchange = recording
    return sim, tables


class TestEngineCounts:
    def test_one_net_event_per_round_summing_to_the_counters(self):
        obs = Instrumentation.in_memory()
        sim, _ = networked_sim(obs)
        sim.run()
        events = net_events(obs)
        assert [e["round"] for e in events] == [0, 1, 2, 3]
        snapshot = obs.metrics.snapshot()
        assert snapshot["net.sent"] > 0
        for name in events[0]:
            if name != "round":
                total = sum(e[name] for e in events)
                assert snapshot.get("net." + name, 0) == total, name

    def test_instrumented_run_equals_uninstrumented(self):
        plain, plain_tables = networked_sim()
        counted, counted_tables = networked_sim(Instrumentation.in_memory())
        a, b = plain.run(), counted.run()
        for ra, rb in zip(a.rounds, b.rounds, strict=True):
            for f in dataclasses.fields(ra):
                assert np.array_equal(
                    getattr(ra, f.name), getattr(rb, f.name), equal_nan=True
                ), f.name
        assert json.dumps(plain.network.state_dict(), default=str) == \
            json.dumps(counted.network.state_dict(), default=str)
        assert len(plain_tables) == len(counted_tables) == 4
        for ta, tb in zip(plain_tables, counted_tables):
            for f in dataclasses.fields(ta):
                assert np.array_equal(getattr(ta, f.name), getattr(tb, f.name))

    def test_resumed_run_counts_like_an_uninterrupted_one(self, tmp_path):
        whole = Instrumentation.in_memory()
        networked_sim(whole)[0].run()
        networked_sim()[0].run(2, checkpoint=CheckpointConfig(tmp_path, 2))
        resumed = Instrumentation.in_memory()
        networked_sim(resumed)[0].run(
            checkpoint=CheckpointConfig(tmp_path, 2, resume=True)
        )
        assert [e["round"] for e in net_events(resumed)] == [2, 3]
        assert net_events(resumed) == net_events(whole)[2:]

    def test_plain_radio_runs_emit_no_net_events(self):
        obs = Instrumentation.in_memory()
        MobileSimulation(make_problem(6, 2.0), resolution=21, obs=obs).run()
        assert net_events(obs) == []

    def test_disabled_engine_obs_counts_nothing_in_an_enabled_scope(self):
        # The round runs under the engine's own (disabled) instrumentation,
        # not the one the caller installed.
        outer = Instrumentation.in_memory()
        sim, _ = networked_sim(Instrumentation.disabled())
        with use_instrumentation(outer):
            sim.run()
        assert net_events(outer) == []
        assert outer.metrics.snapshot() == {}

    def test_span_events_carry_round_context(self):
        obs = Instrumentation.in_memory()
        with use_instrumentation(obs):
            MobileSimulation(make_problem(6, 2.0), resolution=21).run()
        spans = [e for e in obs.memory_events() if e.name == "span"]
        assert spans, "instrumented run emitted no spans"
        assert {e.fields.get("round") for e in spans} == {0, 1}
