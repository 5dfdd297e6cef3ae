"""Tests for causal message tracing: trace ids, MessageTracer, NetworkModel."""

import numpy as np
import pytest

from repro.core.cma import NeighborObservation
from repro.obs import Instrumentation, beacon_trace_id, observation_trace_id
from repro.obs.trace import MSG_EVENTS, MessageTracer
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
    """Every delivery attempt fails — forces the full retry narration."""

    def delivered(self, sender=-1, receiver=-1, distance=0.0):
        return False


def line_positions(n, spacing=5.0):
    return np.array([[i * spacing, 0.0] for i in range(n)])


def run_exchange(net, positions, round_index=0, tracer=None):
    k = len(positions)
    return net.exchange(
        Radio(RC), positions, [float(i) for i in range(k)], None,
        round_index, tracer=tracer,
    )


class TestTraceIds:
    def test_beacon_trace_id_format(self):
        assert beacon_trace_id(3, 1, 7) == "r3.n1>n7"

    def test_beacon_trace_id_coerces_numpy(self):
        assert beacon_trace_id(np.int64(2), np.int32(0), np.int64(5)) == "r2.n0>n5"

    def test_observation_trace_id_recovers_sent_round(self):
        obs = NeighborObservation(
            node_id=4, position=np.zeros(2), curvature=0.0, staleness=3
        )
        assert observation_trace_id(obs, receiver=9, round_index=10) == "r7.n4>n9"

    def test_fresh_observation_names_current_round(self):
        obs = NeighborObservation(
            node_id=1, position=np.zeros(2), curvature=0.0, staleness=0
        )
        assert observation_trace_id(obs, receiver=2, round_index=5) == "r5.n1>n2"


class TestMessageTracer:
    def _tracer(self):
        obs = Instrumentation.in_memory()
        return MessageTracer(obs), obs

    def test_send_emits_event_and_counter(self):
        tracer, obs = self._tracer()
        tracer.begin_round(2)
        tracer.send(1, 0)
        (event,) = obs.memory_events()
        assert event.name == "msg_send"
        assert event.fields["trace_id"] == "r2.n1>n0"
        assert event.fields["round"] == 2
        assert obs.metrics.snapshot()["net.sent"] == 1

    def test_deliver_reports_lag(self):
        tracer, obs = self._tracer()
        tracer.begin_round(5)
        tracer.deliver(0, 1, sent_round=3)
        (event,) = obs.memory_events()
        assert event.fields["trace_id"] == "r3.n0>n1"
        assert event.fields["lag"] == 2

    def test_use_counts_only_stale_serves(self):
        tracer, obs = self._tracer()
        tracer.begin_round(4)
        tracer.use(0, 1, sent_round=4, staleness=0)
        tracer.use(0, 1, sent_round=2, staleness=2)
        snap = obs.metrics.snapshot()
        assert snap["net.stale_served"] == 1

    def test_every_lifecycle_event_is_in_msg_events(self):
        tracer, obs = self._tracer()
        tracer.begin_round(0)
        tracer.send(0, 1)
        tracer.drop(0, 1, attempt=0)
        tracer.retry(0, 1, attempt=1, backoff_slots=1)
        tracer.lost(0, 1, attempts=3)
        tracer.delay(0, 1, deliver_round=2)
        tracer.deliver(0, 1, sent_round=0)
        tracer.use(0, 1, sent_round=0, staleness=0)
        tracer.expire(0, 1, sent_round=0, age=5)
        names = [e.name for e in obs.memory_events()]
        assert names == list(MSG_EVENTS)
        assert all(
            e.fields["trace_id"] == "r0.n0>n1" for e in obs.memory_events()
        )


def _faulty_network(seed=5):
    return NetworkModel(
        link=GilbertElliottLink(p_fail=0.4, p_recover=0.3, loss_bad=0.9,
                                seed=seed),
        delay=UniformDelayModel(2, seed=9),
        retry=RetryPolicy(max_retries=2),
        max_age=4,
    )


class TestNetworkModelTracing:
    def test_tracing_does_not_perturb_the_exchange(self):
        """Traced and untraced runs must be bit-identical: the tracer may
        not consume RNG draws or mutate caches."""
        pts = line_positions(6)
        plain = _faulty_network()
        traced = _faulty_network()
        obs = Instrumentation.in_memory()
        tracer = MessageTracer(obs)
        for rnd in range(8):
            heard_a = run_exchange(plain, pts, rnd)
            heard_b = run_exchange(traced, pts, rnd, tracer=tracer)
            for got, exp in zip(heard_b, heard_a):
                assert [o.node_id for o in got] == [o.node_id for o in exp]
                assert [o.staleness for o in got] == [o.staleness for o in exp]
                for g, e in zip(got, exp):
                    assert np.array_equal(g.position, e.position)
        assert plain.state_dict() == traced.state_dict()

    def test_stale_observation_chain_is_explainable(self):
        """Acceptance criterion: a stale NeighborObservation's provenance
        must be recoverable from the msg_* events alone."""
        pts = line_positions(6)
        net = _faulty_network()
        obs = Instrumentation.in_memory()
        tracer = MessageTracer(obs)
        stale = None
        for rnd in range(10):
            heard = run_exchange(net, pts, rnd, tracer=tracer)
            for receiver, inbox in enumerate(heard):
                for o in inbox:
                    if o.staleness > 0:
                        stale = (o, receiver, rnd)
            if stale is not None:
                break
        assert stale is not None, "fault injection produced no stale obs"
        o, receiver, rnd = stale
        trace_id = observation_trace_id(o, receiver, rnd)
        chain = [
            e.name for e in obs.memory_events()
            if e.fields.get("trace_id") == trace_id
        ]
        # The chain must start at emission, end in the cache serve that
        # produced the observation, and contain an arrival in between.
        assert chain[0] == "msg_send"
        assert chain[-1] == "msg_use"
        assert "msg_deliver" in chain or "msg_delay" in chain

    def test_lost_beacon_narrates_drops_and_retries(self):
        pts = line_positions(2)
        net = NetworkModel(
            link=AlwaysLossLink(),
            retry=RetryPolicy(max_retries=2),
        )
        obs = Instrumentation.in_memory()
        run_exchange(net, pts, 0, tracer=MessageTracer(obs))
        per_pair = [
            e.name for e in obs.memory_events()
            if e.fields.get("trace_id") == "r0.n1>n0"
        ]
        assert per_pair == [
            "msg_send",
            "msg_drop", "msg_retry", "msg_drop", "msg_retry", "msg_drop",
            "msg_lost",
        ]
        snap = obs.metrics.snapshot()
        assert snap["net.lost"] == 2  # both directions
        assert snap["net.retries"] == 4

    def test_expiry_is_traced(self):
        pts = line_positions(2)
        net = NetworkModel(max_age=1)
        obs = Instrumentation.in_memory()
        tracer = MessageTracer(obs)
        run_exchange(net, pts, 0, tracer=tracer)
        # Nodes move out of range; the cached entries age out at round 2.
        far = np.array([[0.0, 0.0], [500.0, 0.0]])
        run_exchange(net, far, 1, tracer=tracer)
        run_exchange(net, far, 2, tracer=tracer)
        expires = [
            e for e in obs.memory_events() if e.name == "msg_expire"
        ]
        assert len(expires) == 2
        assert all(e.fields["age"] == 2 for e in expires)
        assert all(
            e.fields["trace_id"].startswith("r0.") for e in expires
        )

    def test_no_tracer_emits_nothing(self):
        pts = line_positions(3)
        net = _faulty_network()
        obs = Instrumentation.in_memory()
        run_exchange(net, pts, 0, tracer=None)
        assert obs.memory_events() == []


class TestEngineIntegration:
    def test_instrumented_networked_run_logs_msg_events(self):
        from repro.core.problem import OSTDProblem
        from repro.fields.greenorbs import GreenOrbsLightField
        from repro.obs import use_instrumentation
        from repro.sim.engine import MobileSimulation

        field = GreenOrbsLightField(side=40.0, seed=7, freeze_sun_at=600.0)
        problem = OSTDProblem(
            k=8, rc=12.0, rs=6.0, region=field.region, field=field,
            speed=1.0, t0=600.0, duration=3.0,
        )
        obs = Instrumentation.in_memory()
        with use_instrumentation(obs):
            MobileSimulation(
                problem, resolution=21,
                network=NetworkModel(
                    link=BernoulliLink(probability=0.3, seed=3), max_age=3
                ),
            ).run()
        names = {e.name for e in obs.memory_events()}
        assert "msg_send" in names
        assert "msg_use" in names
        snapshot = obs.metrics.snapshot()
        assert snapshot["net.sent"] > 0

    def test_disabled_instrumentation_builds_no_tracer(self):
        from repro.core.problem import OSTDProblem
        from repro.fields.greenorbs import GreenOrbsLightField
        from repro.sim.engine import MobileSimulation

        field = GreenOrbsLightField(side=40.0, seed=7, freeze_sun_at=600.0)
        problem = OSTDProblem(
            k=6, rc=12.0, rs=6.0, region=field.region, field=field,
            speed=1.0, t0=600.0, duration=2.0,
        )
        sim = MobileSimulation(
            problem, resolution=21, obs=Instrumentation.disabled()
        )
        assert sim.message_tracer is None

    def test_span_events_carry_round_context(self):
        from repro.core.problem import OSTDProblem
        from repro.fields.greenorbs import GreenOrbsLightField
        from repro.obs import use_instrumentation
        from repro.sim.engine import MobileSimulation

        field = GreenOrbsLightField(side=40.0, seed=7, freeze_sun_at=600.0)
        problem = OSTDProblem(
            k=6, rc=12.0, rs=6.0, region=field.region, field=field,
            speed=1.0, t0=600.0, duration=2.0,
        )
        obs = Instrumentation.in_memory()
        with use_instrumentation(obs):
            MobileSimulation(problem, resolution=21).run()
        spans = [e for e in obs.memory_events() if e.name == "span"]
        assert spans, "instrumented run emitted no spans"
        rounds = {e.fields.get("round") for e in spans}
        assert rounds == {0, 1}
