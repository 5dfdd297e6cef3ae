"""The packed beacon exchange against the per-record oracle.

:meth:`Radio.exchange` and :meth:`NetworkModel.exchange` return one
:class:`~repro.core.cma.NeighborTable` for the whole fleet.
``exchange_reference`` keeps the exchange as it ran one
:class:`~repro.core.cma.NeighborObservation` per beacon, and ``pack``,
which laid those inboxes out for the planner. Over several rounds of
moving, dying fleets, every table must be ``np.array_equal`` to
``pack(oracle inboxes)``, the planner's view of it equal to the packed
alive inboxes, the per-node records equal to the oracle's, and every
RNG stream, queue and cache where the oracle leaves them. Each
instrumented network round's ``net`` event must hold the counts of the
oracle's narration, and the uninstrumented exchange the same table.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exchange_reference as ref
from repro.core.cma import CMAParams
from repro.obs.instrument import Instrumentation, use_instrumentation
from repro.sim.netmodel import (
    BernoulliLink,
    DistanceLossLink,
    GilbertElliottLink,
    MessageLossModel,
    NetworkModel,
    PerfectLink,
    RetryPolicy,
    UniformDelayModel,
)
from repro.sim.radio import Radio

RC = 10.0
SIDE = 30.0
FIELDS = ("ids", "positions", "curvatures", "staleness", "counts")

#: The exchange's raw records: nothing dropped, nothing decayed.
RAW = CMAParams(max_beacon_age=None, stale_weight_decay=1.0)


def assert_tables_equal(got, want):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def records(inboxes):
    return [
        [(o.node_id, o.position.tolist(), o.curvature, o.staleness)
         for o in inbox]
        for inbox in inboxes
    ]


def link_factory(kind, seed):
    if kind == "perfect":
        return lambda: PerfectLink()
    if kind == "bernoulli":
        return lambda: BernoulliLink(0.35, seed=seed)
    if kind == "gilbert":
        return lambda: GilbertElliottLink(
            p_fail=0.3, p_recover=0.4, loss_good=0.1, loss_bad=0.8, seed=seed
        )
    return lambda: DistanceLossLink(RC, edge_loss=0.6, gamma=1.5, seed=seed)


@st.composite
def rounds(draw):
    """Positions, curvatures and alive masks of a few rounds of a fleet."""
    n = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(draw(st.integers(1, 4))):
        pts = rng.uniform(0.0, SIDE, size=(n, 2))
        # Integer points sit exactly Rc apart now and then.
        snap = rng.random(n) < 0.3
        pts[snap] = rng.integers(0, 4, size=(int(snap.sum()), 2)) * 5.0
        curv = rng.normal(0.0, 2.0, n)
        alive = rng.random(n) < 0.8
        out.append((pts, curv, alive))
    return out


@st.composite
def planner_params(draw):
    return CMAParams(
        rc=RC,
        max_beacon_age=draw(st.sampled_from([None, 0, 1, 2, 4])),
        stale_weight_decay=draw(st.sampled_from([0.0, 0.37, 0.5, 1.0])),
    )


NET_COUNTS = ("sent", "delivered", "delayed", "dropped", "retries", "lost",
              "stale_served", "expired")


class Tally:
    """Counts the oracle's narration as the ``net`` event must report it."""

    def __init__(self):
        self.counts = dict.fromkeys(NET_COUNTS, 0)

    def _add(self, name):
        self.counts[name] += 1

    def send(self, sender, receiver):
        self._add("sent")

    def drop(self, sender, receiver):
        self._add("dropped")

    def retry(self, sender, receiver):
        self._add("retries")

    def lost(self, sender, receiver):
        self._add("lost")

    def delay(self, sender, receiver):
        self._add("delayed")

    def deliver(self, sender, receiver):
        self._add("delivered")

    def use(self, sender, receiver, staleness):
        if staleness > 0:
            self._add("stale_served")

    def expire(self, sender, receiver):
        self._add("expired")


def dumped(net):
    return json.dumps(net.state_dict(), default=str)


def check_round(table, inboxes, alive, params):
    assert_tables_equal(table, ref.pack(inboxes, RAW))
    alive_ids = np.flatnonzero(alive).tolist()
    assert_tables_equal(
        table.rows(alive_ids).usable(params),
        ref.pack([inboxes[i] for i in alive_ids], params),
    )
    assert records(table) == records(inboxes)


@settings(max_examples=150, deadline=None)
@given(rounds(), st.sampled_from([None, 0.0, 0.3]), st.integers(0, 99),
       planner_params())
def test_radio_matches_oracle(fleet, loss, seed, params):
    def build():
        return Radio(RC, None if loss is None else MessageLossModel(loss, seed))

    radio, twin = build(), build()
    for pts, curv, alive in fleet:
        table = radio.exchange(pts, curv, alive=alive)
        inboxes = ref.radio_inboxes(twin, pts, curv, alive=alive)
        check_round(table, inboxes, alive, params)
        if loss is not None:
            assert radio.loss.rng_state == twin.loss.rng_state


@settings(max_examples=200, deadline=None)
@given(
    rounds(),
    st.sampled_from(["perfect", "bernoulli", "gilbert", "distance"]),
    st.sampled_from([None, 0, 1, 2]),
    st.sampled_from([None, (0, 1), (1, 0), (2, 1)]),
    st.integers(0, 4),
    st.integers(0, 99),
    planner_params(),
)
def test_network_matches_oracle(fleet, link, max_delay, retry, max_age,
                                seed, params):
    make_link = link_factory(link, seed)

    def build():
        return NetworkModel(
            make_link(),
            delay=None if max_delay is None
            else UniformDelayModel(max_delay, seed=seed + 1),
            retry=None if retry is None else RetryPolicy(*retry),
            max_age=max_age,
        )

    net, twin, plain = build(), build(), build()
    obs = Instrumentation.in_memory()
    totals = dict.fromkeys(NET_COUNTS, 0)
    for r, (pts, curv, alive) in enumerate(fleet):
        with use_instrumentation(obs):
            table = net.exchange(Radio(RC), pts, curv, alive, r)
        tally = Tally()
        inboxes = ref.network_inboxes(
            twin, Radio(RC), pts, curv, alive, r, narrator=tally
        )
        check_round(table, inboxes, alive, params)
        assert dumped(net) == dumped(twin)
        (event,) = obs.bus.sinks[0].events[r:]
        assert event.name == "net"
        assert event.fields == {"round": r, **tally.counts}
        assert_tables_equal(
            plain.exchange(Radio(RC), pts, curv, alive, r), table
        )
        assert dumped(plain) == dumped(net)
        for name, value in tally.counts.items():
            totals[name] += value
    snapshot = obs.metrics.snapshot()
    assert {
        name: snapshot.get("net." + name, 0) for name in NET_COUNTS
    } == totals
    assert not any(
        name.startswith("net.") and value == 0
        for name, value in snapshot.items()
    )


class _DistanceSpy(DistanceLossLink):
    """A distance link that records the distance of every attempt."""

    def __init__(self):
        super().__init__(RC, edge_loss=0.5, seed=3)
        self.seen = []

    def delivered(self, sender=-1, receiver=-1, distance=0.0):
        self.seen.append(distance)
        return super().delivered(sender, receiver, distance)


def test_pair_distances_are_bitwise_the_scalar_ones():
    """The vectorised pair lengths are the per-pair ``np.hypot`` values.

    A Bernoulli link ignores distance, so the fault digests cannot see
    this; the spy compares every attempt's distance by its bits.
    """
    rng = np.random.default_rng(17)
    pts = rng.uniform(0.0, 60.0, size=(400, 2))
    pts[:50] = np.round(pts[:50])
    curv = rng.normal(size=400)
    net, twin = NetworkModel(_DistanceSpy()), NetworkModel(_DistanceSpy())
    net.exchange(Radio(RC), pts, curv, None, 0)
    ref.network_inboxes(twin, Radio(RC), pts, curv, None, 0)
    assert len(net.link.seen) > 1000
    got = np.array(net.link.seen)
    want = np.array(twin.link.seen)
    assert got.tobytes() == want.tobytes()
    assert all(type(d) is float for d in net.link.seen)


def test_vector_loss_draws_match_scalar_draws():
    loss, twin = MessageLossModel(0.3, seed=5), MessageLossModel(0.3, seed=5)
    got = loss.delivered_many(1001)
    assert got.tolist() == [twin.delivered() for _ in range(1001)]
    assert loss.rng_state == twin.rng_state


def test_zero_loss_draws_nothing():
    loss = MessageLossModel(0.0, seed=5)
    before = json.dumps(loss.rng_state)
    assert loss.delivered_many(50).all()
    assert json.dumps(loss.rng_state) == before


@pytest.mark.parametrize("network", [
    None,
    NetworkModel(BernoulliLink(0.3, seed=1), delay=UniformDelayModel(1),
                 retry=RetryPolicy(1), max_age=2),
])
def test_round_path_builds_no_records(monkeypatch, network):
    """Exchange, plan and LCM hand arrays over; records exist on demand."""
    import repro.core.cma as cma
    from repro.core.problem import OSTDProblem
    from repro.fields.greenorbs import GreenOrbsLightField
    from repro.sim.engine import MobileSimulation

    def refuse(*args, **kwargs):
        raise AssertionError("a NeighborObservation was built")

    monkeypatch.setattr(cma, "NeighborObservation", refuse)
    field = GreenOrbsLightField(side=40.0, seed=3, freeze_sun_at=600.0)
    problem = OSTDProblem(
        k=16, rc=10.0, rs=5.0, region=field.region, field=field,
        speed=1.0, t0=600.0, duration=3.0,
    )
    result = MobileSimulation(
        problem, resolution=41, network=network
    ).run(3)
    assert len(result.deltas) == 3
