"""The fleet planner against the per-node oracle, bit for bit.

``cma_reference`` keeps the planner as it ran one node at a time. For any
fleet, every row of :func:`repro.core.cma.estimate_own_curvature`,
:func:`repro.core.cma.plan_move` and
:func:`repro.runtime.cma_phases.clip_move` must be
``np.array_equal`` to the oracle's answer for that node alone.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cma_reference as ref
from exchange_reference import records_table
from repro.core.cma import (
    CMAParams,
    NeighborObservation,
    estimate_own_curvature,
    plan_move,
)
from repro.geometry.primitives import BoundingBox
from repro.runtime.cma_phases import clip_move
from repro.surfaces.quadric import QuadricFitMode

SIDE = 60.0
REGION = BoundingBox.square(SIDE)
RC = 10.0

#: Coordinates on the walls, in the border-force band (Rc/2, 2.5·Rc] of
#: each wall, on its edges, and beyond it.
SPECIAL = (0.0, 4.0, 5.0, 5.0 + 1e-9, 6.0, 24.9, 25.0, 25.0 + 1e-9, 30.0,
           35.0, 54.0, 55.0, 59.0, SIDE)


def make_sensing(rng, center, m, zero_curvature, signed):
    pts = np.asarray(center) + rng.integers(-5, 6, size=(m, 2))
    values = rng.normal(0.0, 50.0, m) + 0.3 * pts[:, 0] * pts[:, 1]
    if zero_curvature:
        curv = np.zeros(m)
    elif signed:
        curv = rng.normal(0.0, 2.0, m)
    else:
        curv = rng.exponential(1.0, m)
    return ref.LocalSensing(positions=pts.astype(float), values=values,
                            curvatures=curv)


@st.composite
def fleets(draw):
    """Params, positions, sensings, inboxes and alive mask of a fleet."""
    n = draw(st.integers(1, 7))
    params = CMAParams(
        rc=RC,
        quadric_mode=draw(st.sampled_from(list(QuadricFitMode))),
        signed_curvature=draw(st.booleans()),
        normalize_curvature=draw(st.booleans()),
        max_beacon_age=draw(st.sampled_from([None, 0, 1, 3])),
        stale_weight_decay=draw(st.sampled_from([0.0, 0.5, 1.0])),
        step_gain=draw(st.sampled_from([0.05, 1.0, 10.0])),
        speed=draw(st.sampled_from([1.0, 4.0])),
        stop_threshold=draw(st.sampled_from([0.0, 0.2])),
    )
    coordinate = st.one_of(
        st.floats(0.0, SIDE, allow_nan=False), st.sampled_from(SPECIAL)
    )
    positions = np.array(
        [[draw(coordinate), draw(coordinate)] for _ in range(n)]
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sensings = [
        make_sensing(
            rng, positions[i],
            draw(st.sampled_from([0, 1, 2, 3, 5, 6, 7, 12, 40])),
            draw(st.booleans()), params.signed_curvature,
        )
        for i in range(n)
    ]
    inboxes = []
    for i in range(n):
        inbox = []
        for _ in range(draw(st.integers(0, 6))):
            j = draw(st.integers(0, n - 1))
            kind = draw(st.sampled_from(["node", "coincident", "far", "any"]))
            if kind == "node":
                where = positions[j]
            elif kind == "coincident":
                where = positions[i]
            elif kind == "far":
                angle = draw(st.floats(0.0, 2 * np.pi))
                reach = RC + draw(st.floats(0.0, 20.0))
                where = positions[i] + reach * np.array(
                    [np.cos(angle), np.sin(angle)]
                )
            else:
                where = np.array([draw(coordinate), draw(coordinate)])
            inbox.append(NeighborObservation(
                node_id=j,
                position=np.array(where, dtype=float),
                curvature=draw(st.floats(-3.0, 5.0)),
                staleness=draw(st.integers(0, 6)),
            ))
        inboxes.append(inbox)
    alive = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return params, positions, sensings, inboxes, alive


def assert_matches_oracle(params, positions, sensings, inboxes, alive,
                          region=REGION):
    n = len(positions)
    pos = np.asarray(positions, dtype=float).reshape(n, 2)
    sensing = ref.pack(sensings)

    own = estimate_own_curvature(sensing, pos, params)
    ref_own = [ref.estimate_own_curvature(s, p, params)
               for s, p in zip(sensings, pos)]
    assert np.array_equal(own, ref_own)
    # The sense phase normalises the whole fleet in one clip.
    scale, thr, cap = 0.37, 1.0, 3.0
    assert np.array_equal(
        np.clip(own / scale - thr, 0.0, cap),
        [float(np.clip(g / scale - thr, 0.0, cap)) for g in ref_own],
    )

    plan = plan_move(np.arange(n), pos, sensing,
                     records_table(inboxes).usable(params), params, region)
    refs = [
        ref.plan_move(i, pos[i], sensings[i], inboxes[i], params, region,
                      own_curvature=ref_own[i])
        for i in range(n)
    ]
    assert np.array_equal(plan.origins, [r.origin for r in refs])
    assert np.array_equal(plan.destinations, [r.destination for r in refs])
    assert np.array_equal(plan.magnitudes,
                          [r.breakdown.magnitude for r in refs])
    for name in ("f1", "f2", "fr", "fb", "fs"):
        assert np.array_equal(
            getattr(plan.breakdown, name),
            [getattr(r.breakdown, name) for r in refs],
        ), name
    assert plan.moved.tolist() == [r.moved for r in refs]
    id_lists = plan.neighbors.id_lists()
    assert id_lists == [[o.node_id for o in r.neighbor_table] for r in refs]

    # Constrain-move runs in node order on live rows that earlier movers
    # wrote; both sides apply their own answers.
    live, ref_live = pos.copy(), pos.copy()
    for i, r in enumerate(refs):
        if not r.moved:
            continue
        got = clip_move(
            live, alive, i, plan.destinations[i], id_lists[i], params.rc
        )
        want = ref.constrain_move(ref_live, alive, r, params.rc)
        assert np.array_equal(got, want)
        live[i], ref_live[i] = got, want
    return plan


@given(fleets())
def test_fleet_matches_per_node_oracle(fleet):
    assert_matches_oracle(*fleet)


def _inbox(*records):
    return [NeighborObservation(j, np.array(p, dtype=float), c, a)
            for j, p, c, a in records]


def _sensings(positions, m, zero_curvature=False, signed=False, seed=0):
    rng = np.random.default_rng(seed)
    return [make_sensing(rng, p, m, zero_curvature, signed)
            for p in positions]


class TestEdgeCases:
    """Named fleets for the cases the property test must not miss."""

    def test_k1_no_neighbours(self):
        for m in (0, 40):
            pos = np.array([[30.0, 30.0]])
            plan = assert_matches_oracle(
                CMAParams(rc=RC), pos, _sensings(pos, m), [[]], np.ones(1, bool)
            )
            assert plan.neighbors.ids.shape == (1, 0)

    def test_coincident_neighbour(self):
        pos = np.array([[30.0, 30.0], [30.0, 30.0], [33.0, 30.0]])
        inboxes = [
            _inbox((1, pos[1], 1.0, 0), (2, pos[2], 0.5, 0)),
            _inbox((0, pos[0], 1.0, 0), (2, pos[2], 0.5, 0)),
            _inbox((0, pos[0], 1.0, 0), (1, pos[1], 1.0, 0)),
        ]
        plan = assert_matches_oracle(
            CMAParams(rc=RC), pos, _sensings(pos, 40), inboxes,
            np.ones(3, bool),
        )
        assert plan.breakdown.fr[0, 0] > 0.0

    def test_stale_records_beyond_rc_and_age(self):
        pos = np.array([[30.0, 30.0], [45.0, 30.0], [30.0, 52.0]])
        inboxes = [
            _inbox((1, pos[1], 2.0, 2), (2, pos[2], 2.0, 5)),
            _inbox((0, pos[0], 1.0, 4)),
            _inbox((0, pos[0], 1.0, 0), (1, [31.0, 31.0], 1.0, 1)),
        ]
        for max_age in (None, 0, 3):
            assert_matches_oracle(
                CMAParams(rc=RC, max_beacon_age=max_age), pos,
                _sensings(pos, 12), inboxes, np.array([True, False, True]),
            )

    @pytest.mark.parametrize("where", [
        (15.0, 30.0), (45.0, 30.0), (30.0, 15.0), (30.0, 45.0),
        (15.0, 15.0), (45.0, 15.0), (15.0, 45.0), (45.0, 45.0),
        (0.0, 0.0), (SIDE, SIDE), (5.0, 30.0), (25.0, 30.0),
    ])
    def test_wall_bands_and_corners(self, where):
        pos = np.array([where, [30.0, 30.0]])
        inboxes = [_inbox((1, pos[1], 1.0, 0)), _inbox((0, pos[0], 3.0, 0))]
        assert_matches_oracle(
            CMAParams(rc=RC), pos, _sensings(pos, 7), inboxes,
            np.ones(2, bool),
        )

    @pytest.mark.parametrize("m", [0, 2, 3, 5, 6])
    def test_few_samples(self, m):
        pos = np.array([[20.0, 20.0], [26.0, 20.0]])
        inboxes = [_inbox((1, pos[1], 1.0, 0)), _inbox((0, pos[0], 1.0, 0))]
        for mode in QuadricFitMode:
            assert_matches_oracle(
                CMAParams(rc=RC, quadric_mode=mode), pos, _sensings(pos, m),
                inboxes, np.ones(2, bool),
            )

    def test_all_zero_curvatures(self):
        pos = np.array([[20.0, 20.0], [26.0, 20.0]])
        inboxes = [_inbox((1, pos[1], 0.0, 0)), _inbox((0, pos[0], 0.0, 0))]
        plan = assert_matches_oracle(
            CMAParams(rc=RC), pos, _sensings(pos, 40, zero_curvature=True),
            inboxes, np.ones(2, bool),
        )
        assert not plan.breakdown.f1.any()

    def test_paper_mode_signed_unnormalised(self):
        pos = np.array([[20.0, 20.0], [26.0, 24.0], [14.0, 18.0]])
        inboxes = [
            _inbox((1, pos[1], -1.0, 0), (2, pos[2], 2.0, 1)),
            _inbox((0, pos[0], 0.5, 0)),
            _inbox((0, pos[0], 0.5, 0)),
        ]
        assert_matches_oracle(
            CMAParams(rc=RC, quadric_mode=QuadricFitMode.PAPER,
                      signed_curvature=True, normalize_curvature=False),
            pos, _sensings(pos, 40, signed=True), inboxes, np.ones(3, bool),
        )

    def test_empty_fleet(self):
        plan = plan_move(
            np.empty(0, dtype=int), np.empty((0, 2)), ref.pack([]),
            records_table([]).usable(CMAParams()), CMAParams(), REGION,
        )
        assert plan.destinations.shape == (0, 2)
        assert plan.moved.shape == (0,)
