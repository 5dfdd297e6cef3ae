"""Per-node beacon exchange: the test oracle for the packed exchange.

These are the inbox-at-a-time forms of :meth:`repro.sim.radio.Radio.exchange`
and :meth:`repro.sim.netmodel.network.NetworkModel.exchange`, as the
engine ran them when every delivered beacon became one
:class:`~repro.core.cma.NeighborObservation`, and :func:`pack`, which
laid those inboxes out as the planner's
:class:`~repro.core.cma.NeighborTable`. The packed exchange must agree
with ``pack(oracle inboxes)`` array for array, and leave every RNG
stream where the oracle leaves it (``tests/sim/test_exchange_table.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.cma import CMAParams, NeighborObservation, NeighborTable
from repro.sim.netmodel.delay import PendingBeacon


def pack(
    inboxes: Sequence[Sequence[NeighborObservation]],
    params: CMAParams,
) -> NeighborTable:
    """The usable records of each inbox, in inbox order, as a table.

    Records older than ``max_beacon_age`` are left out; the rest carry
    ``G · stale_weight_decay^a``, age-0 records untouched.
    """
    max_age = params.max_beacon_age
    decay = params.stale_weight_decay
    ids: List[int] = []
    positions: list = []
    curvatures: List[float] = []
    staleness: List[int] = []
    counts: List[int] = []
    for inbox in inboxes:
        kept = 0
        for obs in inbox:
            if max_age is not None and obs.staleness > max_age:
                continue
            ids.append(obs.node_id)
            positions.append(obs.position)
            curvatures.append(
                obs.curvature if obs.staleness == 0
                else obs.curvature * decay**obs.staleness
            )
            staleness.append(obs.staleness)
            kept += 1
        counts.append(kept)
    count_arr = np.asarray(counts, dtype=np.intp)
    width = int(count_arr.max()) if len(count_arr) else 0
    filled = np.arange(width) < count_arr[:, None]
    table = NeighborTable(
        ids=np.full(filled.shape, -1, dtype=np.intp),
        positions=np.zeros(filled.shape + (2,)),
        curvatures=np.zeros(filled.shape),
        staleness=np.zeros(filled.shape, dtype=np.intp),
        counts=count_arr,
    )
    table.ids[filled] = ids
    table.positions[filled] = np.asarray(positions, dtype=float).reshape(-1, 2)
    table.curvatures[filled] = curvatures
    table.staleness[filled] = staleness
    return table


def radio_inboxes(
    radio,
    positions: np.ndarray,
    curvatures: Sequence[float],
    alive: Optional[np.ndarray] = None,
) -> List[List[NeighborObservation]]:
    """The plain radio's exchange, one record and one loss draw per beacon."""
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    heard: List[List[NeighborObservation]] = []
    for nbrs in radio.neighbor_ids(pts, alive=alive):
        inbox: List[NeighborObservation] = []
        for j in nbrs:
            if radio.loss is not None and not radio.loss.delivered():
                continue
            inbox.append(
                NeighborObservation(
                    node_id=j,
                    position=pts[j].copy(),
                    curvature=float(curvatures[j]),
                )
            )
        heard.append(inbox)
    return heard


def network_inboxes(
    net,
    radio,
    positions: np.ndarray,
    curvatures: Sequence[float],
    alive: Optional[np.ndarray],
    round_index: int,
    tracer=None,
) -> List[List[NeighborObservation]]:
    """``net``'s exchange with a per-pair distance and per-record inboxes.

    Advances ``net``'s link and delay streams, queue and caches exactly
    as the packed exchange must.
    """
    if tracer is not None:
        tracer.begin_round(round_index)
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    n = len(pts)
    live = (
        np.ones(n, dtype=bool)
        if alive is None
        else np.asarray(alive, dtype=bool).reshape(n)
    )
    ids = radio.neighbor_ids(pts, alive=live)

    for beacon in net.queue.pop_due(round_index):
        if 0 <= beacon.receiver < n and live[beacon.receiver]:
            net._store(
                beacon.receiver, beacon.sender, beacon.x, beacon.y,
                beacon.curvature, beacon.sent_round,
            )
            if tracer is not None:
                tracer.deliver(beacon.sender, beacon.receiver, beacon.sent_round)

    for i in range(n):
        for j in ids[i]:
            dist = float(np.hypot(*(pts[j] - pts[i])))
            if tracer is not None:
                tracer.send(j, i)
            if not net._attempt_delivery(j, i, dist, tracer):
                continue
            lag = net.delay.sample() if net.delay is not None else 0
            if lag == 0:
                net._store(
                    i, j, pts[j, 0], pts[j, 1],
                    float(curvatures[j]), round_index,
                )
                if tracer is not None:
                    tracer.deliver(j, i, round_index)
            else:
                net.queue.push(PendingBeacon(
                    deliver_round=round_index + lag,
                    receiver=i, sender=j,
                    x=float(pts[j, 0]), y=float(pts[j, 1]),
                    curvature=float(curvatures[j]),
                    sent_round=round_index,
                ))
                if tracer is not None:
                    tracer.delay(j, i, deliver_round=round_index + lag)

    heard: List[List[NeighborObservation]] = []
    for i in range(n):
        inbox: List[NeighborObservation] = []
        cached = net._cache.get(str(i))
        if cached is None or not live[i]:
            heard.append(inbox)
            continue
        for key in sorted(cached, key=int):
            x, y, g, sent_round = cached[key]
            age = round_index - int(sent_round)
            if age > net.max_age:
                del cached[key]
                if tracer is not None:
                    tracer.expire(int(key), i, int(sent_round), age)
                continue
            if tracer is not None:
                tracer.use(int(key), i, int(sent_round), age)
            inbox.append(NeighborObservation(
                node_id=int(key),
                position=np.array([x, y], dtype=float),
                curvature=float(g),
                staleness=age,
            ))
        heard.append(inbox)
    return heard


def records_table(
    inboxes: Sequence[Sequence[NeighborObservation]],
) -> NeighborTable:
    """The inboxes' records, unfiltered, as the exchange hands them over."""
    flat = [obs for inbox in inboxes for obs in inbox]
    return NeighborTable.from_records(
        [len(inbox) for inbox in inboxes],
        [obs.node_id for obs in flat],
        np.reshape([obs.position for obs in flat], (-1, 2)),
        [obs.curvature for obs in flat],
        [obs.staleness for obs in flat],
    )
