"""Per-node beacon exchange: the test oracle for the packed exchange.

These are the inbox-at-a-time forms of :meth:`repro.sim.radio.Radio.exchange`
and :meth:`repro.sim.netmodel.network.NetworkModel.exchange`, as the
engine ran them when every delivered beacon became one
:class:`~repro.core.cma.NeighborObservation`, and :func:`pack`, which
laid those inboxes out as the planner's
:class:`~repro.core.cma.NeighborTable`. The packed exchange must agree
with ``pack(oracle inboxes)`` array for array, and leave every RNG
stream where the oracle leaves it (``tests/sim/test_exchange_table.py``).

The network oracle narrates each beacon's life to an optional
``narrator`` (send, drop, retry, lost, delay, deliver, use, expire),
one call per step, so a test can count what the exchange's per-round
``net`` event must report.
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
    narrator=None,
) -> List[List[NeighborObservation]]:
    """``net``'s exchange with a per-pair distance and per-record inboxes.

    Advances ``net``'s link and delay streams, queue and caches exactly
    as the packed exchange must.
    """
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
            if narrator is not None:
                narrator.deliver(beacon.sender, beacon.receiver)

    for i in range(n):
        for j in ids[i]:
            dist = float(np.hypot(*(pts[j] - pts[i])))
            if narrator is not None:
                narrator.send(j, i)
            if not _deliver(net, j, i, dist, narrator):
                continue
            lag = net.delay.sample() if net.delay is not None else 0
            if lag == 0:
                net._store(
                    i, j, pts[j, 0], pts[j, 1],
                    float(curvatures[j]), round_index,
                )
                if narrator is not None:
                    narrator.deliver(j, i)
            else:
                net.queue.push(PendingBeacon(
                    deliver_round=round_index + lag,
                    receiver=i, sender=j,
                    x=float(pts[j, 0]), y=float(pts[j, 1]),
                    curvature=float(curvatures[j]),
                    sent_round=round_index,
                ))
                if narrator is not None:
                    narrator.delay(j, i)

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
                if narrator is not None:
                    narrator.expire(int(key), i)
                continue
            if narrator is not None:
                narrator.use(int(key), i, age)
            inbox.append(NeighborObservation(
                node_id=int(key),
                position=np.array([x, y], dtype=float),
                curvature=float(g),
                staleness=age,
            ))
        heard.append(inbox)
    return heard


def _deliver(net, sender, receiver, dist, narrator) -> bool:
    """First attempt plus ``net.retry``'s backoff retries, narrated."""
    if net.link.delivered(sender, receiver, dist):
        return True
    if narrator is not None:
        narrator.drop(sender, receiver)
    max_retries = 0 if net.retry is None else net.retry.max_retries
    for attempt in range(max_retries):
        if narrator is not None:
            narrator.retry(sender, receiver)
        for _ in range(net.retry.backoff_slots(attempt)):
            net.link.advance_slot(sender, receiver)
        if net.link.delivered(sender, receiver, dist):
            return True
        if narrator is not None:
            narrator.drop(sender, receiver)
    if narrator is not None:
        narrator.lost(sender, receiver)
    return False


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
