"""The unreliable-network model: loss + latency + staleness + retries.

:class:`NetworkModel` replaces the perfect one-round beacon exchange
with a realistic pipeline, while keeping the engine round-synchronous
and bit-reproducible:

1. **Geometry** — who is in range comes from the
   :class:`~repro.sim.radio.Radio` unit disk, unchanged.
2. **Loss** — every directed delivery is one draw of the configured
   :class:`~repro.sim.netmodel.links.LinkModel` (i.i.d.,
   distance-dependent, or Gilbert–Elliott bursty).
3. **Retry/ack** — with a :class:`RetryPolicy`, a failed attempt is
   retransmitted up to ``max_retries`` times; between attempts the
   channel idles through an exponentially growing number of backoff
   slots (``backoff_base · 2^k``), which lets a bursty channel leave
   its bad state — the whole point of backing off.
4. **Delay** — a delivered beacon may arrive 1..d rounds late
   (:class:`~repro.sim.netmodel.delay.UniformDelayModel`), carrying the
   sender's *old* position and curvature.
5. **Graceful degradation** — each receiver keeps the last-known state
   per neighbour. A neighbour not heard this round is still usable from
   cache for up to ``max_age`` rounds; every observation is stamped
   with its ``staleness`` (rounds since it was sensed) so the planner
   can decay its weight (:meth:`repro.core.cma.NeighborTable.usable`)
   before the bound drops it entirely.
6. **Counts** — under enabled instrumentation each round adds its
   outcomes (sent, delivered, delayed, dropped, retries, lost,
   stale-served, expired) to the ``net.*`` counters and emits them as
   one ``net`` event, which ``repro-exp watch`` sums.

With ``PerfectLink``, no delay model and ``max_age = 0`` the exchange
is bit-identical to the plain radio (no RNG draws, fresh beacons only,
ascending sender order), which is pinned by tests. The complete mutable
state (link/delay RNG streams, in-flight beacons, neighbour caches)
round-trips through ``state_dict()`` / ``load_state_dict()`` as
JSON-able data, so checkpoint→resume stays bit-identical under every
combination of models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.cma import NeighborTable
from repro.obs.instrument import get_instrumentation
from repro.sim.netmodel.delay import (
    BeaconDelayQueue,
    PendingBeacon,
    UniformDelayModel,
)
from repro.sim.netmodel.links import LinkModel, PerfectLink

__all__ = ["NetworkModel", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retransmission with deterministic exponential backoff.

    A delivery attempt that fails is retried up to ``max_retries``
    times. Before retry ``k`` (0-based) the channel idles through
    ``backoff_base · 2^k`` slots — on a Gilbert–Elliott link each slot
    is one Markov transition, so longer backoffs give a burst time to
    end; on memoryless links the slots are free no-ops. The ack is
    modelled as reliable: one successful attempt means the beacon (and
    its ack) went through.
    """

    max_retries: int = 2
    backoff_base: int = 1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )

    def backoff_slots(self, attempt: int) -> int:
        """Idle slots before retry number ``attempt`` (0-based)."""
        return self.backoff_base * (1 << attempt)


class NetworkModel:
    """Loss, latency, retries and neighbour caching over the unit disk.

    Parameters
    ----------
    link:
        The per-delivery loss process (default: perfect).
    delay:
        Beacon latency model; ``None`` means every delivered beacon
        arrives in its own round.
    retry:
        Bounded retransmission policy; ``None`` means one attempt.
    max_age:
        Graceful-degradation bound (rounds). A neighbour's last-known
        state stays usable while ``staleness <= max_age``; older
        entries are dropped from the cache. ``0`` disables caching
        (only beacons arriving this round are heard) — note a *delayed*
        beacon arriving with positive staleness is then also dropped,
        so pair a delay model with ``max_age >= max_delay`` to actually
        hear late beacons.
    """

    def __init__(
        self,
        link: Optional[LinkModel] = None,
        delay: Optional[UniformDelayModel] = None,
        retry: Optional[RetryPolicy] = None,
        max_age: int = 0,
    ) -> None:
        if max_age < 0:
            raise ValueError(f"max_age must be >= 0, got {max_age}")
        self.link: LinkModel = link if link is not None else PerfectLink()
        self.delay = delay
        self.retry = retry
        self.max_age = int(max_age)
        self.queue = BeaconDelayQueue()
        #: receiver (str) → sender (str) → [x, y, curvature, sent_round].
        #: String keys and list values so the nested dict survives a
        #: JSON round-trip verbatim (checkpoint aux is JSON).
        self._cache: Dict[str, Dict[str, List[float]]] = {}

    # ------------------------------------------------------------------
    def _attempt_delivery(
        self, sender: int, receiver: int, dist: float
    ) -> int:
        """One logical delivery: first attempt plus bounded retries.

        Returns the number of attempts that failed: ``0`` when the first
        went through, every attempt the policy allows when the beacon is
        lost.
        """
        if self.link.delivered(sender, receiver, dist):
            return 0
        if self.retry is None:
            return 1
        for attempt in range(self.retry.max_retries):
            for _ in range(self.retry.backoff_slots(attempt)):
                self.link.advance_slot(sender, receiver)
            if self.link.delivered(sender, receiver, dist):
                return attempt + 1
        return self.retry.max_retries + 1

    def _store(
        self,
        receiver: int,
        sender: int,
        x: float,
        y: float,
        curvature: float,
        sent_round: int,
    ) -> None:
        """Cache a heard beacon, keeping the freshest per (receiver, sender)."""
        inbox = self._cache.setdefault(str(receiver), {})
        key = str(sender)
        existing = inbox.get(key)
        if existing is None or sent_round >= existing[3]:
            inbox[key] = [float(x), float(y), float(curvature), int(sent_round)]

    # ------------------------------------------------------------------
    def exchange(
        self,
        radio,
        positions: np.ndarray,
        curvatures: List[float],
        alive: Optional[np.ndarray],
        round_index: int,
    ) -> NeighborTable:
        """One beacon round under the full unreliable-network pipeline.

        Deterministic iteration order (due beacons in queue order, then
        receivers ascending, then senders ascending) keeps every RNG
        stream's draw sequence a pure function of the simulation state.
        Row ``i`` of the returned table is receiver ``i``'s inbox, read
        from its cache in ascending sender order and stamped with each
        record's staleness.

        When the ambient instrumentation is enabled, the round's outcome
        counts go to the ``net.*`` counters and one ``net`` event. They
        are counted whether or not anyone reads them and draw no RNG, so
        an instrumented run is bit-identical to an uninstrumented one.
        """
        pts = np.asarray(positions, dtype=float).reshape(-1, 2)
        n = len(pts)
        live = (
            np.ones(n, dtype=bool)
            if alive is None
            else np.asarray(alive, dtype=bool).reshape(n)
        )
        indptr, senders = radio.neighbor_csr(pts, alive=live)

        # 1. Late beacons surface first: they were sent in an earlier
        # round, so a fresher same-sender beacon this round wins below.
        arrived = 0
        for beacon in self.queue.pop_due(round_index):
            if 0 <= beacon.receiver < n and live[beacon.receiver]:
                self._store(
                    beacon.receiver, beacon.sender, beacon.x, beacon.y,
                    beacon.curvature, beacon.sent_round,
                )
                arrived += 1

        # 2. This round's transmissions: loss, retries, then latency.
        # Every in-range pair's length in one pass; the draws below stay
        # one scalar call per delivery, in pair order.
        receivers = np.repeat(np.arange(n), np.diff(indptr))
        dists = np.hypot(
            pts[senders, 0] - pts[receivers, 0],
            pts[senders, 1] - pts[receivers, 1],
        ).tolist()
        tries = 1 if self.retry is None else self.retry.max_retries + 1
        dropped = retries = lost = delayed = 0
        for i, j, dist in zip(receivers.tolist(), senders.tolist(), dists):
            failed = self._attempt_delivery(j, i, dist)
            if failed:
                dropped += failed
                if failed == tries:
                    retries += failed - 1
                    lost += 1
                    continue
                retries += failed
            lag = self.delay.sample() if self.delay is not None else 0
            if lag == 0:
                self._store(
                    i, j, pts[j, 0], pts[j, 1],
                    float(curvatures[j]), round_index,
                )
            else:
                self.queue.push(PendingBeacon(
                    deliver_round=round_index + lag,
                    receiver=i, sender=j,
                    x=float(pts[j, 0]), y=float(pts[j, 1]),
                    curvature=float(curvatures[j]),
                    sent_round=round_index,
                ))
                delayed += 1

        # 3. Inboxes from the caches: fresh + tolerably stale entries,
        # ascending sender id (the order the plain radio produced).
        # Entries past max_age are evicted for good.
        counts = [0] * n
        ids: List[int] = []
        xy: List[List[float]] = []
        gs: List[float] = []
        ages: List[int] = []
        expired = 0
        for i in range(n):
            cached = self._cache.get(str(i))
            if cached is None or not live[i]:
                continue
            for key in sorted(cached, key=int):
                x, y, g, sent_round = cached[key]
                age = round_index - int(sent_round)
                if age > self.max_age:
                    del cached[key]
                    expired += 1
                    continue
                ids.append(int(key))
                xy.append([x, y])
                gs.append(g)
                ages.append(age)
                counts[i] += 1

        obs = get_instrumentation()
        if obs.enabled:
            sent = len(dists)
            # Every transmission is lost, held in flight or stored now.
            outcome = {
                "sent": sent,
                "delivered": arrived + sent - lost - delayed,
                "delayed": delayed,
                "dropped": dropped,
                "retries": retries,
                "lost": lost,
                "stale_served": len(ages) - ages.count(0),
                "expired": expired,
            }
            # A zero count makes no counter: the snapshot lists what
            # happened.
            for name, value in outcome.items():
                if value:
                    obs.counter("net." + name).inc(value)
            obs.emit("net", round=round_index, **outcome)
        return NeighborTable.from_records(counts, ids, xy, gs, ages)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all in-flight beacons and cached neighbour state."""
        self.queue = BeaconDelayQueue()
        self._cache.clear()

    def state_dict(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {
            "link": self.link.state_dict(),
            "queue": self.queue.state_dict(),
            "cache": {
                receiver: {sender: list(row) for sender, row in inbox.items()}
                for receiver, inbox in self._cache.items()
            },
        }
        if self.delay is not None:
            state["delay"] = self.delay.state_dict()
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.link.load_state_dict(state.get("link", {}))
        self.queue.load_state_dict(state.get("queue", []))
        if self.delay is not None and "delay" in state:
            self.delay.load_state_dict(state["delay"])
        self._cache = {
            str(receiver): {
                str(sender): [
                    float(row[0]), float(row[1]), float(row[2]), int(row[3])
                ]
                for sender, row in inbox.items()
            }
            for receiver, inbox in state.get("cache", {}).items()
        }
