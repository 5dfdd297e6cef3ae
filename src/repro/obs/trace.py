"""Causal message tracing: every beacon's life as ``msg_*`` events.

A round-level log says *that* a node moved; it cannot say *why* the node
planned from a two-round-old neighbour position. The answer lives in the
network pipeline — which transmissions were lost, which retries won,
which beacons arrived late, which observations were served stale from
the last-known-neighbour cache. This module gives each logical beacon a
**trace context** that survives loss, retries, delay and caching, and a
:class:`MessageTracer` that narrates the beacon's hops onto the event
bus:

``msg_send``
    sender → receiver transmission begins this round (one per directed
    in-range pair per round).
``msg_drop``
    one delivery attempt failed on the link (``attempt`` counts from 0).
``msg_retry``
    the retry policy schedules attempt ``attempt`` after idling through
    ``backoff_slots`` channel slots.
``msg_lost``
    every attempt failed; the beacon never arrives.
``msg_delay``
    delivered by the link but held in flight until ``deliver_round``
    (duty-cycle / MAC latency).
``msg_deliver``
    the beacon lands in the receiver's last-known-neighbour cache,
    ``lag`` rounds after it was sent.
``msg_use``
    a cached beacon is served into the receiver's row of the
    exchange's :class:`~repro.core.cma.NeighborTable` with
    ``staleness`` rounds of age.
``msg_expire``
    a cache entry aged past ``max_age`` and is evicted unheard.

**Trace identity is derived, not stored.** One logical beacon is fully
named by ``(sent_round, sender, receiver)`` — the engine is
round-synchronous, so a sender beacons at most once per receiver per
round. :func:`beacon_trace_id` formats that triple; because it is a pure
function of simulation state, trace ids survive checkpoint/resume
without widening the netmodel's JSON cache format, and any
``NeighborObservation`` can be traced after the fact with
:func:`observation_trace_id` (its ``staleness`` recovers ``sent_round``).

Tracing rides the ordinary instrumentation switch: the engine builds
its tracer (``MobileSimulation.message_tracer``) only when ``obs`` is
enabled, and only a :class:`~repro.sim.netmodel.network.NetworkModel`
exchange uses it, so uninstrumented runs (and the paper's perfect
radio) pay nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

__all__ = [
    "beacon_trace_id",
    "observation_trace_id",
    "MessageTracer",
    "MSG_EVENTS",
]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.instrument import Instrumentation

#: Every event name a :class:`MessageTracer` can emit, in life-cycle order.
MSG_EVENTS = (
    "msg_send",
    "msg_drop",
    "msg_retry",
    "msg_lost",
    "msg_delay",
    "msg_deliver",
    "msg_use",
    "msg_expire",
)


def beacon_trace_id(sent_round: int, sender: int, receiver: int) -> str:
    """Canonical trace id of one logical beacon.

    ``(sent_round, sender, receiver)`` uniquely names a beacon in a
    round-synchronous exchange, so the id needs no counter state and is
    reproducible across checkpoint/resume and across processes.
    """
    return f"r{int(sent_round)}.n{int(sender)}>n{int(receiver)}"


def observation_trace_id(
    observation: Any, receiver: int, round_index: int
) -> str:
    """Trace id of the beacon behind a ``NeighborObservation``.

    ``staleness`` is ``round_index − sent_round`` by construction
    (:class:`~repro.sim.netmodel.network.NetworkModel` stamps it), so the
    originating beacon — and with it the full ``msg_*`` chain in the run
    log — is recoverable from the observation alone.
    """
    sent_round = int(round_index) - int(getattr(observation, "staleness", 0))
    return beacon_trace_id(sent_round, observation.node_id, receiver)


class MessageTracer:
    """Emit the ``msg_*`` life-cycle events for one exchange's beacons.

    One tracer serves one engine; :meth:`begin_round` re-anchors it each
    round. All emission goes through ``obs.emit`` (cheap, already
    enabled-guarded) and a handful of registry counters so aggregate
    loss/retry/staleness rates are available without a log scan:
    ``net.sent``, ``net.dropped``, ``net.retries``, ``net.lost``,
    ``net.delayed``, ``net.delivered``, ``net.stale_served``,
    ``net.expired``.
    """

    __slots__ = ("obs", "round_index")

    def __init__(
        self, obs: "Instrumentation", round_index: int = 0
    ) -> None:
        self.obs = obs
        self.round_index = int(round_index)

    def begin_round(self, round_index: int) -> None:
        """Anchor subsequent events (and fresh trace ids) to a round."""
        self.round_index = int(round_index)

    # -- transmission ---------------------------------------------------
    def send(self, sender: int, receiver: int) -> None:
        self.obs.counter("net.sent").inc()
        self.obs.emit(
            "msg_send",
            trace_id=beacon_trace_id(self.round_index, sender, receiver),
            round=self.round_index,
            sender=sender,
            receiver=receiver,
        )

    def drop(self, sender: int, receiver: int, attempt: int) -> None:
        self.obs.counter("net.dropped").inc()
        self.obs.emit(
            "msg_drop",
            trace_id=beacon_trace_id(self.round_index, sender, receiver),
            round=self.round_index,
            sender=sender,
            receiver=receiver,
            attempt=attempt,
        )

    def retry(
        self, sender: int, receiver: int, attempt: int, backoff_slots: int
    ) -> None:
        self.obs.counter("net.retries").inc()
        self.obs.emit(
            "msg_retry",
            trace_id=beacon_trace_id(self.round_index, sender, receiver),
            round=self.round_index,
            sender=sender,
            receiver=receiver,
            attempt=attempt,
            backoff_slots=backoff_slots,
        )

    def lost(self, sender: int, receiver: int, attempts: int) -> None:
        self.obs.counter("net.lost").inc()
        self.obs.emit(
            "msg_lost",
            trace_id=beacon_trace_id(self.round_index, sender, receiver),
            round=self.round_index,
            sender=sender,
            receiver=receiver,
            attempts=attempts,
        )

    # -- latency and arrival --------------------------------------------
    def delay(self, sender: int, receiver: int, deliver_round: int) -> None:
        self.obs.counter("net.delayed").inc()
        self.obs.emit(
            "msg_delay",
            trace_id=beacon_trace_id(self.round_index, sender, receiver),
            round=self.round_index,
            sender=sender,
            receiver=receiver,
            deliver_round=deliver_round,
        )

    def deliver(
        self, sender: int, receiver: int, sent_round: int
    ) -> None:
        self.obs.counter("net.delivered").inc()
        self.obs.emit(
            "msg_deliver",
            trace_id=beacon_trace_id(sent_round, sender, receiver),
            round=self.round_index,
            sender=sender,
            receiver=receiver,
            sent_round=sent_round,
            lag=self.round_index - int(sent_round),
        )

    # -- cache service --------------------------------------------------
    def use(
        self, sender: int, receiver: int, sent_round: int, staleness: int
    ) -> None:
        if staleness > 0:
            self.obs.counter("net.stale_served").inc()
        self.obs.emit(
            "msg_use",
            trace_id=beacon_trace_id(sent_round, sender, receiver),
            round=self.round_index,
            sender=sender,
            receiver=receiver,
            sent_round=sent_round,
            staleness=staleness,
        )

    def expire(
        self, sender: int, receiver: int, sent_round: int, age: int
    ) -> None:
        self.obs.counter("net.expired").inc()
        self.obs.emit(
            "msg_expire",
            trace_id=beacon_trace_id(sent_round, sender, receiver),
            round=self.round_index,
            sender=sender,
            receiver=receiver,
            sent_round=sent_round,
            age=age,
        )
