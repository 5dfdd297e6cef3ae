"""Message types exchanged between nodes each round.

Two messages exist in CMA (Table 2):

* the beacon ``Tx(ni)`` carrying ``(x_i, y_i, G(n'_i))`` — represented
  on the wire as :class:`BeaconMessage` and as
  :class:`repro.core.cma.NeighborObservation` on the receiving side, and
* ``tell(nd, N[q])`` announcing a planned move: the destination plus the
  mover's neighbour table, which former neighbours use for the LCM check.
  It has no wire type: the LCM phase reads the plan's
  :class:`repro.core.cma.NeighborTable` row of each planner.

Every beacon carries an implicit **trace context**: its
``(sent_round, sender_id, receiver)`` triple, which
:func:`repro.obs.trace.beacon_trace_id` formats into the trace id that
keys the ``msg_*`` causal-tracing events. The id is a pure function of
those fields, so it survives loss, retries, delay-queue residence,
cache staleness and checkpoint/resume without any stored counter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cma import NeighborObservation


@dataclass(frozen=True)
class BeaconMessage:
    """One beacon ``Tx(ni)`` on the wire: sender state plus trace context.

    The netmodel keeps its hot loop on plain scalars for speed; this
    type is the canonical schema of what travels (and what the delay
    queue holds as :class:`~repro.sim.netmodel.delay.PendingBeacon`),
    used at API boundaries and in tests.
    """

    sender_id: int
    position: np.ndarray
    curvature: float
    sent_round: int

    def trace_id(self, receiver: int) -> str:
        """Trace id of this beacon's delivery to ``receiver``."""
        from repro.obs.trace import beacon_trace_id

        return beacon_trace_id(self.sent_round, self.sender_id, receiver)

    def as_observation(self, round_index: int) -> NeighborObservation:
        """The receiver-side view at ``round_index`` (staleness stamped)."""
        return NeighborObservation(
            node_id=self.sender_id,
            position=np.asarray(self.position, dtype=float),
            curvature=float(self.curvature),
            staleness=int(round_index) - int(self.sent_round),
        )
