"""Realistic network and fault modelling for the simulation testbed.

The paper's evaluation assumes a perfect unit-disk radio and immortal
nodes; this package removes both assumptions without giving up
determinism or bit-identical checkpoint/resume:

* :mod:`.links` — per-delivery loss processes behind one
  :class:`~repro.sim.netmodel.links.LinkModel` protocol (perfect,
  i.i.d., distance-dependent, Gilbert–Elliott bursty);
* :mod:`.delay` — beacon latency (1..d rounds) and the in-flight queue;
* :mod:`.network` — :class:`~repro.sim.netmodel.network.NetworkModel`,
  composing loss + retries/backoff + latency + last-known-neighbour
  caching with staleness stamping;
* :mod:`.churn` — transient crash/recovery (scripted and stochastic)
  and energy-depletion death;
* :mod:`.failures` — the seed models (i.i.d. message loss, permanent
  death schedules).

Every model is deterministic given its seed and exposes
``state_dict()`` / ``load_state_dict()`` with JSON-able payloads, which
is how the engine's :class:`~repro.runtime.state.WorldState` carries
them through checkpoints.
"""

from repro.sim.netmodel.churn import (
    CrashSchedule,
    EnergyDepletionModel,
    RandomChurn,
)
from repro.sim.netmodel.delay import (
    BeaconDelayQueue,
    PendingBeacon,
    UniformDelayModel,
)
from repro.sim.netmodel.failures import MessageLossModel, NodeFailureSchedule
from repro.sim.netmodel.links import (
    BernoulliLink,
    DistanceLossLink,
    GilbertElliottLink,
    LinkModel,
    PerfectLink,
)
from repro.sim.netmodel.network import NetworkModel, RetryPolicy

__all__ = [
    "BeaconDelayQueue",
    "BernoulliLink",
    "CrashSchedule",
    "DistanceLossLink",
    "EnergyDepletionModel",
    "GilbertElliottLink",
    "LinkModel",
    "MessageLossModel",
    "NetworkModel",
    "NodeFailureSchedule",
    "PendingBeacon",
    "PerfectLink",
    "RandomChurn",
    "RetryPolicy",
    "UniformDelayModel",
]
