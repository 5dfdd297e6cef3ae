"""Discrete-time simulation of mobile CPS nodes.

The paper evaluates CMA in trace-driven simulation (Section 6); this
package is that testbed:

* :mod:`.sensing` — the ``Rs``-disk sensing model producing the ``m``
  samples and local curvature estimates of Table 2,
* :mod:`.radio` — unit-disk neighbour discovery and the per-round
  ``(x, y, G)`` exchange, with optional message loss,
* :mod:`.netmodel` — the unreliable-network subsystem: link-loss models
  (i.i.d., distance-dependent, Gilbert–Elliott bursty), beacon latency
  with staleness, retry/ack with backoff, crash/recovery churn, energy
  depletion, and the legacy failure models,
* :mod:`.engine` — the synchronous round loop
  (sense → exchange → plan → move → LCM → measure), and
* :mod:`.recorders` — pluggable observers collecting δ(t), trajectories,
  connectivity and force series.
"""

from repro.sim.sensing import DiskSensor, TraceSampler
from repro.sim.radio import Radio
from repro.sim.netmodel import (
    BernoulliLink,
    CrashSchedule,
    DistanceLossLink,
    EnergyDepletionModel,
    GilbertElliottLink,
    LinkModel,
    MessageLossModel,
    NetworkModel,
    NodeFailureSchedule,
    PerfectLink,
    RandomChurn,
    RetryPolicy,
    UniformDelayModel,
)
from repro.sim.engine import MobileSimulation, RoundRecord, SimulationResult
from repro.sim.centralized import (
    CentralizedResult,
    CentralizedSimulation,
    cma_message_count,
)
from repro.sim.recorders import (
    ConnectivityRecorder,
    DeltaRecorder,
    ForceRecorder,
    MetricsRecorder,
    Recorder,
    TrajectoryRecorder,
    record_round,
)

__all__ = [
    "BernoulliLink",
    "CentralizedResult",
    "CentralizedSimulation",
    "ConnectivityRecorder",
    "CrashSchedule",
    "DeltaRecorder",
    "DiskSensor",
    "DistanceLossLink",
    "EnergyDepletionModel",
    "ForceRecorder",
    "GilbertElliottLink",
    "LinkModel",
    "MessageLossModel",
    "MetricsRecorder",
    "MobileSimulation",
    "NetworkModel",
    "NodeFailureSchedule",
    "PerfectLink",
    "Radio",
    "RandomChurn",
    "Recorder",
    "RetryPolicy",
    "RoundRecord",
    "SimulationResult",
    "TraceSampler",
    "TrajectoryRecorder",
    "UniformDelayModel",
    "cma_message_count",
    "record_round",
]
