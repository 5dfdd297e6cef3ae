"""The simulation runtime: phase pipeline, world state, checkpoint/resume.

Both simulation engines (:class:`repro.sim.engine.MobileSimulation` and
:class:`repro.sim.centralized.CentralizedSimulation`) used to carry their
own hand-rolled round loops, each re-wiring observability spans, failure
injection and recorders inline. This package is the shared runtime they
now run on:

* :mod:`.state` — :class:`WorldState`, the *only* mutable state of a run:
  positions, alive mask, per-node curvature, travel and death times and
  the round clock as plain NumPy arrays, plus (in the copy
  ``capture_state()`` returns) RNG and fault-model states as JSON-able
  data. Each engine holds exactly one;
* :mod:`.phase` — the :class:`Phase` protocol and the per-round
  :class:`RoundContext` scratch space phases communicate through;
* :mod:`.scheduler` — :class:`Scheduler`, which drives a phase sequence
  and threads cross-cutting concerns through as :class:`Middleware`
  (obs spans, failure injection, recorders, checkpointing) instead of
  inline calls;
* :mod:`.middleware` — the stock middleware implementations;
* :mod:`.checkpoint` — versioned, NumPy-native checkpoint save/load so a
  run snapshotted every N rounds resumes to a bit-identical record
  series, plus the ambient :class:`CheckpointConfig` mechanism the
  experiment harness uses to thread ``--checkpoint-dir``/``--resume``
  down to every engine;
* :mod:`.cma_phases` / :mod:`.centralized_phases` — the concrete phase
  units the two engines compose (the six CMA phases of Table 2, and the
  replan/move/measure cycle of the centralized baseline).

The engines remain the public API; they are thin facades that assemble
phases + middleware into a scheduler and expose ``step()``/``run()``
exactly as before.
"""

from repro.runtime.checkpoint import (
    Checkpoint,
    CheckpointConfig,
    CheckpointManager,
    RunPreempted,
    drive_run,
    get_checkpoint_config,
    load_checkpoint,
    save_checkpoint,
    use_checkpointing,
)
from repro.runtime.middleware import (
    FailureInjectionMiddleware,
    Middleware,
    ObsMiddleware,
    RecorderMiddleware,
)
from repro.runtime.phase import Phase, RoundContext
from repro.runtime.records import (
    CentralizedResult,
    CentralizedRound,
    RoundRecord,
    SimulationResult,
)
from repro.runtime.scheduler import Scheduler
from repro.runtime.state import WorldState

__all__ = [
    "CentralizedResult",
    "CentralizedRound",
    "Checkpoint",
    "CheckpointConfig",
    "CheckpointManager",
    "FailureInjectionMiddleware",
    "Middleware",
    "ObsMiddleware",
    "Phase",
    "RecorderMiddleware",
    "RoundContext",
    "RoundRecord",
    "RunPreempted",
    "Scheduler",
    "SimulationResult",
    "WorldState",
    "drive_run",
    "get_checkpoint_config",
    "load_checkpoint",
    "save_checkpoint",
    "use_checkpointing",
]
