"""The simulation runtime: round phases, world state, checkpoint/resume.

The shared pieces both simulation engines
(:class:`repro.sim.engine.MobileSimulation` and
:class:`repro.sim.centralized.CentralizedSimulation`) run on:

* :mod:`.state` — :class:`WorldState`, the *only* mutable state of a run:
  positions, alive mask, per-node curvature, travel and death times and
  the round clock as plain NumPy arrays, plus (in the copy
  ``capture_state()`` returns) RNG and fault-model states as JSON-able
  data. Each engine holds exactly one;
* :mod:`.cma_phases` / :mod:`.centralized_phases` — the round phases as
  plain functions (the six CMA phases of Table 2, and the
  replan/move/measure cycle of the centralized baseline). Each engine's
  ``step()`` calls them in order, each inside its span;
* :mod:`.checkpoint` — versioned, NumPy-native checkpoint save/load so a
  run snapshotted every N rounds resumes to a bit-identical record
  series, plus the ambient :class:`CheckpointConfig` mechanism the
  experiment harness uses to thread ``--checkpoint-dir``/``--resume``
  down to every engine;
* :mod:`.records` — the per-round records and run results.
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
from repro.runtime.records import (
    CentralizedResult,
    CentralizedRound,
    RoundRecord,
    SimulationResult,
)
from repro.runtime.state import WorldState

__all__ = [
    "CentralizedResult",
    "CentralizedRound",
    "Checkpoint",
    "CheckpointConfig",
    "CheckpointManager",
    "RoundRecord",
    "RunPreempted",
    "SimulationResult",
    "WorldState",
    "drive_run",
    "get_checkpoint_config",
    "load_checkpoint",
    "save_checkpoint",
    "use_checkpointing",
]
