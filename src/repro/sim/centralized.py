"""Centralized dispatch baseline for the OSTD problem.

The paper dismisses centralized control of mobile nodes in one sentence
(Section 5: "the centralized algorithm is not available for this system,
in respect that it requires lots of transmission and results in much time
delay"). This module makes that argument measurable:

* a **sink** (the node nearest the region centre) collects every node's
  sensed data over multi-hop routes, a global planner recomputes the CWD
  layout, and movement commands flow back — with a configurable
  **information delay** (rounds between sensing and the commands that
  react to it) modelling the collection/dispatch latency;
* the per-round **communication load** is accounted explicitly: one
  message per hop per report/command, versus CMA's one-hop beacons.

With zero delay the centralized planner is an upper bound (it sees the
whole field); with realistic delays it chases stale gap positions while
paying an order of magnitude more radio traffic — which is exactly the
paper's claim, now with numbers.

Like :class:`~repro.sim.engine.MobileSimulation`, its ``step()`` calls
the phase functions of :mod:`repro.runtime.centralized_phases` (replan →
move → measure) in order, each inside its span, and checkpoint/resume
comes through ``capture_state``/``restore_state``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.problem import OSTDProblem
from repro.obs.instrument import Instrumentation, get_instrumentation
from repro.obs.profile import PhaseProfiler, get_profile_config
from repro.runtime import centralized_phases
from repro.runtime.checkpoint import CheckpointConfig, drive_run
from repro.runtime.records import CentralizedResult, CentralizedRound
from repro.runtime.state import WorldState
from repro.sim.engine import default_grid_layout, round_scope

__all__ = [
    "CentralizedRound",
    "CentralizedResult",
    "CentralizedSimulation",
    "cma_message_count",
]


class CentralizedSimulation:
    """Globally planned movement with information delay and hop accounting.

    Parameters
    ----------
    problem:
        The OSTD instance (same as :class:`~repro.sim.engine.MobileSimulation`).
    delay_rounds:
        Rounds between a field snapshot being taken and the movement
        commands derived from it reaching the nodes. 0 = oracle.
    replan_every:
        Planner cadence in rounds (a fresh global solve is expensive in
        both computation and radio traffic).
    solver_iterations:
        Force iterations per global solve (see
        :func:`repro.core.cwd.solve_cwd`). Keep this near ``replan_every``
        so targets stay reachable before the next replan; a planner that
        projects far ahead scatters the fleet and (having no LCM) breaks
        the radio graph.
    resolution:
        Evaluation grid resolution.
    planner:
        ``"fra"`` (default) replans by solving the stationary problem on
        the delayed snapshot and dispatching nodes to the FRA layout via
        greedy min-distance assignment; ``"cwd"`` iterates the global
        curvature-weighted force solver from the current positions.
    obs:
        Instrumentation for phase spans (``replan``/``move``/``measure``);
        defaults to the ambient instance.
    """

    _CHECKPOINT_PREFIX = "centralized"

    def __init__(
        self,
        problem: OSTDProblem,
        delay_rounds: int = 5,
        replan_every: int = 5,
        solver_iterations: int = 5,
        resolution: int = 101,
        initial_positions: Optional[np.ndarray] = None,
        planner: str = "fra",
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if delay_rounds < 0:
            raise ValueError(f"delay_rounds must be >= 0, got {delay_rounds}")
        if replan_every < 1:
            raise ValueError(f"replan_every must be >= 1, got {replan_every}")
        if planner not in ("fra", "cwd"):
            raise ValueError(f"unknown planner {planner!r}; use 'fra' or 'cwd'")
        self.planner = planner
        self.problem = problem
        self.delay_rounds = int(delay_rounds)
        self.replan_every = int(replan_every)
        self.solver_iterations = int(solver_iterations)
        self.resolution = int(resolution)
        self.obs = obs if obs is not None else get_instrumentation()

        if initial_positions is None:
            initial_positions = default_grid_layout(
                problem.region, problem.k, problem.rc
            )
        #: Positions and the round clock, plus the planner's current
        #: ``targets`` (in ``arrays``) and the age of the information
        #: they were planned from (``aux["target_info_age"]``). Nodes
        #: never die here, so liveness, curvature and travel stay at
        #: their round-0 values.
        self.state = WorldState.initial(initial_positions, problem.t0)
        if self.state.k != problem.k:
            raise ValueError(
                f"initial layout has {self.state.k} nodes, "
                f"expected k={problem.k}"
            )
        self.state.arrays["targets"] = self.state.positions.copy()
        self.state.aux["target_info_age"] = 0

        # Opt-in per-phase profiling, same ambient contract as the
        # mobile engine: nothing is built (or paid) unless a
        # use_profiling context is active at construction.
        profile_cfg = get_profile_config()
        self.profiler: Optional[PhaseProfiler] = (
            PhaseProfiler(self, profile_cfg)
            if profile_cfg is not None and self.obs.enabled else None
        )

    # ------------------------------------------------------------------
    @property
    def t(self) -> float:
        return self.state.t

    @property
    def round_index(self) -> int:
        return self.state.round_index

    @property
    def positions(self) -> np.ndarray:
        """A copy of the ``(k, 2)`` positions."""
        return self.state.positions.copy()

    def step(self) -> CentralizedRound:
        """Advance one round; returns the round's measurements."""
        obs = self.obs
        with round_scope(self) as timed:
            with obs.span("replan"), timed("replan"):
                n_messages = centralized_phases.replan(self)
            with obs.span("move"), timed("move"):
                centralized_phases.move(self)
            with obs.span("measure"), timed("measure"):
                record = centralized_phases.measure(self, n_messages)
        self.state.t += self.problem.dt
        self.state.round_index += 1
        return record

    # ------------------------------------------------------------------
    def capture_state(self) -> WorldState:
        """Snapshot the run: positions, targets, clock, planner staleness."""
        return self.state.copy()

    def restore_state(self, state: WorldState) -> None:
        """Load a captured state into this engine (same configuration)."""
        if state.k != self.state.k:
            raise ValueError(
                f"state has {state.k} nodes, engine has {self.state.k}"
            )
        self.state = state.copy()
        self.state.aux.setdefault("target_info_age", 0)

    # ------------------------------------------------------------------
    def run(
        self,
        n_rounds: Optional[int] = None,
        *,
        checkpoint: Optional[CheckpointConfig] = None,
    ) -> CentralizedResult:
        total = n_rounds if n_rounds is not None else self.problem.n_rounds
        if total < 1:
            raise ValueError(f"n_rounds must be >= 1, got {total}")
        return drive_run(
            self,
            total,
            CentralizedResult(),
            CentralizedRound,
            self._CHECKPOINT_PREFIX,
            checkpoint=checkpoint,
        )


def cma_message_count(result) -> int:
    """Radio messages a CMA run spent: one beacon per alive node per round
    plus one ``tell`` per actual mover (all single-hop broadcasts)."""
    return sum(r.n_alive + r.n_moved for r in result.rounds)
