"""The synchronous round loop: sense → exchange → plan → move → LCM → measure.

Each simulated minute (round) the engine:

1. snapshots the hidden environment field at the current time (the nodes
   never see this snapshot — only their ``Rs``-disk readings of it),
2. lets every alive node sense and estimate curvature
   (:func:`repro.core.cma.estimate_own_curvature`, one call for the
   whole fleet),
3. runs one beacon exchange over the unit-disk radio,
4. plans every alive node's move in one call to
   :func:`repro.core.cma.plan_move` — each node still decides from its
   own sensing and beacons alone,
5. applies the moves one node at a time in id order, each clipped so it
   breaks no unbridged link, then runs the Local Connectivity Mechanism
   pass (followers chase movers that would strand them),
6. reconstructs the surface from the nodes' *current samples* and scores
   δ against the true snapshot — the paper's Fig. 10 measurement.

The engine is deterministic for a fixed configuration (all randomness sits
in explicitly seeded models).

:meth:`MobileSimulation.step` is that round, written out: failure
injection, then each phase function of :mod:`repro.runtime.cma_phases`
inside its span (a networked exchange emits its ``net`` counts there),
then the ``round`` event and the recorders. The engine owns the run's
one :class:`~repro.runtime.state.WorldState` (``self.state``) and
exposes ``step``/``run``/``positions``/``alive_mask``, plus
``capture_state``/``restore_state`` for checkpoint/resume (see
:mod:`repro.runtime.checkpoint`).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Callable, ContextManager, Iterator, Optional, Sequence

import numpy as np

from repro.core.cma import CMAParams
from repro.core.problem import OSTDProblem
from repro.core.baselines import uniform_grid_placement
from repro.geometry.delaunay import DelaunayMesher
from repro.obs.instrument import (
    Instrumentation,
    get_instrumentation,
    use_instrumentation,
)
from repro.obs.profile import PhaseProfiler, get_profile_config
from repro.runtime import cma_phases
from repro.runtime.checkpoint import CheckpointConfig, drive_run
from repro.runtime.records import RoundRecord, SimulationResult
from repro.runtime.state import WorldState
from repro.sim.netmodel.churn import EnergyDepletionModel
from repro.sim.netmodel.failures import MessageLossModel, NodeFailureSchedule
from repro.sim.netmodel.network import NetworkModel
from repro.sim.radio import Radio
from repro.sim.recorders import Recorder, record_round
from repro.sim.sensing import TraceSampler

__all__ = [
    "MobileSimulation",
    "RoundRecord",
    "SimulationResult",
    "default_grid_layout",
    "round_scope",
]

_UNTIMED = nullcontext()


def _untimed(name: str) -> ContextManager:
    return _UNTIMED


@contextmanager
def round_scope(engine) -> Iterator[Callable[[str], ContextManager]]:
    """One engine round's instrumentation frame.

    Runs the body with ``engine.obs`` as the ambient instrumentation, so
    the spans of code that reads only the ambient one (reconstruction,
    grid evaluation) nest under the engine's ``step`` span too. When
    ``engine.obs`` is enabled the body runs inside the ``step`` span,
    with the round index stamped onto every span it emits, and inside
    the engine's profiler round when it has one. Yields the per-phase
    timer: ``engine.profiler.phase``, or a no-op when not profiling.
    """
    obs = engine.obs
    with use_instrumentation(obs):
        if not obs.enabled:
            yield _untimed
            return
        previous = obs.timer.push_context(round=engine.round_index)
        try:
            with obs.span("step"):
                profiler = engine.profiler
                if profiler is None:
                    yield _untimed
                else:
                    with profiler.round():
                        yield profiler.phase
        finally:
            obs.timer.pop_context(previous)


def default_grid_layout(region, k: int, rc: float) -> np.ndarray:
    """The paper's grid start, shrunk toward the centre for link slack.

    The shrink factor is at most 0.9 (10% slack below the nominal lattice
    spacing — a grid at spacing exactly Rc breaks links on any movement)
    and smaller when the nominal spacing exceeds ``0.95·Rc``, so the
    initial unit-disk graph is connected whenever geometrically possible.
    """
    grid = uniform_grid_placement(region, k)
    xs = np.unique(grid[:, 0])
    ys = np.unique(grid[:, 1])
    spacing = max(
        float(np.diff(xs).max()) if len(xs) > 1 else 0.0,
        float(np.diff(ys).max()) if len(ys) > 1 else 0.0,
    )
    factor = 0.9
    if spacing > 0:
        factor = min(0.9, 0.95 * rc / spacing)
    centre = region.center.as_array()
    return centre + factor * (grid - centre)


class MobileSimulation:
    """Simulate ``k`` CMA-driven mobile nodes against a hidden field.

    Connectivity maintenance (constrained movement + LCM) preserves an
    *initially connected* radio graph — the paper's stated precondition
    (Section 5.2: "assume that in the initial state, all the nodes are
    connected"). A disconnected start runs fine but isolated components
    cannot find each other (nodes only know single-hop neighbours).
    """

    #: Checkpoint sub-directory prefix for runs of this engine.
    _CHECKPOINT_PREFIX = "mobile"

    def __init__(
        self,
        problem: OSTDProblem,
        params: Optional[CMAParams] = None,
        initial_positions: Optional[np.ndarray] = None,
        resolution: int = 101,
        message_loss: Optional[MessageLossModel] = None,
        failure_schedule: Optional[NodeFailureSchedule] = None,
        network: Optional[NetworkModel] = None,
        crash_model=None,
        energy_model: Optional[EnergyDepletionModel] = None,
        trace_sampler: Optional[TraceSampler] = None,
        recorders: Sequence[Recorder] = (),
        energy_budget: Optional[float] = None,
        sensor_noise_std: float = 0.0,
        sensor_noise_seed: int = 0,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.problem = problem
        self.params = params or CMAParams(
            rc=problem.rc,
            rs=problem.rs,
            speed=problem.speed,
            dt=problem.dt,
        )
        if self.params.rc != problem.rc or self.params.rs != problem.rs:
            raise ValueError("CMAParams radii must match the problem's Rc/Rs")
        self.resolution = int(resolution)
        if network is not None and message_loss is not None:
            raise ValueError(
                "pass either message_loss (legacy i.i.d. radio loss) or "
                "network (the netmodel pipeline), not both — wrap the loss "
                "in NetworkModel(link=...) instead"
            )
        self.radio = Radio(problem.rc, loss=message_loss)
        #: Unreliable-network pipeline (loss/latency/staleness/retries);
        #: ``None`` keeps the paper's perfect one-round beacon exchange.
        self.network = network
        #: Transient crash/recovery model (CrashSchedule / RandomChurn).
        self.crash_model = crash_model
        #: Battery model charging idle time + movement; kills at depletion.
        self.energy_model = energy_model
        self.failure_schedule = failure_schedule
        #: Instrumentation for phase spans and per-round events; defaults
        #: to the ambient instance (a disabled no-op unless the caller
        #: installed one with :func:`repro.obs.use_instrumentation`).
        self.obs = obs if obs is not None else get_instrumentation()
        self.trace_sampler = trace_sampler
        self.recorders = list(recorders)
        if energy_budget is not None and energy_budget <= 0:
            raise ValueError(
                f"energy_budget must be positive, got {energy_budget}"
            )
        #: Total movement distance (metres) a node may spend before it dies
        #: — the paper assumes "energy is sufficient for the movement";
        #: this knob removes that assumption for robustness studies.
        self.energy_budget = energy_budget
        if sensor_noise_std < 0:
            raise ValueError(
                f"sensor_noise_std must be >= 0, got {sensor_noise_std}"
            )
        #: Gaussian read noise on every sensed value (paper: noiseless).
        self.sensor_noise_std = float(sensor_noise_std)
        self._sensor_rng = np.random.default_rng(sensor_noise_seed)
        #: The measurement mesh, carried from round to round (see
        #: :func:`repro.runtime.cma_phases.measure`); not part of the
        #: captured state.
        self.mesher = DelaunayMesher()

        if initial_positions is None:
            initial_positions = default_grid_layout(
                problem.region, problem.k, problem.rc
            )
        #: The fleet: positions, liveness, curvature, travel, death times
        #: and the round clock, written in place by the phases.
        self.state = WorldState.initial(initial_positions, problem.t0)
        if self.state.k != problem.k:
            raise ValueError(
                f"initial layout has {self.state.k} nodes, "
                f"expected k={problem.k}"
            )

        # Opt-in per-phase CPU/allocation profiling (--profile / ambient
        # use_profiling). Checked once at construction: when off, there
        # is no profiler and a step pays nothing.
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

    @property
    def alive_mask(self) -> np.ndarray:
        """A copy of the ``(k,)`` liveness mask."""
        return self.state.alive.copy()

    def _inject_failures(self) -> None:
        """Node-level faults due this round, in a fixed order.

        The order keeps the injected fault sequence, and with it every
        RNG stream, deterministic:

        1. scheduled permanent deaths (``failure_schedule``),
        2. transient crash/recovery (``crash_model`` — a
           :class:`~repro.sim.netmodel.churn.CrashSchedule` or
           :class:`~repro.sim.netmodel.churn.RandomChurn`),
        3. energy depletion (``energy_model``), then the
           movement-distance ``energy_budget``.
        """
        state = self.state
        if self.failure_schedule is not None:
            for node_id in self.failure_schedule.failures_due(self.t):
                if 0 <= node_id < state.k:
                    state.kill(node_id, self.t)
        if self.crash_model is not None:
            self.crash_model.step(self.t, self.round_index, state)
        if self.energy_model is not None:
            self.energy_model.step(self.t, self.round_index, state)
        if self.energy_budget is not None:
            spent = state.alive & (state.distance_travelled >= self.energy_budget)
            state.kill(np.flatnonzero(spent), self.t)

    # ------------------------------------------------------------------
    def step(self) -> RoundRecord:
        """Advance one round; returns the round's measurements.

        The ``round`` event and the recorders see the record only after
        every phase has finished and the ``step`` span has closed; a
        phase that raises leaves them untouched and the clock where it
        was.
        """
        obs = self.obs
        with round_scope(self) as timed:
            self._inject_failures()
            # Every phase before the moves reads this pre-move copy; it
            # also keeps each plan's origin fixed while the moves and LCM
            # write the live rows.
            with timed("capture"):
                positions = self.positions
                alive_mask = self.alive_mask
                alive_ids = np.flatnonzero(alive_mask).tolist()
            with obs.span("sense"), timed("sense"):
                snapshot, sensing = cma_phases.sense(self, alive_ids)
            with obs.span("exchange"), timed("exchange"):
                table = cma_phases.exchange(self, positions, alive_mask)
            with obs.span("plan"), timed("plan"):
                plan = cma_phases.plan(
                    self, positions, alive_ids, sensing, table
                )
            with obs.span("constrain_move"), timed("constrain_move"):
                n_moved = cma_phases.constrain_move(self, plan)
            with obs.span("lcm"), timed("lcm"):
                n_lcm_moves = cma_phases.lcm(self, plan)
            with timed("trace"):
                extra_positions, extra_values = cma_phases.trace_samples(
                    self, plan
                )
            with obs.span("measure"), timed("measure"):
                record = cma_phases.measure(
                    self, snapshot, extra_positions, extra_values,
                    n_moved, n_lcm_moves, plan.magnitudes,
                )
        record_round(obs, record)
        for recorder in self.recorders:
            recorder.on_round(record)
        self.state.t += self.problem.dt
        self.state.round_index += 1
        return record

    # ------------------------------------------------------------------
    def capture_state(self) -> WorldState:
        """Snapshot the complete mutable state of the run.

        A copy of :attr:`state` plus every RNG stream's exact position
        (sensor noise, message loss) and the fault models' state, so a
        restored run continues bit-identically. The carried measurement
        mesh is left out: it is a cache of the positions.
        """
        state = self.state.copy()
        state.rng_states["sensor"] = self._sensor_rng.bit_generator.state
        if self.radio.loss is not None:
            state.rng_states["message_loss"] = self.radio.loss.rng_state
        if self.failure_schedule is not None:
            state.aux["failure_fired"] = self.failure_schedule.fired_times()
        if self.network is not None:
            state.aux["network"] = self.network.state_dict()
        if self.crash_model is not None:
            state.aux["crash"] = self.crash_model.state_dict()
        if self.energy_model is not None:
            state.aux["energy"] = self.energy_model.state_dict()
        return state

    def restore_state(self, state: WorldState) -> None:
        """Load a :class:`WorldState` into this engine (same configuration).

        The engine must have been constructed with the same problem and
        the same optional models (loss, schedule, sampler) as the run the
        state was captured from; only the mutable state is restored. The
        carried measurement mesh is dropped, so the next round builds it
        afresh.
        """
        if state.k != self.state.k:
            raise ValueError(
                f"state has {state.k} nodes, engine has {self.state.k}"
            )
        self.state = state.copy()
        self.mesher = DelaunayMesher()
        # RNG and model states live in their owners, loaded below.
        self.state.rng_states, self.state.aux = {}, {}
        if "sensor" in state.rng_states:
            self._sensor_rng.bit_generator.state = state.rng_states["sensor"]
        if self.radio.loss is not None and "message_loss" in state.rng_states:
            self.radio.loss.rng_state = state.rng_states["message_loss"]
        if self.failure_schedule is not None and "failure_fired" in state.aux:
            self.failure_schedule.restore_fired(state.aux["failure_fired"])
        if self.network is not None and "network" in state.aux:
            self.network.load_state_dict(state.aux["network"])
        if self.crash_model is not None and "crash" in state.aux:
            self.crash_model.load_state_dict(state.aux["crash"])
        if self.energy_model is not None and "energy" in state.aux:
            self.energy_model.load_state_dict(state.aux["energy"])

    # ------------------------------------------------------------------
    def run(
        self,
        n_rounds: Optional[int] = None,
        *,
        checkpoint: Optional[CheckpointConfig] = None,
    ) -> SimulationResult:
        """Run ``n_rounds`` (default: the problem's duration) and collect.

        ``checkpoint`` (or the ambient config installed with
        :func:`repro.runtime.use_checkpointing`) turns on periodic
        snapshots and — with ``resume=True`` — continues an interrupted
        run from its newest checkpoint, bit-identically.
        """
        total = n_rounds if n_rounds is not None else self.problem.n_rounds
        if total < 1:
            raise ValueError(f"n_rounds must be >= 1, got {total}")
        return drive_run(
            self,
            total,
            SimulationResult(),
            RoundRecord,
            self._CHECKPOINT_PREFIX,
            checkpoint=checkpoint,
        )
