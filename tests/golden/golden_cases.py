"""Canonical trajectories pinned by committed digests.

Each case runs one scenario from a fixed configuration and returns its
trajectory: per-round positions, alive masks and the δ series. A
:func:`digest` of a trajectory holds the sha256 of each array plus a
short float summary, stored in ``digests.json`` next to this file
together with the python and numpy versions it was made with.

``tools/bless_golden.py`` regenerates ``digests.json``; the test in
``test_golden.py`` checks the committed digests. A refactor that claims
"same behaviour" must leave every digest unchanged.
"""

from __future__ import annotations

import hashlib
import platform
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Dict, List

import numpy as np

from repro.core.fra import FRAConfig, solve_osd
from repro.core.problem import OSDProblem, OSTDProblem
from repro.experiments import config
from repro.fields.greenorbs import GreenOrbsLightField
from repro.sim.centralized import CentralizedSimulation
from repro.sim.engine import MobileSimulation
from repro.sim.netmodel import (
    BernoulliLink,
    CrashSchedule,
    EnergyDepletionModel,
    MessageLossModel,
    NetworkModel,
    NodeFailureSchedule,
    RandomChurn,
    RetryPolicy,
    UniformDelayModel,
)
from repro.sim.recorders import Recorder
from repro.sim.sensing import TraceSampler

#: Relative tolerance of the summary comparison used when the digests
#: were made under other python or numpy versions.
FALLBACK_RTOL = 1e-9


@dataclass
class Trajectory:
    """One run: ``positions`` (R, k, 2), ``alive`` (R, k), ``deltas`` (R,).

    ``rounds`` keeps the engine's round records for checks beyond the
    digest (which hashes only the three arrays).
    """

    positions: np.ndarray
    alive: np.ndarray
    deltas: np.ndarray
    rounds: list = dataclass_field(default_factory=list)


class _AliveRecorder(Recorder):
    """Copies the engine's alive mask after every round."""

    def __init__(self) -> None:
        self.engine = None
        self.masks: List[np.ndarray] = []

    def on_round(self, record) -> None:
        self.masks.append(self.engine.alive_mask.copy())


def _ostd_problem(field, k: int, n_rounds: int) -> OSTDProblem:
    return OSTDProblem(
        k=k, rc=config.RC, rs=config.RS, region=field.region, field=field,
        speed=config.SPEED, t0=config.T_REFERENCE, duration=float(n_rounds),
    )


def _mobile(problem: OSTDProblem, resolution: int, **kwargs) -> Trajectory:
    alive = _AliveRecorder()
    sim = MobileSimulation(
        problem, params=config.cma_params(), resolution=resolution,
        recorders=[alive], **kwargs,
    )
    alive.engine = sim
    rounds = sim.run().rounds
    return Trajectory(
        positions=np.stack([r.positions for r in rounds]),
        alive=np.stack(alive.masks),
        deltas=np.asarray([r.delta for r in rounds], dtype=float),
        rounds=rounds,
    )


def fig10_fast() -> Trajectory:
    """The Fig. 8-10 run at ``--fast`` scale (k=100, 8 rounds)."""
    sc = config.scale(True)
    problem = _ostd_problem(config.ostd_field(), 100, sc.n_rounds)
    return _mobile(problem, sc.resolution)


def faults_slice() -> Trajectory:
    """Fig. 10 under Bernoulli loss 0.2, a retry, delay 2 and churn."""
    seed = 7
    field = GreenOrbsLightField(
        side=config.SIDE, seed=seed, freeze_sun_at=config.T_REFERENCE
    )
    base = seed * 101
    network = NetworkModel(
        BernoulliLink(0.2, seed=base + 1),
        delay=UniformDelayModel(2, seed=base + 2),
        retry=RetryPolicy(max_retries=1),
        max_age=4,
    )
    churn = RandomChurn(0.03, recover_prob=0.3, seed=base + 3)
    problem = _ostd_problem(field, 100, 20)
    return _mobile(problem, 51, network=network, crash_model=churn)


def sensor_noise() -> Trajectory:
    """The fig10 ``--fast`` run with 0.3 KLux Gaussian read noise."""
    sc = config.scale(True)
    problem = _ostd_problem(config.ostd_field(), 100, sc.n_rounds)
    return _mobile(
        problem, sc.resolution, sensor_noise_std=0.3, sensor_noise_seed=11
    )


def faults_energy() -> Trajectory:
    """fig10 ``--fast`` under every node-level fault and the legacy loss.

    Scheduled deaths (node 5 while crashed), scripted crashes, a battery
    model and a movement budget: the budget and battery kills read
    ``distance_travelled``, so this pins it through the deaths it causes.
    """
    sc = config.scale(True)
    t0 = config.T_REFERENCE
    problem = _ostd_problem(config.ostd_field(), 100, sc.n_rounds)
    return _mobile(
        problem, sc.resolution,
        message_loss=MessageLossModel(0.1, seed=5),
        failure_schedule=NodeFailureSchedule({t0 + 2: [3, 42], t0 + 4: [5]}),
        crash_model=CrashSchedule(
            {t0 + 1: {5: 4, 60: 2}, t0 + 3: {42: 2, 77: 1}}
        ),
        energy_model=EnergyDepletionModel(5.0, move_cost=1.0, idle_cost=0.1),
        energy_budget=4.0,
    )


def trace_sampler() -> Trajectory:
    """fig10 ``--fast`` with two field samples along every move."""
    sc = config.scale(True)
    problem = _ostd_problem(config.ostd_field(), 100, sc.n_rounds)
    return _mobile(
        problem, sc.resolution, trace_sampler=TraceSampler(samples_per_move=2)
    )


def cma_large() -> Trajectory:
    """k=2500 on a 500 m square (the paper's density), 3 rounds, seed 31.

    The default grid start is cocircular, so this is where the choice
    among equally valid Delaunay triangulations shows up in δ.
    """
    field = GreenOrbsLightField(
        side=5 * config.SIDE, seed=31, freeze_sun_at=config.T_REFERENCE
    )
    return _mobile(_ostd_problem(field, 2500, 3), 101)


def centralized_engine() -> CentralizedSimulation:
    """The engine :func:`centralized` runs, before its first round."""
    sc = config.scale(True)
    problem = _ostd_problem(config.ostd_field(), 100, sc.n_rounds)
    return CentralizedSimulation(
        problem, delay_rounds=10, replan_every=2, solver_iterations=2,
        resolution=sc.resolution,
    )


def centralized() -> Trajectory:
    """The centralized FRA-dispatch baseline, delay 10, ``--fast`` scale."""
    rounds = centralized_engine().run().rounds
    positions = np.stack([r.positions for r in rounds])
    return Trajectory(
        positions=positions,
        alive=np.ones(positions.shape[:2], dtype=bool),
        deltas=np.asarray([r.delta for r in rounds], dtype=float),
        rounds=rounds,
    )


def _fra(k: int) -> Trajectory:
    result = solve_osd(
        OSDProblem(k=k, rc=config.RC, reference=config.reference_surface(True)),
        config=FRAConfig(record_history=True),
    )
    positions = np.asarray(result.positions, dtype=float)[None]
    history = [delta for _, delta in result.meta["history"]]
    return Trajectory(
        positions=positions,
        alive=np.ones(positions.shape[:2], dtype=bool),
        deltas=np.asarray(history + [result.delta], dtype=float),
    )


CASES: Dict[str, Callable[[], Trajectory]] = {
    "fig10_fast": fig10_fast,
    "faults_slice": faults_slice,
    "sensor_noise": sensor_noise,
    "faults_energy": faults_energy,
    "trace_sampler": trace_sampler,
    "centralized": centralized,
    "fra_k30": lambda: _fra(30),
    "fra_k100": lambda: _fra(100),
    "cma_large": cma_large,
}


def versions() -> Dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _sha256(array: np.ndarray) -> str:
    a = np.ascontiguousarray(array)
    head = f"{a.dtype.str}{a.shape}".encode()
    return hashlib.sha256(head + a.tobytes()).hexdigest()


def summary(traj: Trajectory) -> Dict[str, list]:
    """Short float summary: enough to read a failure, and to compare by
    tolerance when the digests come from other library versions."""
    return {
        "deltas": [float(d) for d in traj.deltas],
        "alive_per_round": [int(n) for n in traj.alive.sum(axis=1)],
        "position_sum_per_round": [
            [float(x), float(y)] for x, y in traj.positions.sum(axis=1)
        ],
    }


def digest(traj: Trajectory) -> Dict[str, object]:
    return {
        "sha256": {
            "positions": _sha256(np.asarray(traj.positions, dtype=np.float64)),
            "alive": _sha256(np.asarray(traj.alive, dtype=bool)),
            "deltas": _sha256(np.asarray(traj.deltas, dtype=np.float64)),
        },
        "summary": summary(traj),
        "versions": versions(),
    }
