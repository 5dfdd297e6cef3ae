"""The in-process workloads: what one scenario repetition runs and checks.

Every input is generated from the workload seed: the field (the seed is
the field seed, so seed 7 is the paper's canonical field), the random
placements and the network model seeds. The program receives only
those generated inputs.

A workload exposes:

* ``setup(seed)`` builds the inputs (timed separately as ``setup_s``);
* ``warm_up()`` runs a short piece of the scenario so lazy imports and
  per-process caches are filled before anything is timed;
* ``run_once(sample)`` runs one repetition and returns a :class:`Rep`,
  calling ``sample`` (the calibration kernel) between its steps;
* ``check(rep)`` returns ``None`` when the repetition's outputs are
  correct, else a one-line reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.baselines import random_placement
from repro.core.fra import solve_osd
from repro.core.problem import OSDProblem, OSTDProblem
from repro.experiments import config
from repro.fields.base import sample_grid
from repro.fields.greenorbs import GreenOrbsLightField
from repro.fields.grid import GridField
from repro.sim.engine import MobileSimulation
from repro.sim.netmodel import (
    BernoulliLink,
    NetworkModel,
    RandomChurn,
    RetryPolicy,
    UniformDelayModel,
)
from repro.sim.recorders import Recorder
from repro.surfaces.reconstruction import reconstruct_surface

#: Random placements scored per k in the FRA sweep (the paper's baseline).
RANDOM_PLACEMENTS = 5


@dataclass
class Rep:
    """One scenario repetition, as measured (calibration kernel excluded)."""

    wall_s: float
    #: Wall time of each segment: a CMA round, one k of the FRA sweep,
    #: or one served job from submit to its ``end`` event.
    segments_s: List[float]
    #: Kernel timings (ms): one before the first segment, one after each.
    cal_ms: List[float]
    #: What the correctness check and the quality report read.
    outcome: Dict[str, Any] = field(default_factory=dict)
    #: Consecutive segments that make up one step (the unit of
    #: ``step_ms_p50``): one CMA round or served job, the whole FRA sweep.
    segments_per_step: int = 1

    @property
    def steps_s(self) -> List[float]:
        n = self.segments_per_step
        return [sum(self.segments_s[i:i + n])
                for i in range(0, len(self.segments_s), n)]


class SegmentClock(Recorder):
    """Times segments and the calibration kernel between them.

    The kernel runs before the first segment and after every segment;
    its own time is kept out of the segments and out of the repetition's
    wall time. As a recorder, the engine ends a segment after each round.
    """

    def __init__(self, sample: Callable[[], float]) -> None:
        self._sample = sample
        self.segments: List[float] = []
        self.cal: List[float] = []
        self.kernel_s = 0.0
        self._last = 0.0

    def start(self) -> None:
        self._calibrate()

    def segment_done(self) -> None:
        self.segments.append(perf_counter() - self._last)
        self._calibrate()

    def on_round(self, record) -> None:
        self.segment_done()

    def _calibrate(self) -> None:
        t0 = perf_counter()
        self.cal.append(self._sample())
        self._last = perf_counter()
        self.kernel_s += self._last - t0

    def rep(self, t0: float, outcome: Dict[str, Any],
            segments_per_step: int = 1) -> Rep:
        """The repetition that started at ``t0`` and ends now."""
        wall = perf_counter() - t0 - self.kernel_s
        return Rep(wall_s=wall, segments_s=self.segments, cal_ms=self.cal,
                   outcome=outcome, segments_per_step=segments_per_step)


def _same_series(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.array_equal(a, b, equal_nan=True))


class CmaWorkload:
    """A mobile CMA run: k nodes from the grid start for n rounds."""

    def __init__(self, name: str, side: float, k: int, n_rounds: int,
                 faults: bool = False, warm_rounds: Optional[int] = None) -> None:
        self.name = name
        self.side = side
        self.k = k
        self.n_rounds = n_rounds
        self.faults = faults
        #: The first full run in a process is slower than the rest (the
        #: allocator is still growing), so warm up with one unless that
        #: is too long.
        self.warm_rounds = warm_rounds or n_rounds
        self.seed = 0
        self.problem: Optional[OSTDProblem] = None
        self._first: Optional[np.ndarray] = None

    def setup(self, seed: int) -> None:
        self.seed = int(seed)
        field_ = GreenOrbsLightField(
            side=self.side, seed=self.seed, freeze_sun_at=config.T_REFERENCE
        )
        self.problem = OSTDProblem(
            k=self.k, rc=config.RC, rs=config.RS, region=field_.region,
            field=field_, speed=config.SPEED, t0=config.T_REFERENCE,
            duration=float(self.n_rounds),
        )

    def _engine(self, recorders=()) -> MobileSimulation:
        network = churn = None
        if self.faults:
            # Stateful models: a fresh instance per repetition, seeded
            # from the workload seed so every repetition is identical.
            base = self.seed * 101
            network = NetworkModel(
                BernoulliLink(0.2, seed=base + 1),
                delay=UniformDelayModel(2, seed=base + 2),
                retry=RetryPolicy(max_retries=1),
                max_age=4,
            )
            churn = RandomChurn(0.03, recover_prob=0.3, seed=base + 3)
        return MobileSimulation(
            self.problem, params=config.cma_params(), resolution=101,
            network=network, crash_model=churn, recorders=recorders,
        )

    def warm_up(self) -> None:
        self._engine().run(self.warm_rounds)

    def run_once(self, sample, tracer=None) -> Rep:
        clock = SegmentClock(sample)
        t0 = perf_counter()
        engine = self._engine(recorders=[clock])
        clock.start()
        rounds = engine.run().rounds
        return clock.rep(t0, {
            "deltas": np.asarray([r.delta for r in rounds], dtype=float),
            "connected": [bool(r.connected) for r in rounds],
            "alive": [int(r.n_alive) for r in rounds],
            "components": [int(r.n_components) for r in rounds],
        })

    def check(self, rep: Rep) -> Optional[str]:
        out = rep.outcome
        deltas = out["deltas"]
        if len(deltas) != self.n_rounds:
            return f"{len(deltas)} rounds recorded, expected {self.n_rounds}"
        if self._first is None:
            self._first = deltas
        elif not _same_series(deltas, self._first):
            return "delta series differs between repetitions"
        alive = np.asarray(out["alive"]) > 0
        if not np.isfinite(deltas[alive]).all():
            return "non-finite delta in a round with alive nodes"
        if not self.faults:
            # Perfect radio, no failures: the paper's connectivity
            # guarantee must hold in every round.
            if not all(out["connected"]):
                return "fleet disconnected under the perfect radio"
            if min(out["alive"]) != self.k:
                return "nodes died without a failure model"
        return None

    def quality(self, rep: Rep) -> Dict[str, float]:
        deltas = rep.outcome["deltas"]
        return {
            "delta_first": float(deltas[0]),
            "delta_final": float(deltas[-1]),
            "disconnected_rounds": int(
                sum(c > 1 for c in rep.outcome["components"])
            ),
        }


class FraSweepWorkload:
    """Static OSD: FRA for every k of the paper's sweep, plus random baselines."""

    name = "fra_sweep"

    def __init__(self) -> None:
        self.k_sweep = config.FULL.k_sweep
        self.field: Optional[GreenOrbsLightField] = None
        self.placements: Dict[int, List[np.ndarray]] = {}
        self._first: Optional[np.ndarray] = None

    def setup(self, seed: int) -> None:
        self.field = GreenOrbsLightField(side=config.SIDE, seed=int(seed))
        region = self.field.region
        self.placements = {
            k: [
                random_placement(region, k, seed=int(seed) * 1000 + j)
                for j in range(RANDOM_PLACEMENTS)
            ]
            for k in self.k_sweep
        }

    def _reference(self):
        return sample_grid(
            self.field, self.field.region, config.FULL.resolution,
            t=config.T_REFERENCE,
        )

    def warm_up(self) -> None:
        reference = self._reference()
        for k in self.k_sweep[:8]:
            solve_osd(OSDProblem(k=k, rc=config.RC, reference=reference))

    def run_once(self, sample, tracer=None) -> Rep:
        clock = SegmentClock(sample)
        t0 = perf_counter()
        reference = self._reference()
        grid_field = GridField(reference)
        fra_deltas, random_deltas, sizes, connected = [], [], [], []
        clock.start()
        for k in self.k_sweep:
            placed = solve_osd(OSDProblem(k=k, rc=config.RC, reference=reference))
            baseline = [
                reconstruct_surface(reference, pts, values=grid_field.sample(pts)).delta
                for pts in self.placements[k]
            ]
            clock.segment_done()
            fra_deltas.append(placed.delta)
            random_deltas.append(float(np.mean(baseline)))
            sizes.append(len(placed.positions))
            connected.append(bool(placed.meta["connected"]))
        # Per-k costs differ by two orders of magnitude, so a median over
        # k's is no latency anyone waits for: the step is the sweep.
        return clock.rep(t0, {
            "fra_deltas": np.asarray(fra_deltas, dtype=float),
            "random_deltas": np.asarray(random_deltas, dtype=float),
            "sizes": sizes,
            "connected": connected,
        }, segments_per_step=len(self.k_sweep))

    def check(self, rep: Rep) -> Optional[str]:
        out = rep.outcome
        if out["sizes"] != list(self.k_sweep):
            return f"placement sizes {out['sizes']} != k sweep"
        series = np.concatenate([out["fra_deltas"], out["random_deltas"]])
        if not (np.isfinite(series).all() and (series > 0).all()):
            return "non-finite or non-positive delta"
        if self._first is None:
            self._first = series
        elif not _same_series(series, self._first):
            return "delta sweep differs between repetitions"
        return None

    def quality(self, rep: Rep) -> Dict[str, float]:
        out = rep.outcome
        return {
            "delta_fra_mean": float(np.mean(out["fra_deltas"])),
            "delta_random_mean": float(np.mean(out["random_deltas"])),
            "fra_connected": int(sum(out["connected"])),
        }


def in_process_workloads() -> Dict[str, Any]:
    return {
        "cma_fig10": CmaWorkload("cma_fig10", config.SIDE, 100, 45),
        "cma_large": CmaWorkload(
            "cma_large", 5 * config.SIDE, 2500, 5, warm_rounds=2
        ),
        "fra_sweep": FraSweepWorkload(),
        "faults_slice": CmaWorkload(
            "faults_slice", config.SIDE, 100, 45, faults=True
        ),
    }
