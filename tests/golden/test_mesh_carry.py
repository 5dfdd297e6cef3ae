"""The engine carries its measurement mesh: it builds from scratch once.

Every round's δ is scored on the Delaunay mesh of the alive nodes'
samples. The engine's :class:`DelaunayMesher` repairs last round's mesh
to the moved nodes and builds afresh only when the sampled nodes
change. A regression to a build every round would pass every digest
and only lose the time, so these tests count the builds.
"""

from __future__ import annotations

import numpy as np
import pytest

from golden_cases import digest, faults_slice
from repro.core.problem import OSTDProblem
from repro.experiments import config
from repro.fields.greenorbs import GreenOrbsLightField
from repro.geometry.delaunay import DelaunayMesher
from repro.sim.engine import MobileSimulation
from repro.sim.netmodel.churn import CrashSchedule
from repro.sim.sensing import TraceSampler


@pytest.fixture
def builds(monkeypatch):
    """One entry per from-scratch build of any mesher."""
    seen = []
    real = DelaunayMesher._build

    def counted(self, unique):
        seen.append(len(unique))
        return real(self, unique)

    monkeypatch.setattr(DelaunayMesher, "_build", counted)
    return seen


def _engine(
    side: float, k: int, n_rounds: int, seed: int, **kwargs
) -> MobileSimulation:
    field = GreenOrbsLightField(
        side=side, seed=seed, freeze_sun_at=config.T_REFERENCE
    )
    problem = OSTDProblem(
        k=k, rc=config.RC, rs=config.RS, region=field.region, field=field,
        speed=config.SPEED, t0=config.T_REFERENCE, duration=float(n_rounds),
    )
    return MobileSimulation(
        problem, params=config.cma_params(), resolution=101, **kwargs
    )


def test_fig10_run_builds_once(builds):
    rounds = _engine(config.SIDE, 100, 45, seed=7).run().rounds
    assert len(rounds) == 45
    assert builds == [100]


@pytest.mark.parametrize("seed", [7, 11])
def test_large_run_builds_once(builds, seed):
    rounds = _engine(5 * config.SIDE, 2500, 5, seed=seed).run().rounds
    assert [r.n_moved > 0 for r in rounds] == [True] * 5
    assert builds == [2500]


def _no_carry(monkeypatch) -> None:
    """Make every mesher forget the ids, so every call builds afresh."""
    real = DelaunayMesher.__call__
    monkeypatch.setattr(
        DelaunayMesher, "__call__",
        lambda self, points, ids=None: real(self, points),
    )


def test_churn_rebuilds_when_the_alive_set_changes(builds, monkeypatch):
    t0 = config.T_REFERENCE

    def run():
        crashes = CrashSchedule({t0 + 2: {5: 3, 60: 1}, t0 + 6: {42: 2}})
        engine = _engine(config.SIDE, 100, 10, seed=7, crash_model=crashes)
        rounds, alive = [], []
        for _ in range(10):
            rounds.append(engine.step())
            alive.append(engine.alive_mask.copy())
        return rounds, np.stack(alive)

    rounds, alive = run()
    changes = 1 + int((alive[1:] != alive[:-1]).any(axis=1).sum())
    assert 1 < changes < len(rounds)
    assert len(builds) == changes

    _no_carry(monkeypatch)
    rebuilt, _ = run()
    assert len(builds) == changes + len(rounds)
    assert [r.delta for r in rounds] == [r.delta for r in rebuilt]
    assert np.array_equal(rounds[-1].positions, rebuilt[-1].positions)


def test_trace_samples_rebuild_every_round(builds):
    # Trace samples are points without node ids: nothing to carry.
    engine = _engine(
        config.SIDE, 100, 3, seed=7,
        trace_sampler=TraceSampler(samples_per_move=2),
    )
    rounds = engine.run().rounds
    assert all(r.n_trace_samples > 0 for r in rounds)
    assert len(builds) == 3


def test_networked_churn_run_keeps_its_digest(builds, monkeypatch):
    carried = faults_slice()
    alive = carried.alive
    assert len(builds) == 1 + int((alive[1:] != alive[:-1]).any(axis=1).sum())
    _no_carry(monkeypatch)
    assert digest(carried) == digest(faults_slice())


def test_restore_drops_the_carried_mesh(builds):
    engine = _engine(config.SIDE, 100, 4, seed=7)
    engine.step()
    engine.step()
    state = engine.capture_state()
    carried = engine.mesher
    engine.restore_state(state)
    assert engine.mesher is not carried
    engine.step()
    engine.step()
    assert builds == [100, 100]
    resumed = engine.positions

    straight = _engine(config.SIDE, 100, 4, seed=7)
    for _ in range(4):
        straight.step()
    assert np.array_equal(resumed, straight.positions)
