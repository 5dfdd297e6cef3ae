"""Micro-benchmarks of the hot substrate operations.

These are the inner loops every experiment stands on: Delaunay insertion,
vectorised surface evaluation, full-surface reconstruction at several
node counts, the δ metric, relay planning, on-node curvature estimation,
the fleet planner of one CMA round, the beacon-to-LCM tail of a k=2500
round, and one full CMA simulation round.

CI runs this suite and uploads its ``--benchmark-json`` dump; it gates
nothing. Speed claims are made on the calibrated end-to-end benchmark in
``benchmarks/e2e`` instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cma import CMAParams, estimate_own_curvature
from repro.core.fra import foresighted_refinement
from repro.core.problem import OSTDProblem
from repro.fields.base import sample_grid
from repro.fields.greenorbs import GreenOrbsLightField
from repro.geometry.delaunay import DelaunayTriangulation
from repro.geometry.interpolation import LinearSurfaceInterpolator
from repro.geometry.primitives import BoundingBox
from repro.graphs.relay import plan_relays
from repro.runtime import cma_phases
from repro.sim.engine import MobileSimulation, default_grid_layout
from repro.surfaces.metrics import volume_difference
from repro.surfaces.quadric import fit_quadric
from repro.surfaces.reconstruction import reconstruct_surface


@pytest.fixture(scope="module")
def reference():
    field = GreenOrbsLightField(seed=7)
    return sample_grid(field, field.region, 101, t=600.0)


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(0).uniform(0, 100, size=(100, 2))


def test_bench_delaunay_100_points(benchmark, points):
    result = benchmark(lambda: DelaunayTriangulation(points))
    assert result.n_points == 100


def test_bench_delaunay_grid_2500(benchmark):
    """The cma_large start: the row-major grid layout of 2500 nodes.

    Every lattice cell is cocircular, and each insert of a new row
    replaces the fan of super-triangle triangles the row before left, so
    this tracks that churn rather than the walk.
    """
    grid = default_grid_layout(BoundingBox.square(500.0), 2500, 10.0)
    result = benchmark.pedantic(DelaunayTriangulation, args=(grid,),
                                rounds=3, iterations=1, warmup_rounds=0)
    assert result.n_points == 2500


def test_bench_measurement_mesh_100(benchmark, points):
    """The measurement build of the 100 points above: BRIO-sorted inserts."""
    values = np.zeros(len(points))
    result = benchmark(lambda: LinearSurfaceInterpolator(points, values))
    assert len(result.points) == 100


def test_bench_measurement_mesh_grid_2500(benchmark):
    """The measurement build of the cma_large grid start.

    The same triangles as ``test_bench_delaunay_grid_2500``'s row-major
    build, inserted in BRIO order, so the gap between the two is the
    cost of the insertion order alone.
    """
    grid = default_grid_layout(BoundingBox.square(500.0), 2500, 10.0)
    values = np.zeros(len(grid))
    result = benchmark.pedantic(LinearSurfaceInterpolator, args=(grid, values),
                                rounds=3, iterations=1, warmup_rounds=0)
    assert len(result.points) == 2500


def test_bench_interpolator_grid_eval(benchmark, points, reference):
    values = np.sin(points[:, 0] / 9.0)
    interp = LinearSurfaceInterpolator(points, values)
    grid = benchmark(interp.evaluate_grid, reference.xs, reference.ys)
    assert grid.shape == (101, 101)


def test_bench_delta_metric(benchmark, reference, points):
    recon = reconstruct_surface(
        reference, points, values=np.zeros(len(points))
    )
    out = benchmark(volume_difference, reference, recon.surface)
    assert out > 0


def test_bench_relay_planning(benchmark):
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 100, size=(40, 2))
    plan = benchmark(plan_relays, pts, 10.0)
    assert plan.connected


def test_bench_quadric_fit(benchmark):
    rng = np.random.default_rng(2)
    pts = rng.uniform(-5, 5, size=(78, 2))
    z = 0.2 * pts[:, 0] ** 2 + 0.1 * pts[:, 1] ** 2 + rng.normal(0, 0.01, 78)
    fit = benchmark(fit_quadric, pts, z)
    assert fit.a > 0


@pytest.mark.parametrize("k", [100, 400, 900])
def test_bench_reconstruct_scaling(benchmark, reference, k):
    """reconstruct_surface on the 101x101 reference at growing node counts.

    The k=100 case is PR 2's headline acceptance number (>= 5x over the
    seed); 400 and 900 pin how the triangulation build and the grid
    evaluation scale as the Delaunay mesh outgrows the grid resolution.
    """
    rng = np.random.default_rng(k)
    pts = rng.uniform(0, 100, size=(k, 2))
    vals = np.sin(pts[:, 0] / 9.0) * np.cos(pts[:, 1] / 11.0)
    recon = benchmark(reconstruct_surface, reference, pts, values=vals)
    assert recon.surface.values.shape == (101, 101)
    assert np.isfinite(recon.delta)


def test_bench_fra_k30(benchmark, reference):
    result = benchmark.pedantic(
        foresighted_refinement, args=(reference, 30, 10.0),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert result.connected


def test_bench_fra_k200(benchmark, reference):
    """The top of the fra_sweep k range, where foresight costs the most."""
    result = benchmark.pedantic(
        foresighted_refinement, args=(reference, 200, 10.0),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert result.connected


def test_bench_cma_round(benchmark):
    field = GreenOrbsLightField(seed=7, freeze_sun_at=600.0)
    problem = OSTDProblem(
        k=100, rc=10.0, rs=5.0, region=field.region, field=field,
        speed=1.0, t0=600.0, duration=45.0,
    )
    sim = MobileSimulation(problem)
    record = benchmark.pedantic(sim.step, rounds=3, iterations=1,
                                warmup_rounds=0)
    assert record.n_alive == 100


def test_bench_plan_round_100(benchmark):
    """Own-curvature fit + plan + constrain-move of one captured round.

    The fig10 set-up (k=100) after 5 rounds, its sense and exchange
    phases run once; each timed call refits every node, plans the fleet
    from the alive rows of the exchange's table and applies the clipped
    moves, from the same pre-move state.
    """
    field = GreenOrbsLightField(seed=7, freeze_sun_at=600.0)
    problem = OSTDProblem(
        k=100, rc=10.0, rs=5.0, region=field.region, field=field,
        speed=1.0, t0=600.0, duration=45.0,
    )
    sim = MobileSimulation(problem)
    for _ in range(5):
        sim.step()
    positions, alive_mask = sim.positions, sim.alive_mask
    alive_ids = np.flatnonzero(alive_mask).tolist()
    _, sensing = cma_phases.sense(sim, alive_ids)
    table = cma_phases.exchange(sim, positions, alive_mask)
    pre_move = sim.state.copy()
    alive_positions = positions[alive_ids]
    n_moved = []

    def restore():
        sim.state.positions[:] = pre_move.positions
        sim.state.distance_travelled[:] = pre_move.distance_travelled

    def round_plan():
        estimate_own_curvature(sensing, alive_positions, sim.params)
        plan = cma_phases.plan(sim, positions, alive_ids, sensing, table)
        n_moved.append(cma_phases.constrain_move(sim, plan))

    benchmark.pedantic(round_plan, setup=restore, rounds=20, iterations=1,
                       warmup_rounds=1)
    assert n_moved[-1] > 0


def _step_simulation(k: int) -> MobileSimulation:
    """A CMA engine at constant node density (side grows with sqrt(k))."""
    side = 100.0 * float(np.sqrt(k / 100.0))
    field = GreenOrbsLightField(side=side, seed=7, freeze_sun_at=600.0)
    problem = OSTDProblem(
        k=k, rc=10.0, rs=5.0, region=field.region, field=field,
        speed=1.0, t0=600.0, duration=45.0,
    )
    return MobileSimulation(problem)


def test_bench_beacons_to_lcm_2500(benchmark):
    """Exchange → plan → constrain-move → LCM of one k=2500 round.

    The cma_large set-up after one round, its sense phase run once. Each
    timed call exchanges the beacons as one table, plans from its alive
    rows, moves and runs the LCM repair, from the same pre-move state.
    """
    sim = _step_simulation(2500)
    sim.step()
    positions, alive_mask = sim.positions, sim.alive_mask
    alive_ids = np.flatnonzero(alive_mask).tolist()
    _, sensing = cma_phases.sense(sim, alive_ids)
    pre_move = sim.state.copy()

    def restore():
        sim.state.positions[:] = pre_move.positions
        sim.state.distance_travelled[:] = pre_move.distance_travelled

    def round_tail():
        table = cma_phases.exchange(sim, positions, alive_mask)
        plan = cma_phases.plan(sim, positions, alive_ids, sensing, table)
        cma_phases.constrain_move(sim, plan)
        return cma_phases.lcm(sim, plan)

    benchmark.pedantic(round_tail, setup=restore, rounds=5, iterations=1,
                       warmup_rounds=1)
    assert sim.state.positions.shape == (2500, 2)


@pytest.mark.parametrize("k", [100, 400, 900, 2500])
def test_bench_step_scaling(benchmark, k):
    """Full CMA round at growing fleet sizes, constant density.

    The default engine: cell-list neighbor index and a from-scratch
    measurement triangulation every round. The first round (calibration)
    is run untimed; steady-state rounds are the target.
    """
    sim = _step_simulation(k)
    sim.step()
    record = benchmark.pedantic(sim.step, rounds=3, iterations=1,
                                warmup_rounds=0)
    assert record.n_alive == k


def test_bench_step_k900_dense_baseline(benchmark, monkeypatch):
    """k=900 forced onto dense neighbor matrices: the baseline that
    test_bench_step_scaling[900] is compared against."""
    import repro.geometry.spatial_index as spatial_index
    import repro.graphs.geometric as geometric
    import repro.sim.radio as radio

    for module in (spatial_index, geometric, radio):
        monkeypatch.setattr(module, "DENSE_CROSSOVER", 10**9)
    sim = _step_simulation(900)
    sim.step()
    record = benchmark.pedantic(sim.step, rounds=3, iterations=1,
                                warmup_rounds=0)
    assert record.n_alive == 900
