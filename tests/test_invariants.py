"""Cross-cutting property-based invariants.

These tie multiple subsystems together: metric equivariances, estimator
symmetries, end-to-end determinism, and the connectivity contracts that
the paper's algorithms promise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lcm import lcm_adjustment
from repro.fields.base import GridSample
from repro.surfaces.metrics import volume_difference
from repro.surfaces.quadric import QuadricFitMode, fit_quadric

RC = 10.0


def grid(values, side=10.0):
    values = np.asarray(values, dtype=float)
    xs = np.linspace(0, side, values.shape[1])
    ys = np.linspace(0, side, values.shape[0])
    return GridSample(xs=xs, ys=ys, values=values)


class TestDeltaEquivariance:
    @settings(max_examples=30)
    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.integers(0, 10_000),
    )
    def test_scaling_both_surfaces_scales_delta(self, factor, seed):
        """δ(a·f, a·g) = a·δ(f, g) — δ is homogeneous in field units."""
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(6, 6))
        g = rng.normal(size=(6, 6))
        base = volume_difference(grid(f), grid(g))
        scaled = volume_difference(grid(factor * f), grid(factor * g))
        assert np.isclose(scaled, factor * base, rtol=1e-9)

    @settings(max_examples=30)
    @given(
        st.floats(min_value=-100.0, max_value=100.0),
        st.integers(0, 10_000),
    )
    def test_shared_offset_cancels(self, offset, seed):
        """δ(f + c, g + c) = δ(f, g) — δ ignores a common baseline."""
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(6, 6))
        g = rng.normal(size=(6, 6))
        assert np.isclose(
            volume_difference(grid(f + offset), grid(g + offset)),
            volume_difference(grid(f), grid(g)),
            rtol=1e-9,
            atol=1e-9,
        )


class TestQuadricSymmetries:
    def _disk(self, rng, n=60, radius=5.0):
        angles = rng.uniform(0, 2 * np.pi, n)
        radii = radius * np.sqrt(rng.uniform(0, 1, n))
        return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])

    @settings(max_examples=20)
    @given(
        st.floats(min_value=0.0, max_value=2 * np.pi),
        st.integers(0, 10_000),
    )
    def test_gaussian_curvature_rotation_invariant(self, angle, seed):
        """G = g1·g2 is invariant under rotating the sample cloud."""
        rng = np.random.default_rng(seed)
        pts = self._disk(rng)
        a, b, c = 0.3, -0.15, 0.5
        z = a * pts[:, 0] ** 2 + b * pts[:, 0] * pts[:, 1] + c * pts[:, 1] ** 2
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        rotated = pts @ rot.T
        g_orig = fit_quadric(pts, z).gaussian_curvature()
        g_rot = fit_quadric(rotated, z).gaussian_curvature()
        assert np.isclose(g_orig, g_rot, rtol=1e-6, atol=1e-9)

    @settings(max_examples=20)
    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=-50.0, max_value=50.0),
        st.integers(0, 10_000),
    )
    def test_centered_fit_translation_invariant(self, tx, ty, seed):
        rng = np.random.default_rng(seed)
        pts = self._disk(rng)
        z = 0.2 * pts[:, 0] ** 2 + 0.4 * pts[:, 1] ** 2
        moved = pts + np.array([tx, ty])
        g_orig = fit_quadric(
            pts, z, center=(0.0, 0.0), mode=QuadricFitMode.CENTERED
        ).gaussian_curvature()
        g_moved = fit_quadric(
            moved, z, center=(tx, ty), mode=QuadricFitMode.CENTERED
        ).gaussian_curvature()
        assert np.isclose(g_orig, g_moved, rtol=1e-6, atol=1e-9)


class TestLCMPostconditions:
    @settings(max_examples=50)
    @given(
        st.floats(min_value=-40.0, max_value=40.0),
        st.floats(min_value=-40.0, max_value=40.0),
        st.floats(min_value=-40.0, max_value=40.0),
        st.floats(min_value=-40.0, max_value=40.0),
    )
    def test_after_following_link_is_restored(self, ox, oy, dx, dy):
        own = np.array([ox, oy])
        dest = np.array([dx, dy])
        decision = lcm_adjustment(own, dest, [], RC)
        if decision.must_move:
            assert np.isclose(np.linalg.norm(decision.target - dest), RC)
            # Minimal displacement: the follower never overshoots.
            assert np.linalg.norm(decision.target - own) <= (
                np.linalg.norm(own - dest) + 1e-9
            )
        else:
            assert np.linalg.norm(own - dest) <= RC + 1e-9


class TestEndToEndDeterminism:
    def test_fra_is_a_pure_function(self, greenorbs_reference):
        from repro.core.fra import foresighted_refinement

        a = foresighted_refinement(greenorbs_reference, 25, RC)
        b = foresighted_refinement(greenorbs_reference, 25, RC)
        assert np.array_equal(a.positions, b.positions)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=16, max_value=30), st.integers(0, 100))
    def test_engine_contracts_hold_for_random_configs(self, k, seed):
        """Connectivity + region containment for arbitrary small fleets.

        The paper's connectivity guarantee assumes a *connected* initial
        state (Section 5.2); hypothesis configs whose default grid is
        disconnected are skipped rather than counted as failures.
        """
        from hypothesis import assume

        from repro.core.problem import OSTDProblem
        from repro.fields.greenorbs import GreenOrbsLightField
        from repro.graphs.geometric import unit_disk_graph
        from repro.graphs.traversal import is_connected
        from repro.sim.engine import MobileSimulation

        field = GreenOrbsLightField(side=50.0, seed=seed, freeze_sun_at=600.0)
        problem = OSTDProblem(
            k=k, rc=12.0, rs=5.0, region=field.region, field=field,
            speed=1.0, t0=600.0, duration=3.0,
        )
        sim = MobileSimulation(problem, resolution=26)
        assume(is_connected(unit_disk_graph(sim.positions, problem.rc)))
        result = sim.run()
        assert result.always_connected
        for record in result.rounds:
            assert (record.positions >= 0.0).all()
            assert (record.positions <= 50.0).all()

    def test_disconnected_start_does_not_crash(self):
        """A disconnected initial layout degrades, never raises."""
        from repro.core.problem import OSTDProblem
        from repro.fields.greenorbs import GreenOrbsLightField
        from repro.sim.engine import MobileSimulation

        field = GreenOrbsLightField(side=50.0, seed=0, freeze_sun_at=600.0)
        problem = OSTDProblem(
            k=9, rc=12.0, rs=5.0, region=field.region, field=field,
            speed=1.0, t0=600.0, duration=3.0,
        )
        result = MobileSimulation(problem, resolution=26).run()
        assert len(result.rounds) == 3
        assert np.isfinite(result.deltas).all()


class TestInterpolationBounds:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=5, max_value=25), st.integers(0, 10_000))
    def test_dt_bounded_by_sample_range_inside_hull(self, n, seed):
        """Piecewise-linear DT never over/undershoots the sample range."""
        from repro.geometry.interpolation import LinearSurfaceInterpolator

        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 50, size=(n, 2))
        values = rng.normal(size=n)
        interp = LinearSurfaceInterpolator(pts, values, extrapolate="nan")
        q = rng.uniform(0, 50, size=(150, 2))
        out = interp(q[:, 0], q[:, 1])
        inside = ~np.isnan(out)
        if inside.any():
            assert out[inside].min() >= values.min() - 1e-9
            assert out[inside].max() <= values.max() + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=4, max_value=20), st.integers(0, 10_000))
    def test_clamped_extrapolation_also_bounded(self, n, seed):
        from repro.geometry.interpolation import LinearSurfaceInterpolator

        rng = np.random.default_rng(seed)
        pts = rng.uniform(20, 30, size=(n, 2))
        values = rng.normal(size=n)
        interp = LinearSurfaceInterpolator(pts, values, extrapolate="clamp")
        q = rng.uniform(0, 50, size=(100, 2))
        out = interp(q[:, 0], q[:, 1])
        assert out.min() >= values.min() - 1e-9
        assert out.max() <= values.max() + 1e-9


class TestEngineEdgeCases:
    def test_single_mobile_node(self):
        from repro.core.problem import OSTDProblem
        from repro.fields.greenorbs import GreenOrbsLightField
        from repro.sim.engine import MobileSimulation

        field = GreenOrbsLightField(side=30.0, seed=5, freeze_sun_at=600.0)
        problem = OSTDProblem(
            k=1, rc=10.0, rs=5.0, region=field.region, field=field,
            speed=1.0, t0=600.0, duration=3.0,
        )
        result = MobileSimulation(problem, resolution=16).run()
        assert len(result.rounds) == 3
        assert result.always_connected  # a single node is trivially connected

    def test_all_nodes_dead_mid_run(self):
        """The engine must survive the fleet dying entirely."""
        from repro.core.problem import OSTDProblem
        from repro.fields.greenorbs import GreenOrbsLightField
        from repro.sim.engine import MobileSimulation
        from repro.sim.netmodel import NodeFailureSchedule

        field = GreenOrbsLightField(side=30.0, seed=5, freeze_sun_at=600.0)
        problem = OSTDProblem(
            k=4, rc=15.0, rs=5.0, region=field.region, field=field,
            speed=1.0, t0=600.0, duration=3.0,
        )
        schedule = NodeFailureSchedule(at={601.0: [0, 1, 2, 3]})
        sim = MobileSimulation(
            problem, resolution=16, failure_schedule=schedule
        )
        first = sim.step()
        assert first.n_alive == 4
        # After the massacre, rounds still complete; with no samplers the
        # reconstruction is undefined and delta is reported as NaN.
        later = sim.step()
        assert later.n_alive == 0
        assert np.isnan(later.delta)
