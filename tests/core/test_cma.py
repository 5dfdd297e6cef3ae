"""Tests for the CMA planner, one node at a time through the fleet API."""

import numpy as np
import pytest

from cma_reference import LocalSensing, pack
from exchange_reference import records_table
from repro.core.cma import (
    CMAParams,
    NeighborObservation,
    estimate_own_curvature,
    plan_move,
)
from repro.geometry.primitives import BoundingBox
from repro.surfaces.quadric import QuadricFitMode

REGION = BoundingBox.square(100.0)


def sensing_from(fn, center, rs=5.0):
    xs = np.arange(center[0] - rs, center[0] + rs + 0.5)
    ys = np.arange(center[1] - rs, center[1] + rs + 0.5)
    xx, yy = np.meshgrid(xs, ys)
    mask = (xx - center[0]) ** 2 + (yy - center[1]) ** 2 <= rs**2
    pts = np.column_stack([xx[mask], yy[mask]])
    values = fn(pts[:, 0], pts[:, 1])
    curv = np.zeros(len(pts))
    return LocalSensing(positions=pts, values=values, curvatures=curv)


def own_curvature(sensing, center, params):
    """One node's quadric curvature through the fleet fit."""
    return estimate_own_curvature(
        pack([sensing]), np.array([center], dtype=float), params
    )[0]


def plan_one(pos, sensing, nbrs, params, region=None):
    """A fleet of one: node 0 at ``pos``."""
    return plan_move(
        np.array([0]), pos[None, :], pack([sensing]),
        records_table([nbrs]).usable(params), params, region or REGION,
    )


class TestParams:
    def test_defaults_match_paper(self):
        p = CMAParams()
        assert p.rc == 10.0
        assert p.rs == 5.0
        assert p.beta == 2.0
        assert p.speed == 1.0

    def test_max_step(self):
        assert CMAParams(speed=1.0, dt=1.0).max_step == 1.0
        assert CMAParams(speed=20.0, dt=1.0, rs=5.0).max_step == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CMAParams(speed=0.0)
        with pytest.raises(ValueError):
            CMAParams(dt=0.0)
        with pytest.raises(ValueError):
            CMAParams(step_gain=0.0)
        with pytest.raises(ValueError):
            CMAParams(rc=-1.0)


class TestSensing:
    def test_validation(self):
        with pytest.raises(ValueError):
            LocalSensing(
                positions=np.zeros((3, 2)),
                values=np.zeros(3),
                curvatures=np.zeros(2),
            )

    def test_peak_selection(self):
        s = LocalSensing(
            positions=np.array([[0.0, 0.0], [1.0, 1.0]]),
            values=np.zeros(2),
            curvatures=np.array([0.5, 2.0]),
        )
        pos, curv, found = pack([s]).peaks()
        assert np.allclose(pos[0], [1.0, 1.0])
        assert curv[0] == 2.0
        assert found[0]

    def test_empty_peak(self):
        s = LocalSensing(
            positions=np.empty((0, 2)), values=np.empty(0), curvatures=np.empty(0)
        )
        pos, curv, found = pack([s]).peaks()
        assert not found[0]
        assert curv[0] == 0.0 and np.array_equal(pos[0], [0.0, 0.0])


class TestOwnCurvature:
    def test_quadric_on_bowl(self):
        center = (50.0, 50.0)
        bowl = lambda x, y: 0.1 * ((x - 50) ** 2 + (y - 50) ** 2)
        s = sensing_from(bowl, center)
        g = own_curvature(s, center, CMAParams())
        # a = c = 0.1, b = 0 -> g1 = g2 = 0.2, G = 0.04.
        assert np.isclose(g, 0.04, atol=1e-9)

    def test_too_few_samples_zero(self):
        s = LocalSensing(
            positions=np.zeros((2, 2)), values=np.zeros(2), curvatures=np.zeros(2)
        )
        assert own_curvature(s, (0.0, 0.0), CMAParams()) == 0.0

    def test_signed_mode(self):
        center = (50.0, 50.0)
        saddle = lambda x, y: 0.1 * (x - 50) * (y - 50)
        s = sensing_from(saddle, center)
        g_abs = own_curvature(s, center, CMAParams())
        g_signed = own_curvature(s, center, CMAParams(signed_curvature=True))
        assert g_signed < 0 < g_abs


class TestPlanMove:
    def flat_sensing(self, center):
        return sensing_from(lambda x, y: np.zeros_like(x), center)

    def test_balanced_node_stays(self):
        pos = np.array([50.0, 50.0])
        nbrs = [
            NeighborObservation(1, np.array([55.0, 50.0]), 1.0),
            NeighborObservation(2, np.array([45.0, 50.0]), 1.0),
            NeighborObservation(3, np.array([50.0, 55.0]), 1.0),
            NeighborObservation(4, np.array([50.0, 45.0]), 1.0),
        ]
        plan = plan_one(pos, self.flat_sensing(pos), nbrs, CMAParams())
        # Attractions cancel; repulsion cancels; flat field -> tiny force.
        assert (
            not plan.moved[0]
            or np.linalg.norm(plan.destinations[0] - pos) < 0.5
        )

    def test_unbalanced_moves_toward_heavy_side(self):
        pos = np.array([50.0, 50.0])
        nbrs = [
            NeighborObservation(1, np.array([58.0, 50.0]), 3.0),
            NeighborObservation(2, np.array([42.0, 50.0]), 0.0),
        ]
        plan = plan_one(pos, self.flat_sensing(pos), nbrs, CMAParams())
        assert plan.moved[0]
        assert plan.destinations[0, 0] > pos[0]

    def test_speed_cap_respected(self):
        pos = np.array([50.0, 50.0])
        nbrs = [NeighborObservation(1, np.array([59.0, 50.0]), 100.0)]
        params = CMAParams(speed=1.0, dt=1.0)
        plan = plan_one(pos, self.flat_sensing(pos), nbrs, params)
        assert (
            np.linalg.norm(plan.destinations[0] - pos)
            <= params.max_step + 1e-9
        )

    def test_destination_clamped_to_region(self):
        pos = np.array([0.5, 0.5])
        nbrs = [NeighborObservation(1, np.array([0.0, 0.0]), 0.0)]
        plan = plan_one(
            pos, self.flat_sensing(pos), nbrs,
            CMAParams(speed=50.0, dt=1.0, step_gain=10.0),
        )
        assert REGION.contains(tuple(plan.destinations[0]), tol=1e-9)

    def test_plan_carries_neighbor_table(self):
        pos = np.array([50.0, 50.0])
        nbrs = [NeighborObservation(7, np.array([55.0, 50.0]), 1.0)]
        plan = plan_one(pos, self.flat_sensing(pos), nbrs, CMAParams())
        assert plan.neighbors.id_lists() == [[7]]

    def test_no_neighbors_no_peak_stays(self):
        pos = np.array([50.0, 50.0])
        empty = LocalSensing(
            positions=np.empty((0, 2)), values=np.empty(0), curvatures=np.empty(0)
        )
        plan = plan_one(pos, empty, [], CMAParams())
        assert not plan.moved[0]
