"""Tests for the unit-disk radio and beacon exchange."""

import numpy as np
import pytest

from repro.sim.netmodel import MessageLossModel
from repro.sim.radio import Radio


class TestNeighborDiscovery:
    def test_basic(self):
        radio = Radio(10.0)
        pts = np.array([[0, 0], [5, 0], [50, 50]], dtype=float)
        ids = radio.neighbor_ids(pts)
        assert ids[0] == [1]
        assert ids[1] == [0]
        assert ids[2] == []

    def test_dead_nodes_invisible(self):
        radio = Radio(10.0)
        pts = np.array([[0, 0], [5, 0], [8, 0]], dtype=float)
        alive = np.array([True, False, True])
        ids = radio.neighbor_ids(pts, alive=alive)
        assert ids[0] == [2]
        assert ids[1] == []  # dead node hears nothing
        assert ids[2] == [0]

    def test_empty(self):
        assert Radio(5.0).neighbor_ids(np.empty((0, 2))) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            Radio(0.0)


class TestExchange:
    def test_observations_carry_state(self):
        radio = Radio(10.0)
        pts = np.array([[0, 0], [5, 0]], dtype=float)
        inboxes = radio.exchange(pts, [1.5, 2.5])
        assert len(inboxes[0]) == 1
        obs = inboxes[0][0]
        assert obs.node_id == 1
        assert np.allclose(obs.position, [5, 0])
        assert obs.curvature == 2.5

    def test_positions_are_copies(self):
        radio = Radio(10.0)
        pts = np.array([[0, 0], [5, 0]], dtype=float)
        inboxes = radio.exchange(pts, [0.0, 0.0])
        inboxes[0][0].position[0] = 999.0
        assert pts[1, 0] == 5.0

    def test_total_loss_silences_network(self):
        class AlwaysLost(MessageLossModel):
            def __init__(self):
                super().__init__(0.5)

            def delivered_many(self, m):
                return np.zeros(m, dtype=bool)

        radio = Radio(10.0, loss=AlwaysLost())
        pts = np.array([[0, 0], [5, 0]], dtype=float)
        inboxes = radio.exchange(pts, [0.0, 0.0])
        assert all(len(inbox) == 0 for inbox in inboxes)

    def test_loss_rate_statistics(self):
        radio = Radio(10.0, loss=MessageLossModel(0.3, seed=0))
        pts = np.array([[0, 0], [5, 0], [5, 5], [0, 5]], dtype=float)
        received = 0
        total = 0
        for _ in range(200):
            inboxes = radio.exchange(pts, [0.0] * 4)
            received += sum(len(i) for i in inboxes)
            total += 12  # 4 nodes x 3 neighbours
        rate = received / total
        assert 0.65 < rate < 0.75
