"""Engine connectivity records against an independent networkx oracle.

The golden digests hash positions, alive masks and δ, not what the
engines record about connectivity. These checks rerun two golden cases
and recompute, per round, the component count of the radius-``Rc``
unit-disk graph over the alive nodes and the centralized engine's
collection traffic with networkx.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import golden_cases
from repro.experiments import config
from repro.sim.netmodel import NodeFailureSchedule

nx = pytest.importorskip("networkx")


def unit_disk_oracle(pts: np.ndarray, rc: float):
    g = nx.Graph()
    g.add_nodes_from(range(len(pts)))
    xy = pts.tolist()
    for i, (xi, yi) in enumerate(xy):
        for j in range(i + 1, len(xy)):
            dx, dy = xi - xy[j][0], yi - xy[j][1]
            if math.sqrt(dx * dx + dy * dy) <= rc:
                g.add_edge(i, j)
    return g


def assert_components_match(traj) -> None:
    for record, alive in zip(traj.rounds, traj.alive):
        assert record.n_alive == int(alive.sum())
        g = unit_disk_oracle(record.positions[alive], config.RC)
        expected = nx.number_connected_components(g)
        assert record.n_components == expected, record.round_index
        assert record.connected == (0 < expected <= 1), record.round_index


def test_faults_slice_components():
    assert_components_match(golden_cases.faults_slice())


def test_centralized_components_and_messages():
    engine = golden_cases.centralized_engine()
    centre = engine.problem.region.center.as_array()
    start = engine.positions
    rounds = engine.run().rounds
    for record in rounds:
        g = unit_disk_oracle(record.positions, config.RC)
        expected = nx.number_connected_components(g)
        assert record.n_components == expected, record.round_index
        assert record.connected == (expected <= 1), record.round_index
        # Replan rounds spend the collection traffic of the positions
        # the round starts from.
        if record.round_index % engine.replan_every:
            assert record.n_messages == 0
        else:
            sink = int(np.argmin(np.linalg.norm(start - centre, axis=1)))
            lengths = nx.single_source_shortest_path_length(
                unit_disk_oracle(start, config.RC), sink
            )
            assert record.n_messages == 2 * sum(lengths.values())
        start = record.positions
    assert any(r.n_messages > 0 for r in rounds)


def test_dead_fleet_is_not_connected():
    k = 16
    problem = golden_cases._ostd_problem(config.ostd_field(), k, 3)
    schedule = NodeFailureSchedule({config.T_REFERENCE + 1: list(range(k))})
    traj = golden_cases._mobile(problem, 21, failure_schedule=schedule)
    assert_components_match(traj)
    assert [r.n_alive for r in traj.rounds] == [k, 0, 0]
    for record in traj.rounds[1:]:
        assert record.connected is False
        assert record.n_components == 0
