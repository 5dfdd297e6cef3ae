"""The centralized baseline's round phases, as plain functions.

:meth:`repro.sim.centralized.CentralizedSimulation.step` calls
:func:`replan`, :func:`move` and :func:`measure` in that order, each
inside its span.
"""

from __future__ import annotations

import numpy as np

from repro.core.cwd import solve_cwd
from repro.core.fra import foresighted_refinement
from repro.fields.base import sample_grid
from repro.graphs.geometric import unit_disk_graph
from repro.graphs.traversal import connected_components, hop_counts
from repro.runtime.records import CentralizedRound
from repro.surfaces.reconstruction import reconstruct_surface

__all__ = ["assign_targets", "replan", "move", "measure"]


def assign_targets(positions: np.ndarray, layout: np.ndarray) -> np.ndarray:
    """Greedy min-distance matching of nodes to planned target positions.

    Repeatedly commits the globally closest (node, target) pair. O(k² log k)
    — fine at fleet scales — and within a small constant of the optimal
    assignment for these spread-out layouts.
    """
    n = len(positions)
    if layout.shape != positions.shape:
        raise ValueError(
            f"layout shape {layout.shape} != positions shape {positions.shape}"
        )
    diff = positions[:, None, :] - layout[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    order = np.dstack(np.unravel_index(np.argsort(dist, axis=None), dist.shape))[0]
    targets = np.empty_like(positions)
    node_done = np.zeros(n, dtype=bool)
    target_done = np.zeros(n, dtype=bool)
    assigned = 0
    for i, j in order:
        if node_done[i] or target_done[j]:
            continue
        targets[i] = layout[j]
        node_done[i] = True
        target_done[j] = True
        assigned += 1
        if assigned == n:
            break
    return targets


def replan(engine) -> int:
    """Global replan on cadence, from delayed information.

    Returns the round's radio messages: the multi-hop collection and
    dispatch traffic of a replan, 0 on rounds between replans.
    """
    state = engine.state
    if engine.round_index % engine.replan_every != 0:
        state.aux["target_info_age"] += 1
        return 0
    info_t = engine.t - engine.delay_rounds * engine.problem.dt
    snapshot = sample_grid(
        engine.problem.field, engine.problem.region, engine.resolution,
        t=info_t,
    )
    if engine.planner == "fra":
        layout = foresighted_refinement(
            snapshot, engine.problem.k, engine.problem.rc
        ).positions
        targets = assign_targets(state.positions, layout)
    else:
        targets = solve_cwd(
            snapshot,
            engine.problem.k,
            rc=engine.problem.rc,
            rs=engine.problem.rs,
            initial=state.positions,
            max_iterations=engine.solver_iterations,
        ).positions
    state.arrays["targets"] = targets
    state.aux["target_info_age"] = engine.delay_rounds
    return _collection_messages(engine)


def _sink_index(engine) -> int:
    centre = engine.problem.region.center.as_array()
    return int(
        np.argmin(np.linalg.norm(engine.state.positions - centre, axis=1))
    )


def _collection_messages(engine) -> int:
    """Hop count for every node reporting to the sink and commands back.

    Unreachable nodes (disconnected from the sink) fail to report;
    their traffic is not counted — they also receive no commands,
    which is part of why centralized control is fragile. One BFS from
    the sink yields every node's hop count (distances are symmetric).
    """
    graph = unit_disk_graph(engine.state.positions, engine.problem.rc)
    dist = hop_counts(graph, _sink_index(engine))
    return 2 * int(dist[dist > 0].sum())  # reports up + commands down


def move(engine) -> None:
    """Move every node toward its target, speed-capped."""
    state = engine.state
    step_cap = engine.problem.speed * engine.problem.dt
    vec = state.arrays["targets"] - state.positions
    dist = np.linalg.norm(vec, axis=1)
    fraction = np.where(
        dist > 0,
        np.minimum(dist, step_cap) / np.maximum(dist, 1e-12),
        0.0,
    )
    state.positions += vec * fraction[:, None]


def measure(engine, n_messages: int) -> CentralizedRound:
    """Score the current layout against the *current* truth."""
    state = engine.state
    positions = state.positions.copy()
    reference = sample_grid(
        engine.problem.field, engine.problem.region, engine.resolution,
        t=engine.t,
    )
    values = engine.problem.field.sample(positions, engine.t)
    recon = reconstruct_surface(reference, positions, values=values)
    labels = connected_components(
        unit_disk_graph(positions, engine.problem.rc)
    )
    n_components = int(labels.max(initial=-1)) + 1
    return CentralizedRound(
        round_index=engine.round_index,
        t=engine.t,
        positions=positions,
        delta=recon.delta,
        connected=n_components <= 1,
        n_components=n_components,
        n_messages=n_messages,
        information_age=state.aux["target_info_age"],
    )
