"""The CMA round's phases (Table 2), as plain functions of the engine.

:meth:`repro.sim.engine.MobileSimulation.step` calls them in order::

    capture → sense → exchange → plan → constrain_move → lcm
            → trace → measure

Each takes the engine and the values earlier phases returned, and
returns what later phases need; the engine opens the spans around them.
The fleet lives in the engine's :class:`~repro.runtime.state.WorldState`
(``engine.state``), whose arrays they index and write in place. Moves
write rows of ``state.positions``, so no phase keeps a row view across a
move: plans are made from the round's pre-move copy of the positions,
which nothing writes.

Sense and plan evaluate every alive node in one pass over packed arrays
(:mod:`repro.core.cma`), and the exchange hands the planner one
:class:`~repro.core.cma.NeighborTable`; constrain-move and LCM stay
sequential in node order, because each move reads rows earlier movers
wrote, though LCM prescreens the whole table at once (DESIGN.md §6.16).
"""

from __future__ import annotations

from functools import partial
from typing import List, Tuple

import numpy as np

from repro.core.cma import (
    CMAPlan,
    FleetSensing,
    NeighborTable,
    estimate_own_curvature,
    plan_move,
)
from repro.core.lcm import lcm_adjustment
from repro.fields.base import GridSample, sample_grid
from repro.geometry.spatial_index import radius_adjacency
from repro.graphs.geometric import unit_disk_graph
from repro.graphs.traversal import connected_components
from repro.runtime.records import RoundRecord
from repro.surfaces.reconstruction import reconstruct_surface

__all__ = [
    "ALPHA_LADDER",
    "LCM_MAX_PASSES",
    "sense",
    "exchange",
    "plan",
    "constrain_move",
    "clip_move",
    "lcm",
    "trace_samples",
    "measure",
]

#: Step fractions tried when clipping a move against link constraints.
ALPHA_LADDER = (1.0, 0.75, 0.5, 0.25, 0.1, 0.0)
_RUNGS = np.asarray(ALPHA_LADDER)[:, None]

#: LCM repair passes per round (followers chasing movers can strand
#: their own followers, so the pass iterates a bounded number of times).
LCM_MAX_PASSES = 6


def sense(engine, alive_ids: List[int]) -> Tuple[GridSample, FleetSensing]:
    """Snapshot the hidden field, sense it, estimate own curvature.

    Returns the round's field snapshot and the alive nodes' sensing.
    Weights are normalised by a *deployment-time* calibration constant
    (the fleet's mean sensed |curvature| at t0, a one-shot broadcast
    during initialisation): this makes them dimensionless and comparable
    to the metre-valued repulsion while preserving the spatial contrast
    between feature curvature and background noise. Weights are capped so
    one sharp edge cannot produce an unbounded force.
    """
    # Imported here, not at module top: repro.sim's package init pulls
    # in the engine, which imports this module — a top-level import of
    # repro.sim.sensing would make that a cycle whenever this module is
    # the first one loaded.
    from repro.sim.sensing import DiskSensor

    state = engine.state
    params = engine.params
    obs = engine.obs
    with obs.span("read"):
        snapshot = sample_grid(
            engine.problem.field, engine.problem.region,
            engine.resolution, t=engine.t,
        )
        sensor = DiskSensor(
            snapshot,
            engine.problem.rs,
            noise_std=engine.sensor_noise_std,
            noise_rng=engine._sensor_rng,
        )
        alive_positions = state.positions[alive_ids]
        sensing = sensor.read_many(alive_positions)

    with obs.span("fit"):
        if state.curvature_scale is None:
            mean_curv = (
                float(np.mean(np.abs(sensing.curvatures)))
                if sensing.curvatures.size else 0.0
            )
            state.curvature_scale = mean_curv if mean_curv > 0.0 else 1.0
        scale = state.curvature_scale

        curvature = estimate_own_curvature(sensing, alive_positions, params)
        if params.normalize_curvature:
            cap = params.curvature_weight_cap
            thr = params.curvature_threshold
            curvature = np.clip(curvature / scale - thr, 0.0, cap)
            sensing = FleetSensing(
                positions=sensing.positions,
                values=sensing.values,
                curvatures=np.clip(
                    sensing.curvatures / scale - thr, 0.0, cap
                ),
                offsets=sensing.offsets,
            )
        state.curvature[alive_ids] = curvature
    return snapshot, sensing


def exchange(
    engine, positions: np.ndarray, alive_mask: np.ndarray
) -> NeighborTable:
    """One beacon exchange round (dead nodes transmit nothing).

    With a :class:`~repro.sim.netmodel.network.NetworkModel` on the
    engine, the exchange runs through the unreliable-network pipeline
    (loss, retries, latency, last-known-neighbour staleness), which
    counts the round's outcomes into the ``net`` event when
    ``round_scope`` has made an enabled ``engine.obs`` ambient;
    otherwise it is the plain radio, bit-identical to the seed. Returns
    every node's inbox as one table.
    """
    curvatures = engine.state.curvature
    if engine.network is not None:
        return engine.network.exchange(
            engine.radio, positions, curvatures, alive_mask,
            engine.round_index,
        )
    return engine.radio.exchange(positions, curvatures, alive=alive_mask)


def plan(
    engine,
    positions: np.ndarray,
    alive_ids: List[int],
    sensing: FleetSensing,
    table: NeighborTable,
) -> CMAPlan:
    """Every alive node plans its move from local sensing + beacons.

    ``table`` is the exchange's, one row per node; the planners read
    the alive rows' usable records.
    """
    params = engine.params
    return plan_move(
        np.asarray(alive_ids, dtype=np.intp),
        positions[alive_ids],
        sensing,
        table.rows(alive_ids).usable(params),
        params,
        engine.problem.region,
    )


def constrain_move(engine, cma_plan: CMAPlan) -> int:
    """Apply moves, clipped so no unbridged link is broken by the mover.

    Connectivity-preserving movement; the follower-side LCM phase repairs
    the rare residual breaks caused by two neighbours moving in the same
    round. Movers go one at a time in node order: each reads the live
    rows of neighbours that moved before it. Returns how many moved.
    """
    state = engine.state
    rc = engine.problem.rc
    n_moved = 0
    movers = np.flatnonzero(cma_plan.moved).tolist()
    if not movers:
        return n_moved
    id_lists = cma_plan.neighbors.id_lists()
    for row in movers:
        i = int(cma_plan.node_ids[row])
        destination = clip_move(
            state.positions, state.alive, i, cma_plan.destinations[row],
            id_lists[row], rc,
        )
        step = destination - state.positions[i]
        if float(np.linalg.norm(step)) > 0.0:
            state.move(i, destination)
            n_moved += 1
    return n_moved


def clip_move(
    positions: np.ndarray,
    alive: np.ndarray,
    node_id: int,
    destination: np.ndarray,
    neighbor_ids: List[int],
    rc: float,
) -> np.ndarray:
    """Largest rung of the planned step that breaks no unbridged link.

    A link to neighbour ``j`` may stretch beyond ``Rc`` only if some
    other neighbour ``k`` (a bridge) remains within ``Rc`` of both
    ``j`` and the new position. Uses only the node's own neighbour
    table — the information CMA already has — at the live
    ``positions`` rows, which earlier movers may have written.
    """
    nbr_ids = [j for j in neighbor_ids if alive[j]]
    if not nbr_ids:
        return destination
    origin = positions[node_id].copy()
    # Every rung's distances in one batch: (rungs, neighbours).
    candidates = origin + _RUNGS * (destination - origin)
    nbr_pos = positions[nbr_ids]
    diff = nbr_pos[None, :, :] - candidates[:, None, :]
    near = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2) <= rc
    if near[0].all():
        return candidates[0]
    # The full step breaks a link, so the bridge test is needed: a
    # rung holds if every neighbour it leaves is linked to one it
    # keeps. The neighbour-pair link matrix is the same for every
    # rung.
    pair_linked = radius_adjacency(nbr_pos, rc)
    bridged = (pair_linked[None, :, :] & near[:, None, :]).any(axis=2)
    holds = (near | bridged).all(axis=1)
    if not holds.any():
        return origin
    return candidates[int(np.argmax(holds))]


def lcm(engine, cma_plan: CMAPlan) -> int:
    """Follower-side LCM (paper lines 19-21) as a repair pass.

    With movers already clipping their own steps, breaks only arise when
    two linked nodes move in the same round; the follower then chases
    onto the mover's ``Rc`` circle. Each pass visits the planners in
    node order; a planner's followers and bridges are its announced
    table's ids, read at their live ``state.positions`` rows, which
    earlier follower moves of the pass may have written. Returns the
    follower moves made.

    Almost every follower is still within ``Rc`` of its planner, and
    :func:`~repro.core.lcm.lcm_adjustment` keeps those in place at
    once. A direct-link prescreen over every (planner, follower) slot
    skips them (:func:`_linked_slots`); the sequential loop starts at
    the first planner with an alive follower the prescreen does not
    clear. Only a real move changes a position, so the prescreen is
    recomputed for the rows after each planner whose followers moved
    and is otherwise the one a row-by-row pass would compute.
    """
    obs = engine.obs
    rc = engine.problem.rc
    state = engine.state
    positions, alive = state.positions, state.alive
    table = cma_plan.neighbors
    planners = cma_plan.node_ids
    # Followers worth a look: alive, in a filled slot of an alive
    # planner's row. Alive flags do not change during LCM.
    open_slots = table.mask & alive[table.ids] & alive[planners][:, None]
    n_moves = 0
    n_passes = 0
    for _ in range(LCM_MAX_PASSES):
        moves_this_pass = 0
        start = 0
        while True:
            todo = open_slots[start:] & ~_linked_slots(
                positions, planners[start:], table.ids[start:], rc
            )
            moved = 0
            for row in (np.flatnonzero(todo.any(axis=1)) + start).tolist():
                followers = table.ids[row, :table.counts[row]].tolist()
                moved = _follow(
                    engine, int(planners[row]), followers, todo[row - start]
                )
                if moved:
                    break
            if not moved:
                break
            # Positions changed: prescreen the rows after this one anew.
            moves_this_pass += moved
            start = row + 1
        n_moves += moves_this_pass
        n_passes += 1
        if moves_this_pass == 0:
            break
    if obs.enabled:
        obs.counter("lcm.passes").inc(n_passes)
        obs.counter("lcm.moves").inc(n_moves)
    return n_moves


def _linked_slots(
    positions: np.ndarray, planners: np.ndarray, ids: np.ndarray, rc: float
) -> np.ndarray:
    """``(rows, d)``: followers surely within ``Rc`` of their planner.

    The squared distance is taken as the row-by-row check took it; the
    conservative ``1 - 1e-12`` margin leaves exact-tie cases to
    :func:`~repro.core.lcm.lcm_adjustment`. Padding slots read row
    ``-1`` and must be masked by the caller.
    """
    fdiff = positions[ids] - positions[planners][:, None, :]
    d2 = fdiff[..., 0] ** 2 + fdiff[..., 1] ** 2
    rc2 = rc * rc
    return d2 <= rc2 * (1.0 - 1e-12)


def _follow(engine, planner: int, followers: List[int], todo: np.ndarray) -> int:
    """One planner's LCM check for its ``todo`` followers; moves made."""
    state = engine.state
    positions, alive = state.positions, state.alive
    rc = engine.problem.rc
    moves = 0
    for f_idx in np.flatnonzero(todo).tolist():
        f = followers[f_idx]
        # Bridges are gathered (copied) here, after any earlier
        # follower of this planner moved.
        bridges = positions[[j for j in followers if j != f and alive[j]]]
        decision = lcm_adjustment(positions[f], positions[planner], bridges, rc)
        if decision.must_move and decision.target is not None:
            target = engine.problem.region.clamp(decision.target).as_array()
            state.move(f, target)
            moves += 1
    return moves


def trace_samples(
    engine, cma_plan: CMAPlan
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Record the field along each node's actually travelled path.

    Origin → post-LCM position, skipped entirely when the engine has no
    trace sampler. Returns the sample points and values, one array pair
    per node that sampled anything.
    """
    extra_positions: List[np.ndarray] = []
    extra_values: List[np.ndarray] = []
    if engine.trace_sampler is None:
        return extra_positions, extra_values
    state = engine.state
    for i, origin in zip(cma_plan.node_ids.tolist(), cma_plan.origins):
        if not state.alive[i]:
            continue
        pts, vals = engine.trace_sampler.sample_path(
            engine.problem.field, origin, state.positions[i], engine.t,
        )
        if len(pts):
            extra_positions.append(pts)
            extra_values.append(vals)
    return extra_positions, extra_values


def measure(
    engine,
    snapshot: GridSample,
    extra_positions: List[np.ndarray],
    extra_values: List[np.ndarray],
    n_moved: int,
    n_lcm_moves: int,
    force_norms: np.ndarray,
) -> RoundRecord:
    """Reconstruct from the nodes' own samples and score δ vs the truth.

    The mesh is the engine's carried one, named by the alive node ids; a
    round with trace samples has points without ids, so it builds afresh.
    The movement counts and the plan's force magnitudes are carried into
    the round's record.
    """
    # Post-move state, built once (moves and LCM ran since the
    # round's pre-move matrix was captured).
    positions_now = engine.positions
    alive_now = engine.alive_mask
    n_alive = int(alive_now.sum())
    alive_positions = positions_now[alive_now].reshape(-1, 2)
    pts = alive_positions
    values = engine.problem.field.sample(pts, engine.t)
    n_trace = 0
    if extra_positions:
        extras = np.vstack(extra_positions)
        pts = np.vstack([pts, extras])
        values = np.concatenate([values, np.concatenate(extra_values)])
        n_trace = len(extras)
    mean_force = float(np.mean(force_norms)) if len(force_norms) else 0.0

    if len(pts) == 0:
        # The whole fleet is dead: there is no reconstruction to score
        # and no radio graph left — a dead fleet is not "connected".
        return RoundRecord(
            round_index=engine.round_index,
            t=engine.t,
            positions=positions_now,
            delta=float("nan"),
            rmse=float("nan"),
            connected=False,
            n_components=0,
            n_alive=0,
            n_moved=n_moved,
            n_lcm_moves=n_lcm_moves,
            mean_force=mean_force,
            n_trace_samples=0,
        )

    ids = None if n_trace else np.flatnonzero(alive_now)
    reconstruction = reconstruct_surface(
        snapshot, pts, values=values, mesher=partial(engine.mesher, ids=ids)
    )
    labels = connected_components(
        unit_disk_graph(alive_positions, engine.problem.rc)
    )
    n_components = int(labels.max(initial=-1)) + 1
    return RoundRecord(
        round_index=engine.round_index,
        t=engine.t,
        positions=positions_now,
        delta=reconstruction.delta,
        rmse=reconstruction.rmse,
        connected=n_components <= 1,
        n_components=n_components,
        n_alive=n_alive,
        n_moved=n_moved,
        n_lcm_moves=n_lcm_moves,
        mean_force=mean_force,
        n_trace_samples=n_trace,
    )
