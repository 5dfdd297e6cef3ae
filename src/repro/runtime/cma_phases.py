"""The six CMA phases of Table 2, as composable runtime phase units.

This is the body of the old 582-line ``MobileSimulation._step_phases``
monolith, cut along its phase boundaries. Each class below is one
:class:`~repro.runtime.phase.Phase`; the mobile engine composes them into
a :class:`~repro.runtime.scheduler.Scheduler` as::

    capture → sense → exchange → plan → constrain_move → lcm
            → trace → measure

with failure injection, observability spans and recorder dispatch
supplied by middleware rather than inline calls. The numerical content
of every phase is transplanted verbatim — a full run through the
scheduler reproduces the pre-refactor per-round positions and δ series
bit for bit (pinned by ``tests/runtime/`` and the regression bands).

Phases are stateless: the fleet lives in the engine's
:class:`~repro.runtime.state.WorldState` (``ctx.engine.state``), whose
arrays they index and write in place, and per-round scratch on the
:class:`MobileRoundContext`, so one phase instance can serve any number
of engines or rounds. Moves write rows of ``state.positions``, so no
phase keeps a row view across a move: plans are made from the round's
pre-move copy (``ctx.positions``), which nothing writes.

Sense and plan evaluate every alive node in one pass over packed arrays
(:mod:`repro.core.cma`); constrain-move and LCM stay sequential in node
order, because each move reads rows earlier movers wrote (DESIGN.md
§6.16).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.cma import (
    CMAPlan,
    FleetSensing,
    NeighborTable,
    estimate_own_curvature,
    plan_move,
)
from repro.core.lcm import lcm_adjustment
from repro.fields.base import sample_grid
from repro.geometry.spatial_index import radius_adjacency
from repro.graphs.geometric import unit_disk_graph
from repro.graphs.traversal import connected_components
from repro.runtime.phase import RoundContext
from repro.runtime.records import RoundRecord
from repro.surfaces.reconstruction import reconstruct_surface

__all__ = [
    "MobileRoundContext",
    "CapturePhase",
    "SensePhase",
    "ExchangePhase",
    "PlanPhase",
    "ConstrainMovePhase",
    "LcmPhase",
    "TraceSamplePhase",
    "MeasurePhase",
    "CMA_PHASES",
]


class MobileRoundContext(RoundContext):
    """Typed scratch the CMA phases hand each other within one round."""

    __slots__ = (
        "positions", "alive_mask", "alive_ids", "snapshot", "sensor",
        "sensing", "inboxes", "plan",
        "n_moved", "force_norms", "n_lcm_moves",
        "extra_positions", "extra_values",
    )

    def __init__(self, engine) -> None:
        super().__init__(engine)
        self.positions: Optional[np.ndarray] = None
        self.alive_mask: Optional[np.ndarray] = None
        self.alive_ids: List[int] = []
        self.snapshot = None
        self.sensor = None
        #: The alive nodes' sensing, curvature weights normalised.
        self.sensing: Optional[FleetSensing] = None
        self.inboxes: List[list] = []
        self.plan: Optional[CMAPlan] = None
        self.n_moved = 0
        self.force_norms: np.ndarray = np.empty(0)
        self.n_lcm_moves = 0
        self.extra_positions: List[np.ndarray] = []
        self.extra_values: List[np.ndarray] = []


class CapturePhase:
    """Copy the round's pre-move positions and alive mask once.

    Phases before the move step all read this copy; it also keeps each
    plan's ``origin`` fixed while constrain-move and LCM write the live
    rows. Runs un-spanned — it is bookkeeping, not one of the paper's
    phases.
    """

    name = "capture"
    span_name = None

    def run(self, ctx: MobileRoundContext) -> None:
        engine = ctx.engine
        ctx.positions = engine.positions
        ctx.alive_mask = engine.alive_mask
        ctx.alive_ids = np.flatnonzero(ctx.alive_mask).tolist()


class SensePhase:
    """Snapshot the hidden field, sense it, estimate own curvature.

    Weights are normalised by a *deployment-time* calibration constant
    (the fleet's mean sensed |curvature| at t0, a one-shot broadcast
    during initialisation): this makes them dimensionless and comparable
    to the metre-valued repulsion while preserving the spatial contrast
    between feature curvature and background noise. Weights are capped so
    one sharp edge cannot produce an unbounded force.
    """

    name = "sense"
    span_name = "sense"

    def run(self, ctx: MobileRoundContext) -> None:
        # Imported here, not at module top: repro.sim's package init pulls
        # in the engine facade, which imports this module — a top-level
        # import of repro.sim.sensing would make that a cycle whenever
        # this module is the first one loaded.
        from repro.sim.sensing import DiskSensor

        engine = ctx.engine
        state = engine.state
        params = engine.params
        obs = engine.obs
        with obs.span("read"):
            ctx.snapshot = sample_grid(
                engine.problem.field, engine.problem.region,
                engine.resolution, t=engine.t,
            )
            ctx.sensor = DiskSensor(
                ctx.snapshot,
                engine.problem.rs,
                noise_std=engine.sensor_noise_std,
                noise_rng=engine._sensor_rng,
            )
            alive_positions = state.positions[ctx.alive_ids]
            sensing = FleetSensing.pack(
                ctx.sensor.read_many(alive_positions)
            )

        with obs.span("fit"):
            if state.curvature_scale is None:
                mean_curv = (
                    float(np.mean(np.abs(sensing.curvatures)))
                    if sensing.curvatures.size else 0.0
                )
                state.curvature_scale = mean_curv if mean_curv > 0.0 else 1.0
            scale = state.curvature_scale

            curvature = estimate_own_curvature(
                sensing, alive_positions, params
            )
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
            state.curvature[ctx.alive_ids] = curvature
            ctx.sensing = sensing


class ExchangePhase:
    """One beacon exchange round (dead nodes transmit nothing).

    With a :class:`~repro.sim.netmodel.network.NetworkModel` on the
    engine, the exchange runs through the unreliable-network pipeline
    (loss, retries, latency, last-known-neighbour staleness); otherwise
    it is the plain radio, bit-identical to the seed. When the engine is
    instrumented, the networked path is narrated by a
    :class:`~repro.obs.trace.MessageTracer` — every beacon's
    emit→drop→retry→deliver→use chain lands on the event bus as
    ``msg_*`` events keyed by a deterministic trace id. Tracing draws no
    RNG, so traced runs stay bit-identical to untraced ones.
    """

    name = "exchange"
    span_name = "exchange"

    def __init__(self) -> None:
        # One tracer per (phase, instrumentation) pairing; rebuilt if the
        # facade swaps its ``obs`` between rounds.
        self._tracer = None

    def _tracer_for(self, engine):
        obs = engine.obs
        if not obs.enabled:
            return None
        if self._tracer is None or self._tracer.obs is not obs:
            from repro.obs.trace import MessageTracer

            self._tracer = MessageTracer(obs)
        return self._tracer

    def run(self, ctx: MobileRoundContext) -> None:
        engine = ctx.engine
        curvatures = engine.state.curvature
        network = getattr(engine, "network", None)
        if network is not None:
            ctx.inboxes = network.exchange(
                engine.radio, ctx.positions, curvatures, ctx.alive_mask,
                engine.round_index,
                tracer=self._tracer_for(engine),
            )
        else:
            ctx.inboxes = engine.radio.exchange(
                ctx.positions, curvatures, alive=ctx.alive_mask
            )


class PlanPhase:
    """Every alive node plans its move from local sensing + beacons."""

    name = "plan"
    span_name = "plan"

    def run(self, ctx: MobileRoundContext) -> None:
        engine = ctx.engine
        params = engine.params
        ids = ctx.alive_ids
        ctx.plan = plan_move(
            np.asarray(ids, dtype=np.intp),
            ctx.positions[ids],
            ctx.sensing,
            NeighborTable.pack([ctx.inboxes[i] for i in ids], params),
            params,
            engine.problem.region,
        )


class ConstrainMovePhase:
    """Apply moves, clipped so no unbridged link is broken by the mover.

    Connectivity-preserving movement; the follower-side LCM phase repairs
    the rare residual breaks caused by two neighbours moving in the same
    round. Movers go one at a time in node order: each reads the live
    rows of neighbours that moved before it.
    """

    name = "constrain_move"
    span_name = "constrain_move"

    #: Step fractions tried when clipping a move against link constraints.
    ALPHA_LADDER = (1.0, 0.75, 0.5, 0.25, 0.1, 0.0)
    _RUNGS = np.asarray(ALPHA_LADDER)[:, None]

    def run(self, ctx: MobileRoundContext) -> None:
        engine = ctx.engine
        state = engine.state
        rc = engine.problem.rc
        plan = ctx.plan
        ctx.n_moved = 0
        ctx.force_norms = plan.magnitudes
        movers = np.flatnonzero(plan.moved).tolist()
        if not movers:
            return
        id_lists = plan.neighbors.id_lists()
        for row in movers:
            i = int(plan.node_ids[row])
            destination = self.clip_move(
                state.positions, state.alive, i, plan.destinations[row],
                id_lists[row], rc,
            )
            step = destination - state.positions[i]
            if float(np.linalg.norm(step)) > 0.0:
                state.move(i, destination)
                ctx.n_moved += 1

    @classmethod
    def clip_move(
        cls,
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
        candidates = origin + cls._RUNGS * (destination - origin)
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


class LcmPhase:
    """Follower-side LCM (paper lines 19-21) as a repair pass.

    With movers already clipping their own steps, breaks only arise when
    two linked nodes move in the same round; the follower then chases
    onto the mover's ``Rc`` circle. Bridge checks use the current beacon
    positions of the mover's announced table.
    """

    name = "lcm"
    span_name = "lcm"

    #: LCM repair passes per round (followers chasing movers can strand
    #: their own followers, so the pass iterates a bounded number of times).
    MAX_PASSES = 6

    def run(self, ctx: MobileRoundContext) -> None:
        engine = ctx.engine
        obs = engine.obs
        rc = engine.problem.rc
        state = engine.state
        positions, alive = state.positions, state.alive
        n_moves = 0
        n_passes = 0
        movers = ctx.plan.node_ids.tolist()
        tables = ctx.plan.neighbors.id_lists()
        for _ in range(self.MAX_PASSES):
            moves_this_pass = 0
            for m, table in zip(movers, tables):
                if not alive[m]:
                    continue
                if table:
                    # Direct-link prescreen: almost every follower is
                    # still within Rc of the mover, and lcm_adjustment
                    # returns "stay" immediately for those. One batched
                    # distance computation (at this point in the
                    # sequential pass, so earlier moves are reflected)
                    # skips them; the conservative (1 - 1e-12) margin
                    # leaves exact-tie cases to the scalar decision.
                    fdiff = positions[table] - positions[m]
                    d2 = fdiff[:, 0] ** 2 + fdiff[:, 1] ** 2
                    rc2 = rc * rc
                    surely_linked = d2 <= rc2 * (1.0 - 1e-12)
                else:
                    surely_linked = np.empty(0, dtype=bool)
                for f_idx, f in enumerate(table):
                    if not alive[f] or surely_linked[f_idx]:
                        continue
                    # Bridges are gathered (copied) here, after any
                    # earlier follower of this mover moved.
                    bridges = positions[
                        [j for j in table if j != f and alive[j]]
                    ]
                    decision = lcm_adjustment(
                        positions[f], positions[m], bridges, rc
                    )
                    if decision.must_move and decision.target is not None:
                        target = engine.problem.region.clamp(
                            decision.target
                        ).as_array()
                        state.move(f, target)
                        moves_this_pass += 1
            n_moves += moves_this_pass
            n_passes += 1
            if obs.enabled:
                obs.emit(
                    "lcm_pass",
                    round=engine.round_index,
                    pass_index=n_passes - 1,
                    moves=moves_this_pass,
                )
            if moves_this_pass == 0:
                break
        if obs.enabled:
            obs.counter("lcm.passes").inc(n_passes)
            obs.counter("lcm.moves").inc(n_moves)
        ctx.n_lcm_moves = n_moves


class TraceSamplePhase:
    """Record the field along each node's actually travelled path.

    Origin → post-LCM position, skipped entirely when the engine has no
    trace sampler. Historically ran un-spanned between the LCM and
    measure spans; ``span_name = None`` keeps the event stream identical.
    """

    name = "trace"
    span_name = None

    def run(self, ctx: MobileRoundContext) -> None:
        engine = ctx.engine
        ctx.extra_positions = []
        ctx.extra_values = []
        if engine.trace_sampler is None:
            return
        state = engine.state
        plan = ctx.plan
        for i, origin in zip(plan.node_ids.tolist(), plan.origins):
            if not state.alive[i]:
                continue
            pts, vals = engine.trace_sampler.sample_path(
                engine.problem.field, origin, state.positions[i], engine.t,
            )
            if len(pts):
                ctx.extra_positions.append(pts)
                ctx.extra_values.append(vals)


class MeasurePhase:
    """Reconstruct from the nodes' own samples and score δ vs the truth."""

    name = "measure"
    span_name = "measure"

    def run(self, ctx: MobileRoundContext) -> None:
        record = self._measure(ctx)
        record.n_moved = ctx.n_moved
        record.n_lcm_moves = ctx.n_lcm_moves
        record.mean_force = (
            float(np.mean(ctx.force_norms)) if len(ctx.force_norms) else 0.0
        )
        ctx.record = record

    def _measure(self, ctx: MobileRoundContext) -> RoundRecord:
        engine = ctx.engine
        # Post-move state, built once (moves and LCM ran since the
        # round's pre-move matrix was captured).
        positions_now = engine.positions
        alive_now = engine.alive_mask
        n_alive = int(alive_now.sum())
        alive_positions = positions_now[alive_now].reshape(-1, 2)
        pts = alive_positions
        values = engine.problem.field.sample(pts, engine.t)
        n_trace = 0
        if ctx.extra_positions:
            extras = np.vstack(ctx.extra_positions)
            pts = np.vstack([pts, extras])
            values = np.concatenate(
                [values, np.concatenate(ctx.extra_values)]
            )
            n_trace = len(extras)

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
                n_moved=0,
                n_lcm_moves=0,
                mean_force=0.0,
                n_trace_samples=0,
            )

        reconstruction = reconstruct_surface(ctx.snapshot, pts, values=values)
        graph = unit_disk_graph(alive_positions, engine.problem.rc)
        components = connected_components(graph)
        return RoundRecord(
            round_index=engine.round_index,
            t=engine.t,
            positions=positions_now,
            delta=reconstruction.delta,
            rmse=reconstruction.rmse,
            connected=len(components) <= 1,
            n_components=len(components),
            n_alive=n_alive,
            n_moved=0,
            n_lcm_moves=0,
            mean_force=0.0,
            n_trace_samples=n_trace,
        )


#: The canonical CMA round pipeline, in execution order.
CMA_PHASES = (
    CapturePhase,
    SensePhase,
    ExchangePhase,
    PlanPhase,
    ConstrainMovePhase,
    LcmPhase,
    TraceSamplePhase,
    MeasurePhase,
)
