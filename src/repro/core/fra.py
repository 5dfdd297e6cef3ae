"""The Foresighted Refinement Algorithm (paper Table 1).

FRA solves the (NP-hard) OSD problem approximately with a coarse-to-fine
refinement loop:

1. **Init** — split the square region into two triangles by its diagonal
   (the four corners act as virtual anchors; see DESIGN.md §6.2) and
   compute the local-error array ``Err = |f − DT|`` on the grid.
2. **Foresight** — count the relays ``L(G, Rc)`` needed to connect the
   unit-disk graph over the nodes selected so far; once the remaining
   budget ``k − i`` is no more than ``L``, stop refining and spend the rest
   on relays placed along a Prim MST over the components (paper: "this
   foresight step is carried out by prim algorithm").
3. **Refine** — otherwise insert the grid position of maximum local error
   into the Delaunay triangulation and update ``Err``.

The local-error update is *incremental* (Table 1, line 11): a
Bowyer–Watson insertion only changes the surface on the new triangles,
the fan around the inserted vertex, so only the grid cells those
triangles cover are re-evaluated, each triangle over its own bounding box.
The tests check the grid after every insert against the former
cavity-window update, which rasterised the fan with a
:class:`LinearSurfaceInterpolator`, and against a full recompute.

Besides the paper's max-local-error criterion, the selection rule is
pluggable (curvature / error·curvature product / random) to reproduce the
Garland & Heckbert comparison the paper cites when justifying local error
(Section 4.2) — see the selection ablation experiment.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field as dataclass_field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.problem import OSDProblem, PlacementResult
from repro.fields.base import GridSample
from repro.fields.grid import GridField
from repro.geometry.delaunay import DelaunayTriangulation
from repro.geometry.interpolation import _INSIDE_TOL, LinearSurfaceInterpolator
from repro.graphs.geometric import unit_disk_graph
from repro.graphs.relay import IncrementalRelayCount, plan_relays
from repro.graphs.traversal import is_connected
from repro.obs.instrument import (
    Instrumentation,
    get_instrumentation,
    use_instrumentation,
)
from repro.surfaces.curvature import grid_gaussian_curvature
from repro.surfaces.local_error import argmax_grid
from repro.surfaces.reconstruction import reconstruct_surface


class SelectionCriterion(enum.Enum):
    """Which grid cell the refinement step inserts next."""

    #: The paper's choice: maximum local error |f − DT|.
    LOCAL_ERROR = "local_error"
    #: Maximum |Gaussian curvature| of the reference surface (static).
    CURVATURE = "curvature"
    #: Garland-style product: local error × |curvature|.
    PRODUCT = "product"
    #: Uniformly random unselected cell (needs ``FRAConfig.seed``).
    RANDOM = "random"


@dataclass(frozen=True)
class FRAConfig:
    """Tunables of :func:`foresighted_refinement`."""

    selection: SelectionCriterion = SelectionCriterion.LOCAL_ERROR
    #: When true, the four region corners are real nodes consuming budget
    #: (the alternative reading of the pseudocode; DESIGN.md §6.2).
    corners_are_nodes: bool = False
    #: RNG seed for the RANDOM selection criterion.
    seed: int = 0
    #: Record δ after every selection (costly; for convergence studies).
    record_history: bool = False
    #: Divide each candidate cell's selection score by ``1 + r`` where
    #: ``r`` is the number of relays needed to join it to the nearest
    #: already-selected node. This extends the foresight into the pick
    #: itself: a far-flung cell must be proportionally more valuable than a
    #: reachable one, because committing to it also commits relay budget.
    #: Without it, greedy max-error scatters across isolated field features
    #: at small k and relay chains consume most of the budget (DESIGN.md
    #: §6.4). Disable for the paper-literal pick rule.
    cost_aware_selection: bool = True
    #: Include the 4 corner anchors (with their *historical* values) in the
    #: final reconstruction. FRA's triangulation always contains them, and
    #: the OSD setting explicitly provides historical data, so the deployed
    #: system legitimately keeps those priors in its model; without them a
    #: small clustered deployment extrapolates flatly over most of the
    #: region. Ignored when ``corners_are_nodes`` (they are real nodes then).
    anchors_in_reconstruction: bool = True


@dataclass
class FRAResult:
    """Output of :func:`foresighted_refinement`."""

    positions: np.ndarray
    n_refinement: int
    n_relays: int
    n_leftover: int
    connected: bool
    #: (i, delta) pairs when ``record_history`` was set.
    history: List[Tuple[int, float]] = dataclass_field(default_factory=list)
    #: The 4 virtual corner anchors (empty when ``corners_are_nodes``).
    anchor_positions: np.ndarray = dataclass_field(
        default_factory=lambda: np.empty((0, 2))
    )

    @property
    def k(self) -> int:
        return len(self.positions)


class _ErrorTracker:
    """Maintains the triangulation and the local-error grid during FRA."""

    def __init__(self, reference: GridSample, obs: Instrumentation) -> None:
        self.reference = reference
        self.obs = obs
        self.tri = DelaunayTriangulation()
        #: (x, y, f) of each vertex, by triangulation index.
        self.vertices: List[Tuple[float, float, float]] = []
        self.err = np.zeros_like(reference.values)
        # Axes as lists, for bisect: the same bounds searchsorted gives.
        self._xs = reference.xs.tolist()
        self._ys = reference.ys.tolist()

    def insert(self, x: float, y: float, z: float) -> int:
        index = self.tri.insert((x, y))
        if index != len(self.vertices):
            raise RuntimeError("triangulation index out of sync with values")
        self.vertices.append((x, y, z))
        fan = self.tri.new_triangles
        if len(fan):
            with self.obs.span("rasterize"):
                self._update_fan(fan.tolist())
        elif len(self.tri.simplices):
            self._recompute_all()
        return index

    def _recompute_all(self) -> None:
        xyz = np.asarray(self.vertices, dtype=float)
        approx = LinearSurfaceInterpolator(
            xyz[:, :2], xyz[:, 2], triangulation=self.tri.simplices
        ).evaluate_grid(self.reference.xs, self.reference.ys)
        self.err = np.abs(self.reference.values - approx)

    def _update_fan(self, fan: List[List[int]]) -> None:
        """Re-evaluate |f − DT| on the cells the new triangles cover.

        Each triangle is evaluated on its own bounding-box slice of the
        grid with the rasteriser's barycentric formula, term for term
        (:meth:`LinearSurfaceInterpolator._bary_tables`), so every cell
        gets the value a rasterisation of the fan gives it. Near-zero-area
        triangles are skipped, as the interpolator drops them. A cell on a
        shared edge keeps the first claiming row's value: the rows are
        written in reverse, so the first one writes last.
        """
        xs, ys = self.reference.xs, self.reference.ys
        xl, yl = self._xs, self._ys
        vertices = self.vertices
        for a, b, c in reversed(fan):
            ax, ay, va = vertices[a]
            bx, by, vb = vertices[b]
            cx, cy, vc = vertices[c]
            det = (by - cy) * (ax - cx) + (cx - bx) * (ay - cy)
            if abs(det) <= 1e-9:
                continue
            i0 = bisect_left(xl, min(ax, bx, cx) - _INSIDE_TOL)
            i1 = bisect_right(xl, max(ax, bx, cx) + _INSIDE_TOL)
            j0 = bisect_left(yl, min(ay, by, cy) - _INSIDE_TOL)
            j1 = bisect_right(yl, max(ay, by, cy) + _INSIDE_TOL)
            if i0 >= i1 or j0 >= j1:
                continue
            dx = xs[i0:i1] - cx
            dy = (ys[j0:j1] - cy)[:, None]
            wa = ((by - cy) * dx + (cx - bx) * dy) / det
            wb = ((cy - ay) * dx + (ax - cx) * dy) / det
            wc = 1.0 - wa - wb
            inside = (wa >= -_INSIDE_TOL) & (wb >= -_INSIDE_TOL)
            inside &= wc >= -_INSIDE_TOL
            approx = wa * va + wb * vb + wc * vc
            np.copyto(
                self.err[j0:j1, i0:i1],
                np.abs(self.reference.values[j0:j1, i0:i1] - approx),
                where=inside,
            )


def foresighted_refinement(
    reference: GridSample,
    k: int,
    rc: float,
    config: Optional[FRAConfig] = None,
    obs: Optional[Instrumentation] = None,
) -> FRAResult:
    """Run FRA: place ``k`` nodes against the referential surface.

    Returns the node layout plus bookkeeping (how many nodes went to
    refinement, relays, and leftovers). ``connected`` reports whether the
    final unit-disk graph is connected; with very small ``k`` over a large
    region it may not be achievable, in which case the largest components
    are joined first and the flag is False.

    When instrumentation is enabled (``obs`` or the ambient instance from
    :func:`repro.obs.use_instrumentation`), every refinement iteration
    emits a ``fra_refine`` event (inserted point, max local error
    before/after, remaining budget) and the loop's exit emits ``fra_stop``
    with the foresight budget state.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if rc <= 0:
        raise ValueError(f"Rc must be positive, got {rc}")
    cfg = config or FRAConfig()
    obs = obs if obs is not None else get_instrumentation()
    rng = np.random.default_rng(cfg.seed)

    tracker = _ErrorTracker(reference, obs)
    xs, ys = reference.xs, reference.ys
    selected: List[Tuple[float, float]] = []
    used = np.zeros_like(reference.values, dtype=bool)

    # Squared distance from each grid cell to its nearest network node,
    # lowered in place as nodes join (a running minimum is exact). Cells
    # with ``nearest_d2 <= Rc²`` are the "affordable without extra
    # relays" fallback candidates.
    grid_x, grid_y = np.meshgrid(xs, ys)
    nearest_d2 = np.full(used.shape, np.inf)
    # L(G, Rc) over the selected nodes, updated once per selection.
    foresight = IncrementalRelayCount(rc)

    def cover(x: float, y: float) -> None:
        np.minimum(
            nearest_d2, (grid_x - x) ** 2 + (grid_y - y) ** 2, out=nearest_d2
        )

    def select(x: float, y: float) -> None:
        selected.append((x, y))
        foresight.add((x, y))
        cover(x, y)

    # Virtual corner anchors (pseudocode line 1: two triangles by the
    # diagonal). Inserting the 4 corners yields exactly that split.
    corner_cells = [
        (0, 0),
        (len(xs) - 1, 0),
        (len(xs) - 1, len(ys) - 1),
        (0, len(ys) - 1),
    ]
    for ix, iy in corner_cells:
        tracker.insert(float(xs[ix]), float(ys[iy]), reference.value_at_index(ix, iy))
        used[iy, ix] = True
        if cfg.corners_are_nodes:
            select(float(xs[ix]), float(ys[iy]))
    anchors = (
        np.empty((0, 2))
        if cfg.corners_are_nodes
        else np.asarray(
            [(float(xs[ix]), float(ys[iy])) for ix, iy in corner_cells], dtype=float
        )
    )
    # History δ scores the point set solve_osd scores for the final δ.
    history_anchors = anchors if cfg.anchors_in_reconstruction else anchors[:0]

    budget = k - len(selected)
    if budget < 0:
        raise ValueError(
            f"k={k} cannot cover the 4 corner nodes (corners_are_nodes=True)"
        )

    curvature_weight: Optional[np.ndarray] = None
    if cfg.selection in (SelectionCriterion.CURVATURE, SelectionCriterion.PRODUCT):
        curvature_weight = np.abs(grid_gaussian_curvature(reference))

    history: List[Tuple[int, float]] = []
    n_relays = 0
    n_leftover = 0
    relay_positions: List[Tuple[float, float]] = []

    def commit(ix: int, iy: int, kind: str = "refine") -> None:
        x, y = float(xs[ix]), float(ys[iy])
        if obs.enabled:
            err_cell = float(tracker.err[iy, ix])
            err_before = float(tracker.err.max())
        tracker.insert(x, y, reference.value_at_index(ix, iy))
        used[iy, ix] = True
        select(x, y)
        if obs.enabled:
            obs.emit(
                "fra_refine",
                i=len(selected),
                x=x,
                y=y,
                kind=kind,
                err_cell=err_cell,
                err_before=err_before,
                err_after=float(tracker.err.max()),
                budget=budget,
            )
            obs.counter("fra.inserts").inc()
        if cfg.record_history:
            current = np.vstack([
                np.asarray(selected + relay_positions, dtype=float).reshape(-1, 2),
                history_anchors,
            ])
            with use_instrumentation(obs):
                rec = reconstruct_surface(
                    reference, current, values=_grid_values(reference, current)
                )
            history.append((len(selected), rec.delta))

    def relays_after(candidate: Optional[Tuple[float, float]] = None) -> int:
        with obs.span("fra_foresight"):
            return foresight.required(candidate)

    stop_reason = "budget_exhausted"
    with obs.span("fra_refine_loop"):
        while budget > 0:
            required_now = relays_after()
            if budget <= required_now:
                stop_reason = "foresight"
                break

            score = _selection_score(
                tracker.err, curvature_weight, cfg.selection, rng
            )
            if cfg.cost_aware_selection and selected:
                score = score / (1.0 + _relays_to_nearest(nearest_d2, rc))
            ix, iy = argmax_grid(score, exclude=used)
            x, y = float(xs[ix]), float(ys[iy])
            if relays_after((x, y)) <= budget - 1:
                commit(ix, iy)
                budget -= 1
                continue

            # Foresight veto: the best cell is unaffordable. Fall back to
            # the best cell already within radio reach of the network
            # (joining an existing component never increases the relay
            # requirement).
            fallback_exclude = used | (nearest_d2 > rc * rc)
            if selected and not fallback_exclude.all():
                fx, fy = argmax_grid(score, exclude=fallback_exclude)
                cand = (float(xs[fx]), float(ys[fy]))
                if relays_after(cand) <= budget - 1:
                    commit(fx, fy, kind="fallback")
                    budget -= 1
                    continue
            stop_reason = "unaffordable"
            break
    if obs.enabled:
        obs.emit(
            "fra_stop",
            reason=stop_reason,
            budget=budget,
            n_selected=len(selected),
            relays_required=foresight.required(),
        )

    # Spend whatever remains on relays joining the components.
    pts = np.asarray(selected, dtype=float).reshape(-1, 2)
    if budget > 0 and len(pts) >= 2:
        with obs.span("fra_relay_plan"):
            plan = plan_relays(pts, rc, budget=budget)
        for rx, ry in plan.positions:
            relay_positions.append((float(rx), float(ry)))
            cover(float(rx), float(ry))
        n_relays = len(plan.positions)
        budget -= n_relays
        if obs.enabled:
            obs.emit("fra_relays", n_relays=n_relays, budget_after=budget)

    # Leftover budget (rare: the relay plan could not consume everything,
    # or no relays were needed at the veto point): grow the network with
    # in-reach refinement cells so connectivity is preserved.
    while budget > 0:
        score = _selection_score(tracker.err, curvature_weight, cfg.selection, rng)
        exclude = used | (nearest_d2 > rc * rc) if selected else used
        if exclude.all():
            exclude = used
        ix, iy = argmax_grid(score, exclude=exclude)
        commit(ix, iy, kind="leftover")
        budget -= 1
        n_leftover += 1

    positions = np.asarray(selected + relay_positions, dtype=float).reshape(-1, 2)
    connected = is_connected(unit_disk_graph(positions, rc))
    return FRAResult(
        positions=positions,
        n_refinement=len(selected) - (4 if cfg.corners_are_nodes else 0) - n_leftover,
        n_relays=n_relays,
        n_leftover=n_leftover,
        connected=connected,
        history=history,
        anchor_positions=anchors,
    )


def _relays_to_nearest(nearest_d2: np.ndarray, rc: float) -> np.ndarray:
    """Relays needed to join each grid cell to its nearest selected node.

    ``nearest_d2`` is the squared distance to that node. An O(cells)
    lower bound of the true relay increment (joining the nearest node may
    not be optimal, but is never cheaper than this).
    """
    return np.maximum(np.ceil(np.sqrt(nearest_d2) / rc - 1e-9) - 1.0, 0.0)


def _selection_score(
    err: np.ndarray,
    curvature: Optional[np.ndarray],
    criterion: SelectionCriterion,
    rng: np.random.Generator,
) -> np.ndarray:
    if criterion is SelectionCriterion.LOCAL_ERROR:
        return err
    if criterion is SelectionCriterion.CURVATURE:
        assert curvature is not None
        return curvature
    if criterion is SelectionCriterion.PRODUCT:
        assert curvature is not None
        return err * curvature
    if criterion is SelectionCriterion.RANDOM:
        return rng.random(err.shape)
    raise ValueError(f"unknown selection criterion: {criterion}")


def _grid_values(reference: GridSample, positions: np.ndarray) -> np.ndarray:
    """Sample the reference surface at (possibly off-grid) positions."""
    return GridField(reference).sample(positions)


def solve_osd(
    problem: OSDProblem,
    config: Optional[FRAConfig] = None,
    obs: Optional[Instrumentation] = None,
) -> PlacementResult:
    """Solve an :class:`OSDProblem` with FRA and evaluate the layout.

    ``obs`` (default: the ambient instrumentation) times the refinement
    loop and every reconstruction, the final one and the history ones.
    """
    cfg = config or FRAConfig()
    obs = obs if obs is not None else get_instrumentation()
    result = foresighted_refinement(
        problem.reference, problem.k, problem.rc, config=cfg, obs=obs
    )
    recon_points = result.positions
    if cfg.anchors_in_reconstruction and len(result.anchor_positions):
        recon_points = np.vstack([result.positions, result.anchor_positions])
    with use_instrumentation(obs):
        reconstruction = reconstruct_surface(
            problem.reference,
            recon_points,
            values=_grid_values(problem.reference, recon_points),
        )
    return PlacementResult(
        positions=result.positions,
        rc=problem.rc,
        reconstruction=reconstruction,
        meta={
            "algorithm": "fra",
            "n_refinement": result.n_refinement,
            "n_relays": result.n_relays,
            "n_leftover": result.n_leftover,
            "connected": result.connected,
            "history": result.history,
        },
    )
