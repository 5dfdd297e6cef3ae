"""The Coordinated Movement Algorithm — the planner of paper Table 2.

CMA is fully distributed: each round a node (lines 2–12 of the pseudocode)

1. senses the ``m`` positions within ``Rs`` and estimates curvature,
2. exchanges ``(x, y, G)`` with single-hop neighbours,
3. computes the virtual forces F1/F2/Fr and the resultant ``Fs``,
4. stops if balanced, otherwise announces its destination (``tell``) and
   moves, and
5. (lines 19–21) reacts to neighbours' ``tell`` messages with the Local
   Connectivity Mechanism.

This module implements the *decision* logic as pure functions over local
observations — no global state, no field access — so the same code runs
under the simulation engine (:mod:`repro.sim.engine`) and in unit tests
with hand-built observations. A node's decision reads only its own
sensing and its one-hop beacons, all from the round's pre-move snapshot,
so the decisions of a whole round are evaluated together:
:func:`estimate_own_curvature` fits every node's quadric and
:func:`plan_move` computes every node's forces, balance test and
destination, each in one call over packed arrays (:class:`FleetSensing`,
:class:`NeighborTable`). Row ``i`` of every result depends on node ``i``'s
inputs alone and is bit-identical to evaluating that node by itself
(DESIGN.md §6.16). Time complexity per node is O(m + q) as in
Theorem 5.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.forces import (
    ForceBreakdown,
    VirtualForceParams,
    fleet_resultant_force,
)
from repro.geometry.primitives import BoundingBox
from repro.surfaces.quadric import (
    QuadricFitMode,
    principal_curvatures,
    quadric_design,
)

#: Nodes per stacked design matrix in :func:`estimate_own_curvature`;
#: bounds the stack to about 64 · 81 · 6 doubles (250 kB) at ``Rs = 5``.
FIT_CHUNK = 64


@dataclass(frozen=True)
class CMAParams:
    """All tunables of the per-node controller.

    Defaults follow the paper's evaluation: ``Rc = 10 m``, ``Rs = 5 m``,
    ``β = 2``, speed ``v = 1 m/min``, 1-minute rounds.
    """

    rc: float = 10.0
    rs: float = 5.0
    beta: float = 2.0
    speed: float = 1.0
    dt: float = 1.0
    #: How the on-node quadric (Eqn. 11) is fitted; see QuadricFitMode.
    quadric_mode: QuadricFitMode = QuadricFitMode.CENTERED
    #: Use signed Gaussian curvature as the force weight (paper-literal)
    #: instead of |G| (DESIGN.md §6.5).
    signed_curvature: bool = False
    #: |Fs| below which the node declares balance and stays put.
    stop_threshold: float = 0.2
    #: Scale from |Fs| to metres. Acts as the gradient-descent step size of
    #: the force system; the repulsion force gradient is ~β·q per metre, so
    #: stability needs step_gain ≲ 2/(β·q) — 0.1 is safe for the paper's
    #: β = 2 and grid layouts (q ≈ 4–8 neighbours).
    step_gain: float = 0.05
    #: Normalise curvature weights by the node's locally sensed mean |G|
    #: (dimensionless "how interesting is this spot relative to what I can
    #: see"). The paper implicitly assumes curvature and distance are of
    #: comparable magnitude; raw Gaussian curvature of a KLux-over-metres
    #: surface is ~1e-3 and would be drowned out by the repulsion term.
    #: (the scale itself is a one-shot deployment-time calibration).
    normalize_curvature: bool = True
    #: Upper bound on a normalised curvature weight.
    curvature_weight_cap: float = 3.0
    #: Soft threshold on normalised weights (units of the calibration
    #: scale): ``w = clip(|G|/scale − threshold, 0, cap)``. Curvature at or
    #: below the fleet-average level — background texture — contributes
    #: exactly zero force, so nodes in featureless areas hold position (the
    #: paper's "nodes barely move"); only genuinely curved spots attract.
    curvature_threshold: float = 1.0
    #: Weight of the border-anchoring force (CWD requirement #2).
    border_gain: float = 2.0
    #: Per-round decay on a stale neighbour's curvature weight: a record
    #: of age ``a`` contributes ``G · stale_weight_decay^a``. Age 0 is
    #: always weight 1, so a perfect network is unaffected.
    stale_weight_decay: float = 0.5
    #: Drop neighbour records older than this many rounds entirely
    #: (``None``: keep whatever the network layer still delivers).
    max_beacon_age: Optional[int] = 3

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError(f"speed must be positive, got {self.speed}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.step_gain <= 0:
            raise ValueError(f"step_gain must be positive, got {self.step_gain}")
        if not 0.0 <= self.stale_weight_decay <= 1.0:
            raise ValueError(
                "stale_weight_decay must be in [0, 1], got "
                f"{self.stale_weight_decay}"
            )
        if self.max_beacon_age is not None and self.max_beacon_age < 0:
            raise ValueError(
                f"max_beacon_age must be >= 0, got {self.max_beacon_age}"
            )
        # Delegate rc/rs/beta validation to the force params.
        self.force_params()

    def force_params(self) -> VirtualForceParams:
        return VirtualForceParams(
            rc=self.rc, rs=self.rs, beta=self.beta,
            stop_threshold=self.stop_threshold,
            border_gain=self.border_gain,
        )

    @property
    def max_step(self) -> float:
        """Distance a node may cover in one round: min(v·dt, Rs)."""
        return min(self.speed * self.dt, self.rs)


@dataclass(frozen=True)
class FleetSensing:
    """What ``n`` nodes sensed inside their ``Rs`` disks this round.

    Node ``i``'s samples are rows ``offsets[i]:offsets[i + 1]`` of
    ``positions`` (``(M, 2)``), ``values`` and ``curvatures`` (``(M,)``):
    its ``m`` sensed samples (Table 2's ``M[m][3]``) and the curvature
    weights the sensing model estimated at them (Table 2's ``MdG``).
    """

    positions: np.ndarray
    values: np.ndarray
    curvatures: np.ndarray
    offsets: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        """``m`` of every node."""
        return np.diff(self.offsets)

    def peaks(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``pc`` of every node: sensed position and weight of its maximum.

        Returns ``(positions (n, 2), weights (n,), found (n,))``. The first
        maximum wins, as ``np.argmax`` picks it; a node that sensed
        nothing has ``found`` false and a zero row.
        """
        counts = self.counts
        filled = _filled_slots(counts, minimum_width=1)
        padded = np.full(filled.shape, -np.inf)
        padded[filled] = self.curvatures
        found = counts > 0
        flat = self.offsets[:-1][found] + padded[found].argmax(axis=1)
        peak_positions = np.zeros((len(counts), 2))
        peak_weights = np.zeros(len(counts))
        peak_positions[found] = self.positions[flat]
        peak_weights[found] = self.curvatures[flat]
        return peak_positions, peak_weights, found


def _filled_slots(counts: np.ndarray, minimum_width: int = 0) -> np.ndarray:
    """``(n, d)`` mask of the first ``counts[i]`` slots of each row.

    ``d`` is the largest count (at least ``minimum_width``). Assigning a
    flat array through the mask fills the rows in order, slot by slot.
    """
    width = max(int(counts.max()) if len(counts) else 0, minimum_width)
    return np.arange(width) < counts[:, None]


@dataclass(frozen=True)
class NeighborObservation:
    """One ``Rx`` record: a single-hop neighbour's id, position, curvature.

    ``staleness`` is the age of the record in rounds: 0 for a beacon
    heard this round (the paper's perfect radio — and the default), ``a``
    for last-known state carried over an unreliable network
    (:mod:`repro.sim.netmodel`). The planner decays stale neighbours'
    curvature weight and drops records past the configured age bound.
    """

    node_id: int
    position: np.ndarray
    curvature: float
    staleness: int = 0


@dataclass(frozen=True)
class NeighborTable:
    """The ``Rx`` records of ``n`` nodes as padded arrays.

    Row ``i`` holds node ``i``'s records in inbox order (ascending sender
    id, as the exchange delivers them): ``ids`` (``(n, d)``, ``-1``
    padding), ``positions`` (``(n, d, 2)``), ``curvatures`` (``(n, d)``)
    and ``staleness`` (``(n, d)``, the age of each record in rounds);
    ``counts[i]`` of its slots are filled. The exchange returns every
    record it heard; :meth:`usable` is the planner's view of them.

    Iterating the table (or indexing it by node) yields each node's
    inbox as a list of :class:`NeighborObservation` records, built on
    demand: a view for tests and tracing, not for the round's hot path.
    """

    ids: np.ndarray
    positions: np.ndarray
    curvatures: np.ndarray
    staleness: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_records(
        cls,
        counts,
        ids,
        positions,
        curvatures,
        staleness=None,
    ) -> "NeighborTable":
        """Lay flat records out row by row.

        Node ``i``'s records are the next ``counts[i]`` entries of
        ``ids``, ``positions`` (``(M, 2)``), ``curvatures`` and
        ``staleness`` (all zero when omitted: a fresh exchange).
        """
        count_arr = np.asarray(counts, dtype=np.intp)
        filled = _filled_slots(count_arr)
        table = cls(
            ids=np.full(filled.shape, -1, dtype=np.intp),
            positions=np.zeros(filled.shape + (2,)),
            curvatures=np.zeros(filled.shape),
            staleness=np.zeros(filled.shape, dtype=np.intp),
            counts=count_arr,
        )
        table.ids[filled] = ids
        table.positions[filled] = np.reshape(positions, (-1, 2))
        table.curvatures[filled] = curvatures
        if staleness is not None:
            table.staleness[filled] = staleness
        return table

    def rows(self, index) -> "NeighborTable":
        """The table of the given nodes' rows, in ``index`` order."""
        counts = self.counts[index]
        width = int(counts.max()) if len(counts) else 0
        return NeighborTable(
            ids=self.ids[index, :width],
            positions=self.positions[index, :width],
            curvatures=self.curvatures[index, :width],
            staleness=self.staleness[index, :width],
            counts=counts,
        )

    def usable(self, params: CMAParams) -> "NeighborTable":
        """The records the planner uses, with their curvature aged.

        Graceful degradation under an unreliable network: last-known
        neighbour state stays usable, but its curvature pull fades with
        age (``G · stale_weight_decay^a``) and a record past
        ``max_beacon_age`` is dropped outright. Age-0 records (every
        record, on a perfect network) pass untouched. The decay factors
        are Python ``decay**a`` floats, so each product is the one a
        record-by-record loop computes.
        """
        if not self.staleness.any():
            return self
        keep = self.mask
        if params.max_beacon_age is not None:
            keep &= self.staleness <= params.max_beacon_age
        ages = self.staleness[keep]
        decay = params.stale_weight_decay
        factors = np.array(
            [decay**a for a in range(int(ages.max(initial=0)) + 1)]
        )
        curvatures = self.curvatures[keep]
        return NeighborTable.from_records(
            keep.sum(axis=1),
            self.ids[keep],
            self.positions[keep],
            np.where(ages == 0, curvatures, curvatures * factors[ages]),
            ages,
        )

    @property
    def mask(self) -> np.ndarray:
        """``(n, d)``: which slots hold a record."""
        return _filled_slots(self.counts, self.ids.shape[1])

    def id_lists(self) -> List[List[int]]:
        """Each node's neighbour ids, in inbox order."""
        return [
            row[:count] for row, count in
            zip(self.ids.tolist(), self.counts.tolist())
        ]

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, node: int) -> List[NeighborObservation]:
        """Node ``node``'s inbox as records (positions are copies)."""
        count = int(self.counts[node])
        return [
            NeighborObservation(j, position.copy(), g, a)
            for j, position, g, a in zip(
                self.ids[node, :count].tolist(),
                self.positions[node, :count],
                self.curvatures[node, :count].tolist(),
                self.staleness[node, :count].tolist(),
            )
        ]

    def __iter__(self) -> Iterator[List[NeighborObservation]]:
        return (self[node] for node in range(len(self)))


@dataclass(frozen=True)
class CMAPlan:
    """The fleet's decisions for one round (each node's ``tell`` content).

    Row ``r`` of every array is node ``node_ids[r]``: its pre-move
    ``origins`` row, its ``destinations`` row, its stacked force
    ``breakdown`` and ``|Fs|`` in ``magnitudes``. ``neighbors`` is the
    table each node announces with its ``tell()``.
    """

    node_ids: np.ndarray
    origins: np.ndarray
    destinations: np.ndarray
    breakdown: ForceBreakdown
    magnitudes: np.ndarray
    neighbors: NeighborTable

    @property
    def moved(self) -> np.ndarray:
        """``(n,)``: which nodes plan a non-zero step."""
        step = self.destinations - self.origins
        return np.vecdot(step, step) > 0.0


def estimate_own_curvature(
    sensing: FleetSensing,
    positions: np.ndarray,
    params: CMAParams,
) -> np.ndarray:
    """``G(n'_i)`` of every node via the least-squares quadric of Eqns. 11–13.

    ``positions`` is ``(n, 2)``, row ``i`` the centre of node ``i``'s fit.
    A node with too few samples to fit (one pressed into a region corner
    can see < 6 grid cells) gets zero curvature.

    Nodes with equal ``m`` share one stacked design matrix, built
    :data:`FIT_CHUNK` nodes at a time; each node's solve is still its
    own ``np.linalg.lstsq`` on its slice, so the coefficients are the
    ones :func:`~repro.surfaces.quadric.fit_quadric` finds, and Eqns.
    12–13 run on them as Python floats, as the single fit does.
    """
    counts = sensing.counts
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    curvature = np.zeros(len(counts))
    needed = 3 if params.quadric_mode is QuadricFitMode.PAPER else 6
    for m in np.unique(counts[counts >= needed]).tolist():
        members = np.flatnonzero(counts == m)
        for start in range(0, len(members), FIT_CHUNK):
            chunk = members[start:start + FIT_CHUNK]
            rows = sensing.offsets[chunk, None] + np.arange(m)
            design = quadric_design(
                sensing.positions[rows], pos[chunk], params.quadric_mode
            )
            values = sensing.values[rows]
            for slot, i in enumerate(chunk.tolist()):
                coeffs = np.linalg.lstsq(
                    design[slot], values[slot], rcond=None
                )[0]
                g1, g2 = principal_curvatures(
                    float(coeffs[0]), float(coeffs[1]), float(coeffs[2])
                )
                g = g1 * g2
                curvature[i] = g if params.signed_curvature else abs(g)
    return curvature


def plan_move(
    node_ids: np.ndarray,
    positions: np.ndarray,
    sensing: FleetSensing,
    neighbors: NeighborTable,
    params: CMAParams,
    region: BoundingBox,
) -> CMAPlan:
    """Lines 6–18 of Table 2 for every node: forces, balance, destination.

    Row ``r`` of ``positions``, ``sensing`` and ``neighbors`` belongs to
    node ``node_ids[r]``. A destination is along ``Fs``, at most
    ``min(v·dt, Rs)`` away (DESIGN.md §6.7), clamped into the region.
    The planner needs no own curvature: that goes out in the beacons.
    """
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)

    peak_positions, peak_weights, found = sensing.peaks()
    breakdown = fleet_resultant_force(
        pos, peak_positions, peak_weights, found,
        neighbors.positions, neighbors.curvatures, neighbors.mask,
        params.force_params(), region,
    )
    fs = breakdown.fs
    # |Fs| as np.linalg.norm takes it for one vector: sqrt of a BLAS
    # dot. norm(axis=1) and einsum round differently (DESIGN.md §6.16).
    magnitudes = np.sqrt(np.vecdot(fs, fs))
    moving = ~(magnitudes <= params.stop_threshold)
    step = np.minimum(params.max_step, params.step_gain * magnitudes)
    # Balanced rows divide by a zero |Fs|; they keep their position below.
    with np.errstate(divide="ignore", invalid="ignore"):
        target = pos + fs / magnitudes[:, None] * step[:, None]
    # BoundingBox.clamp's min(max(v, lo), hi), tie for tie.
    for axis, lo, hi in (
        (0, region.xmin, region.xmax), (1, region.ymin, region.ymax)
    ):
        coord = target[:, axis]
        coord = np.where(lo > coord, lo, coord)
        target[:, axis] = np.where(hi < coord, hi, coord)
    destinations = np.where(moving[:, None], target, pos)

    return CMAPlan(
        node_ids=np.asarray(node_ids, dtype=np.intp).reshape(-1),
        origins=pos,
        destinations=destinations,
        breakdown=breakdown,
        magnitudes=magnitudes,
        neighbors=neighbors,
    )
