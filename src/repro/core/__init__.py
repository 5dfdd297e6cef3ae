"""The paper's contribution: OSD/OSTD problems and their algorithms.

* :mod:`.problem` — the OSD and OSTD problem statements (Definitions 3.1
  and 3.2) as explicit value types.
* :mod:`.fra` — the Foresighted Refinement Algorithm for stationary
  placement (Table 1), with the connectivity-foresight relay logic.
* :mod:`.baselines` — random and uniform-grid placement (the paper's
  comparison points) plus ablation variants.
* :mod:`.forces` — the virtual-force model of Eqns. 14–18.
* :mod:`.lcm` — the Local Connectivity Mechanism (Fig. 4).
* :mod:`.cma` — the Coordinated Movement Algorithm's planner (Table 2),
  evaluated for the whole fleet of a round at once.
* :mod:`.cwd` — the curvature-weighted distribution pattern (Eqns. 9–10):
  global solver, residual diagnostics.
"""

from repro.core.problem import OSDProblem, OSTDProblem, PlacementResult
from repro.core.forces import (
    ForceBreakdown,
    VirtualForceParams,
    attraction_to_neighbors,
    attraction_to_peak,
    repulsion_from_neighbors,
    resultant_force,
)
from repro.core.fra import (
    FRAConfig,
    FRAResult,
    SelectionCriterion,
    foresighted_refinement,
)
from repro.core.baselines import (
    greedy_refinement_placement,
    random_placement,
    uniform_grid_placement,
)
from repro.core.lcm import LCMDecision, lcm_adjustment
from repro.core.cma import (
    CMAParams,
    CMAPlan,
    FleetSensing,
    NeighborTable,
    plan_move,
)
from repro.core.cwd import CWDResult, balance_residuals, solve_cwd, total_curvature
from repro.core.coverage import coverage_radius_for_full_coverage, sensing_coverage
from repro.core.exact import ExactOSDResult, exhaustive_osd
from repro.core.anneal import LocalSearchResult, local_search_osd

__all__ = [
    "CMAParams",
    "CMAPlan",
    "CWDResult",
    "ExactOSDResult",
    "FRAConfig",
    "FRAResult",
    "FleetSensing",
    "ForceBreakdown",
    "LCMDecision",
    "LocalSearchResult",
    "NeighborTable",
    "OSDProblem",
    "OSTDProblem",
    "PlacementResult",
    "SelectionCriterion",
    "VirtualForceParams",
    "attraction_to_neighbors",
    "attraction_to_peak",
    "balance_residuals",
    "coverage_radius_for_full_coverage",
    "exhaustive_osd",
    "foresighted_refinement",
    "greedy_refinement_placement",
    "lcm_adjustment",
    "local_search_osd",
    "plan_move",
    "random_placement",
    "repulsion_from_neighbors",
    "resultant_force",
    "sensing_coverage",
    "solve_cwd",
    "total_curvature",
    "uniform_grid_placement",
]
