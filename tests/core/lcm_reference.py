"""Per-planner LCM repair loop: the test oracle for the batched LCM phase.

This is :func:`repro.runtime.cma_phases.lcm` as the engine ran it when
every planner computed its own direct-link prescreen at its turn in the
sequential pass. The batched phase must leave the same positions, make
the same moves and passes, and call
:func:`~repro.core.lcm.lcm_adjustment` as often
(``tests/runtime/test_lcm_batched.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.cma import CMAPlan
from repro.core.lcm import lcm_adjustment
from repro.runtime.cma_phases import LCM_MAX_PASSES


def lcm(engine, cma_plan: CMAPlan):
    """Follower-side LCM; returns ``(moves, passes)``."""
    rc = engine.problem.rc
    state = engine.state
    positions, alive = state.positions, state.alive
    n_moves = 0
    n_passes = 0
    movers = cma_plan.node_ids.tolist()
    tables = cma_plan.neighbors.id_lists()
    for _ in range(LCM_MAX_PASSES):
        moves_this_pass = 0
        for m, table in zip(movers, tables):
            if not alive[m]:
                continue
            if table:
                fdiff = positions[table] - positions[m]
                d2 = fdiff[:, 0] ** 2 + fdiff[:, 1] ** 2
                rc2 = rc * rc
                surely_linked = d2 <= rc2 * (1.0 - 1e-12)
            else:
                surely_linked = np.empty(0, dtype=bool)
            for f_idx, f in enumerate(table):
                if not alive[f] or surely_linked[f_idx]:
                    continue
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
        if moves_this_pass == 0:
            break
    return n_moves, n_passes
