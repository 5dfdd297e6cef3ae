#!/usr/bin/env python
"""Fleet-scale step-time smoke check: the default engine vs dense paths.

Times one CMA round at ``k`` nodes (constant density) twice — once with
the default engine (cell-list neighbor index above the dense crossover)
and once forced onto the dense O(k^2) neighbour formulations — and
reports the ratio. Interleaved best-of-``trials`` guards against machine
noise.

Warn-only by default: shared CI runners are far too noisy to gate merges
on wall clock (see the bench job); pass ``--strict`` to turn the budget
miss into a non-zero exit for local investigation.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

import repro.geometry.spatial_index as spatial_index
import repro.graphs.geometric as geometric
import repro.sim.radio as radio
from repro.core.problem import OSTDProblem
from repro.fields.greenorbs import GreenOrbsLightField
from repro.sim.engine import MobileSimulation

DENSE_MODULES = (spatial_index, geometric, radio)


def build_sim(k: int) -> MobileSimulation:
    side = 100.0 * float(np.sqrt(k / 100.0))
    field = GreenOrbsLightField(side=side, seed=7, freeze_sun_at=600.0)
    problem = OSTDProblem(
        k=k, rc=10.0, rs=5.0, region=field.region, field=field,
        speed=1.0, t0=600.0, duration=45.0,
    )
    return MobileSimulation(problem)


def best_step_time(k: int, rounds: int) -> float:
    sim = build_sim(k)
    sim.step()  # warm: steady-state rounds are the comparison target
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        sim.step()
        times.append(time.perf_counter() - t0)
    return min(times)


def time_dense(k: int, rounds: int) -> float:
    saved = [(m, m.DENSE_CROSSOVER) for m in DENSE_MODULES]
    for m, _ in saved:
        m.DENSE_CROSSOVER = 10**9
    try:
        return best_step_time(k, rounds=rounds)
    finally:
        for m, value in saved:
            m.DENSE_CROSSOVER = value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=900)
    parser.add_argument("--budget", type=float, default=0.9,
                        help="max allowed default/dense step-time ratio")
    parser.add_argument("--trials", type=int, default=2,
                        help="interleaved trials; best of each side wins")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timed steps per trial")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when the budget is missed")
    args = parser.parse_args(argv)

    dense, new = [], []
    for trial in range(args.trials):
        dense.append(time_dense(args.k, args.rounds))
        new.append(best_step_time(args.k, rounds=args.rounds))
        print(f"trial {trial}: dense {dense[-1] * 1000:7.1f} ms   "
              f"default {new[-1] * 1000:7.1f} ms")

    ratio = min(new) / min(dense)
    print(f"\nk={args.k}: dense {min(dense) * 1000:.1f} ms, "
          f"default {min(new) * 1000:.1f} ms "
          f"-> ratio {ratio:.2f} (budget {args.budget:.2f})")
    if ratio > args.budget:
        print(f"WARNING: step-time ratio {ratio:.2f} exceeds the "
              f"{args.budget:.2f} budget", file=sys.stderr)
        return 1 if args.strict else 0
    print("within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
