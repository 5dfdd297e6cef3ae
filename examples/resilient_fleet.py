"""Resilient fleet: CMA under node failures and lossy radios.

Real deployments lose nodes to batteries and weather, and real radios drop
packets. This example stress-tests the mobile pipeline:

* a quarter of the fleet dies mid-mission,
* every beacon delivery is dropped with 15% probability,

and reports how reconstruction quality and connectivity respond — the kind
of pre-deployment what-if study a fleet operator runs before committing
hardware.

Run:  python examples/resilient_fleet.py
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import OSTDProblem
from repro.fields.greenorbs import GreenOrbsLightField
from repro.sim.engine import MobileSimulation
from repro.sim.netmodel import MessageLossModel, NodeFailureSchedule

K = 100
DURATION = 30.0
DEATH_TIME = 600.0 + 10.0  # ten minutes into the mission


def build_problem() -> OSTDProblem:
    field = GreenOrbsLightField(seed=7, freeze_sun_at=600.0)
    return OSTDProblem(
        k=K, rc=10.0, rs=5.0, region=field.region, field=field,
        speed=1.0, t0=600.0, duration=DURATION,
    )


def run_scenario(name, **sim_kwargs):
    sim = MobileSimulation(build_problem(), **sim_kwargs)
    result = sim.run()
    comps = [r.n_components for r in result.rounds]
    print(f"{name:28s} delta: start {result.deltas[0]:7.1f} "
          f"best {result.deltas.min():7.1f} end {result.deltas[-1]:7.1f}  "
          f"alive {result.rounds[-1].n_alive:3d}  "
          f"components max/final {max(comps)}/{comps[-1]}")
    return result


def main() -> None:
    print(f"{K} nodes, {DURATION:.0f}-minute mission; failures at t=+10min\n")
    baseline = run_scenario("baseline")

    doomed = list(range(0, K, 4))  # every 4th node: 25% of the fleet
    deaths = run_scenario(
        "25% node deaths",
        failure_schedule=NodeFailureSchedule(at={DEATH_TIME: doomed}),
    )

    lossy = run_scenario(
        "15% message loss",
        message_loss=MessageLossModel(0.15, seed=3),
    )

    both = run_scenario(
        "deaths + message loss",
        failure_schedule=NodeFailureSchedule(at={DEATH_TIME: doomed}),
        message_loss=MessageLossModel(0.15, seed=3),
    )

    print("\nsummary:")
    loss_cost = deaths.deltas[-1] / baseline.deltas[-1] - 1.0
    print(f"  losing 25% of nodes costs {100 * loss_cost:.0f}% "
          "reconstruction quality at mission end")
    radio_cost = lossy.deltas[-1] / baseline.deltas[-1] - 1.0
    print(f"  15% packet loss costs {100 * radio_cost:.0f}%")
    worst = both.deltas[-1] / baseline.deltas[-1] - 1.0
    print(f"  combined worst case costs {100 * worst:.0f}%")


if __name__ == "__main__":
    main()
