"""Node churn: transient crash/recovery and energy-depletion failures.

The seed's only node-level fault was the *permanent* scheduled death of
:class:`~repro.sim.netmodel.failures.NodeFailureSchedule`. Deployed
fleets mostly see something softer: watchdog reboots, brown-outs and
duty-cycle blackouts take a node off the air for a handful of rounds,
after which it rejoins at its old position with no memory of the rounds
it missed. Two crash models cover the deterministic and stochastic ends:

* :class:`CrashSchedule` — scripted outages (node ``i`` goes down at
  time ``t`` for ``d`` rounds), for reproducible what-if scenarios;
* :class:`RandomChurn` — per-round crash/recovery coin flips, the
  classic memoryless churn process (mean outage ``1 / recover_prob``
  rounds).

:class:`EnergyDepletionModel` is the harder failure: a battery drained
by idle draw plus movement cost, killing the node permanently at
exhaustion. It generalises the engine's ``energy_budget`` (pure
movement distance) by charging time as well as motion.

All three take the engine's :class:`~repro.runtime.state.WorldState`
and change liveness only through its ``crash()`` / ``recover()`` /
``kill()`` methods, which keep the crash/death distinction straight:
``alive`` false with ``died_at`` NaN is a crash (recoverable),
``died_at`` set is death (final). Their complete mutable state
round-trips through ``state_dict()`` / ``load_state_dict()`` as
JSON-able data for bit-identical resume.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.runtime.state import WorldState

__all__ = ["CrashSchedule", "RandomChurn", "EnergyDepletionModel"]


class CrashSchedule:
    """Scripted transient outages: ``at[t] = {node_id: down_rounds}``.

    At the first round whose time is ``>= t`` the listed nodes crash;
    each recovers after its own ``down_rounds`` further rounds.
    Permanently dead nodes (``died_at`` set) are never revived.
    """

    def __init__(self, at: Dict[float, Dict[int, int]]) -> None:
        self.at: Dict[float, Dict[int, int]] = {
            float(t): {int(i): int(d) for i, d in windows.items()}
            for t, windows in at.items()
        }
        for t, windows in self.at.items():
            for i, d in windows.items():
                if d < 1:
                    raise ValueError(
                        f"down_rounds must be >= 1, got {d} for node {i} at t={t}"
                    )
        self._fired: List[float] = []
        #: node_id (str, JSON-canonical) → absolute round of recovery.
        self._down: Dict[str, int] = {}

    def step(self, t: float, round_index: int, state: WorldState) -> None:
        """Apply recoveries then newly due crashes for this round."""
        for key in [k for k, r in self._down.items() if r <= round_index]:
            del self._down[key]
            state.recover(int(key))
        dead = state.dead
        for when, windows in self.at.items():
            if when <= t and when not in self._fired:
                self._fired.append(when)
                for node_id, down in windows.items():
                    if 0 <= node_id < state.k and not dead[node_id]:
                        state.crash(node_id)
                        self._down[str(node_id)] = round_index + down

    def reset(self) -> None:
        self._fired.clear()
        self._down.clear()

    def state_dict(self) -> Dict[str, Any]:
        return {
            "fired": [float(w) for w in self._fired],
            "down": dict(self._down),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._fired = [float(w) for w in state.get("fired", [])]
        self._down = {
            str(k): int(v) for k, v in state.get("down", {}).items()
        }


class RandomChurn:
    """Memoryless crash/recovery: per-round coin flips per node.

    Every round, each running node crashes with ``crash_prob`` and each
    crashed node recovers with ``recover_prob`` (mean outage
    ``1 / recover_prob`` rounds). Draws happen in ascending node-id
    order over non-permanently-dead nodes, so the RNG stream position is
    a pure function of the (checkpointed) liveness state.
    """

    def __init__(
        self,
        crash_prob: float,
        recover_prob: float = 0.5,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= crash_prob < 1.0:
            raise ValueError(
                f"crash_prob must be in [0, 1), got {crash_prob}"
            )
        if not 0.0 < recover_prob <= 1.0:
            raise ValueError(
                f"recover_prob must be in (0, 1], got {recover_prob}"
            )
        self.crash_prob = float(crash_prob)
        self.recover_prob = float(recover_prob)
        self._rng = np.random.default_rng(seed)
        #: Crashed-by-us node ids (str, JSON-canonical) → crash round.
        self._down: Dict[str, int] = {}

    def step(self, t: float, round_index: int, state: WorldState) -> None:
        alive = state.alive
        for node_id in np.flatnonzero(~state.dead).tolist():
            key = str(node_id)
            if key in self._down:
                if self._rng.random() < self.recover_prob:
                    del self._down[key]
                    state.recover(node_id)
            elif alive[node_id]:
                if (
                    self.crash_prob > 0.0
                    and self._rng.random() < self.crash_prob
                ):
                    state.crash(node_id)
                    self._down[key] = round_index

    def reset(self) -> None:
        self._down.clear()

    def state_dict(self) -> Dict[str, Any]:
        return {
            "rng": self._rng.bit_generator.state,
            "down": dict(self._down),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._rng.bit_generator.state = state["rng"]
        self._down = {
            str(k): int(v) for k, v in state.get("down", {}).items()
        }


class EnergyDepletionModel:
    """A per-node battery drained by idle draw and movement.

    Each round a running node spends ``idle_cost`` plus ``move_cost``
    per metre moved since the previous charge; crashed nodes spend
    nothing (they are off). At ``capacity`` the node dies permanently —
    the battery does not come back. This is the energy story of Chu &
    Sethu's lifetime-centric evaluation: coverage algorithms are judged
    by how long the fleet lasts, not just by steady-state quality.
    """

    def __init__(
        self,
        capacity: float,
        move_cost: float = 1.0,
        idle_cost: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if move_cost < 0 or idle_cost < 0:
            raise ValueError("energy costs must be >= 0")
        self.capacity = float(capacity)
        self.move_cost = float(move_cost)
        self.idle_cost = float(idle_cost)
        self._spent: Dict[str, float] = {}
        self._charged_distance: Dict[str, float] = {}

    def remaining(self, node_id: int) -> float:
        """Battery left for one node (full capacity before its first tick)."""
        return self.capacity - self._spent.get(str(node_id), 0.0)

    def step(self, t: float, round_index: int, state: WorldState) -> None:
        # Running nodes only: a crashed node is off, a dead one is gone.
        for node_id in np.flatnonzero(state.alive).tolist():
            key = str(node_id)
            travelled = float(state.distance_travelled[node_id])
            moved = travelled - self._charged_distance.get(key, 0.0)
            self._spent[key] = (
                self._spent.get(key, 0.0)
                + self.idle_cost
                + self.move_cost * moved
            )
            self._charged_distance[key] = travelled
            if self._spent[key] >= self.capacity:
                state.kill(node_id, t)

    def reset(self) -> None:
        self._spent.clear()
        self._charged_distance.clear()

    def state_dict(self) -> Dict[str, Any]:
        return {
            "spent": dict(self._spent),
            "charged_distance": dict(self._charged_distance),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._spent = {
            str(k): float(v) for k, v in state.get("spent", {}).items()
        }
        self._charged_distance = {
            str(k): float(v)
            for k, v in state.get("charged_distance", {}).items()
        }
