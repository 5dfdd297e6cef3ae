"""Link models: per-delivery loss processes behind one protocol.

The paper's radio is a perfect unit disk — every beacon in every round
arrives. Real low-power links lose packets, and *how* they lose them
matters: i.i.d. loss barely perturbs a round-synchronous controller,
while bursty or distance-dependent loss silences whole neighbourhoods
for several consecutive rounds. Each model here answers one directed
delivery attempt at a time:

* :class:`PerfectLink` — never loses (the paper's assumption),
* :class:`BernoulliLink` — i.i.d. loss with a fixed probability (the
  memoryless model the repo always had),
* :class:`DistanceLossLink` — loss grows with sender–receiver distance,
  so edge-of-range links are much worse than close ones,
* :class:`GilbertElliottLink` — a two-state (good/bad) Markov channel
  per directed link; losses cluster into bursts whose mean length is
  ``1 / p_recover``.

All models are deterministic given their seed, and their complete
mutable state (RNG stream position plus any per-link channel state)
round-trips through ``state_dict()`` / ``load_state_dict()`` as
JSON-able data, so checkpoint→resume stays bit-identical
(:mod:`repro.runtime.checkpoint`).

``advance_slot(sender, receiver)`` lets the retry/backoff machinery in
:class:`~repro.sim.netmodel.network.NetworkModel` evolve a channel
through idle backoff slots without transmitting — which is exactly why
backoff helps on a bursty channel and does nothing on a memoryless one.
"""

from __future__ import annotations

from typing import Any, Dict, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "LinkModel",
    "PerfectLink",
    "BernoulliLink",
    "DistanceLossLink",
    "GilbertElliottLink",
]


@runtime_checkable
class LinkModel(Protocol):
    """One directed-delivery loss process (duck-typed protocol)."""

    def delivered(
        self, sender: int = -1, receiver: int = -1, distance: float = 0.0
    ) -> bool:
        """Sample one delivery attempt on the ``sender → receiver`` link."""
        ...

    def advance_slot(self, sender: int = -1, receiver: int = -1) -> None:
        """Evolve the channel through one idle (non-transmitting) slot."""
        ...

    def state_dict(self) -> Dict[str, Any]:
        """Complete mutable state as JSON-able data."""
        ...

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a previously captured ``state_dict``."""
        ...


class _SeededLink:
    """Shared RNG plumbing for the stochastic link models."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def advance_slot(self, sender: int = -1, receiver: int = -1) -> None:
        """Idle slot: memoryless channels have nothing to evolve."""

    @property
    def rng_state(self):
        """The RNG bit-generator state (JSON-able), for checkpointing."""
        return self._rng.bit_generator.state

    @rng_state.setter
    def rng_state(self, state) -> None:
        self._rng.bit_generator.state = state

    def state_dict(self) -> Dict[str, Any]:
        return {"rng": self.rng_state}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.rng_state = state["rng"]


class PerfectLink:
    """The paper's radio: every beacon in range is delivered."""

    def delivered(
        self, sender: int = -1, receiver: int = -1, distance: float = 0.0
    ) -> bool:
        return True

    def advance_slot(self, sender: int = -1, receiver: int = -1) -> None:
        pass

    def state_dict(self) -> Dict[str, Any]:
        return {}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        pass


class BernoulliLink(_SeededLink):
    """I.i.d. loss: each directed delivery dropped with fixed probability.

    ``probability == 0`` consumes no RNG draws, so a zero-loss model is
    bit-identical to no model at all.
    """

    def __init__(self, probability: float, seed: int = 0) -> None:
        if not 0.0 <= probability < 1.0:
            raise ValueError(
                f"loss probability must be in [0, 1), got {probability}"
            )
        super().__init__(seed)
        self.probability = float(probability)

    def delivered(
        self, sender: int = -1, receiver: int = -1, distance: float = 0.0
    ) -> bool:
        if self.probability == 0.0:
            return True
        return bool(self._rng.random() >= self.probability)

    def delivered_many(self, m: int) -> np.ndarray:
        """``m`` deliveries at once: what ``m`` :meth:`delivered` calls
        answer in turn, drawn as one vector from the same stream."""
        if self.probability == 0.0:
            return np.ones(m, dtype=bool)
        return self._rng.random(m) >= self.probability


class DistanceLossLink(_SeededLink):
    """Loss probability grows with distance toward the range edge.

    ``loss(d) = floor + (edge_loss − floor) · (d / rc)^gamma``, clipped
    to ``[0, 1)`` — near-zero loss for close neighbours, ``edge_loss``
    at exactly ``Rc``. ``gamma`` controls how sharply quality collapses
    at the edge (2 ≈ free-space power falloff).
    """

    def __init__(
        self,
        rc: float,
        edge_loss: float = 0.5,
        gamma: float = 2.0,
        floor: float = 0.0,
        seed: int = 0,
    ) -> None:
        if rc <= 0:
            raise ValueError(f"rc must be positive, got {rc}")
        if not 0.0 <= floor <= edge_loss < 1.0:
            raise ValueError(
                f"need 0 <= floor <= edge_loss < 1, got "
                f"floor={floor}, edge_loss={edge_loss}"
            )
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        super().__init__(seed)
        self.rc = float(rc)
        self.edge_loss = float(edge_loss)
        self.gamma = float(gamma)
        self.floor = float(floor)

    def loss_at(self, distance: float) -> float:
        """The loss probability of a link of the given length."""
        ratio = min(max(float(distance) / self.rc, 0.0), 1.0)
        return self.floor + (self.edge_loss - self.floor) * ratio**self.gamma

    def delivered(
        self, sender: int = -1, receiver: int = -1, distance: float = 0.0
    ) -> bool:
        p = self.loss_at(distance)
        if p == 0.0:
            return True
        return bool(self._rng.random() >= p)


class GilbertElliottLink(_SeededLink):
    """Bursty loss: a two-state Markov channel per directed link.

    Each ``(sender, receiver)`` pair carries its own good/bad chain
    (bursts on one link say nothing about another). In the good state a
    delivery is lost with ``loss_good``, in the bad state with
    ``loss_bad``; after every attempt — and every idle backoff slot —
    the chain transitions (good→bad with ``p_fail``, bad→good with
    ``p_recover``). Mean burst length is ``1 / p_recover`` slots and the
    stationary bad-state share is ``p_fail / (p_fail + p_recover)``, so
    the long-run loss rate is analytic:
    ``π_bad · loss_bad + (1 − π_bad) · loss_good``.
    """

    def __init__(
        self,
        p_fail: float = 0.05,
        p_recover: float = 0.4,
        loss_good: float = 0.0,
        loss_bad: float = 0.9,
        seed: int = 0,
    ) -> None:
        for name, value in (("p_fail", p_fail), ("p_recover", p_recover)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name, value in (("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        super().__init__(seed)
        self.p_fail = float(p_fail)
        self.p_recover = float(p_recover)
        self.loss_good = float(loss_good)
        self.loss_bad = float(loss_bad)
        #: Per-directed-link channel state: "i,j" → 0 (good) / 1 (bad).
        #: String-keyed so the dict survives a JSON round-trip verbatim.
        self._bad: Dict[str, int] = {}

    @staticmethod
    def _key(sender: int, receiver: int) -> str:
        return f"{int(sender)},{int(receiver)}"

    def mean_loss(self) -> float:
        """The stationary long-run loss rate of one channel."""
        total = self.p_fail + self.p_recover
        pi_bad = self.p_fail / total if total > 0 else 0.0
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    def _transition(self, key: str, bad: int) -> None:
        if bad:
            if self.p_recover > 0.0 and self._rng.random() < self.p_recover:
                self._bad.pop(key, None)
        elif self.p_fail > 0.0 and self._rng.random() < self.p_fail:
            self._bad[key] = 1

    def advance_slot(self, sender: int = -1, receiver: int = -1) -> None:
        key = self._key(sender, receiver)
        self._transition(key, self._bad.get(key, 0))

    def delivered(
        self, sender: int = -1, receiver: int = -1, distance: float = 0.0
    ) -> bool:
        key = self._key(sender, receiver)
        bad = self._bad.get(key, 0)
        p = self.loss_bad if bad else self.loss_good
        ok = True if p == 0.0 else bool(self._rng.random() >= p)
        self._transition(key, bad)
        return ok

    def state_dict(self) -> Dict[str, Any]:
        return {"rng": self.rng_state, "bad": dict(self._bad)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.rng_state = state["rng"]
        self._bad = {str(k): int(v) for k, v in state.get("bad", {}).items()}
