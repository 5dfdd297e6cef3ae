"""The seed fault models: i.i.d. message loss and permanent death schedules.

These two predate the rest of the :mod:`repro.sim.netmodel` subsystem:

* :class:`MessageLossModel` — i.i.d. Bernoulli loss on each directed
  beacon delivery, the legacy ``Radio(loss=...)`` hook. It *is* a
  :class:`~repro.sim.netmodel.links.BernoulliLink`, so it also plugs
  into a :class:`~repro.sim.netmodel.network.NetworkModel` unchanged.
* :class:`NodeFailureSchedule` — nodes that die permanently at
  scheduled simulation times.

The schedule accepts either a ``{time: ids}`` dict or an iterable of
``(time, ids)`` pairs; duplicate times in the pair form are **merged**
rather than silently colliding (a dict literal with two equal keys keeps
only the last one — the pair form is the safe way to build a schedule
programmatically). A node id listed at several times dies exactly once,
at the earliest due time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.sim.netmodel.links import BernoulliLink

__all__ = ["MessageLossModel", "NodeFailureSchedule"]

ScheduleLike = Union[
    Dict[float, Sequence[int]], Iterable[Tuple[float, Sequence[int]]]
]


class MessageLossModel(BernoulliLink):
    """Bernoulli loss on each directed message delivery.

    Deterministic given the seed; the same model instance must be reused
    across rounds so the RNG stream advances. Call compatible with both
    the legacy radio (``delivered()``) and the link-model protocol
    (``delivered(sender, receiver, distance)``).
    """


class NodeFailureSchedule:
    """Nodes that die (permanently) at given simulation times (minutes).

    ``at[t]`` lists node ids that fail at the *start* of the round whose
    time is >= t (first such round). A dead node stops sensing, moving
    and transmitting; it also stops contributing samples to
    reconstruction. Each schedule time fires once, and each node id dies
    at most once no matter how many times it is listed.
    """

    def __init__(self, at: ScheduleLike = ()) -> None:
        items = at.items() if isinstance(at, dict) else at
        merged: Dict[float, List[int]] = {}
        for when, ids in items:
            merged.setdefault(float(when), []).extend(int(i) for i in ids)
        self.at: Dict[float, List[int]] = merged
        self._fired: List[float] = []
        self._announced: List[int] = []

    def failures_due(self, t: float) -> List[int]:
        """Node ids that should die at time ``t``.

        Each schedule time fires once; a node id listed at two times is
        announced only the first time it comes due, so downstream kill
        logic never sees a double death.
        """
        due: List[int] = []
        for when, ids in self.at.items():
            if when <= t and when not in self._fired:
                self._fired.append(when)
                for node_id in ids:
                    if node_id not in self._announced:
                        self._announced.append(node_id)
                        due.append(node_id)
        return due

    def reset(self) -> None:
        """Re-arm all scheduled failures (for reusing a schedule object)."""
        self._fired.clear()
        self._announced.clear()

    def fired_times(self) -> List[float]:
        """The schedule times that already fired (for checkpointing)."""
        return [float(when) for when in self._fired]

    def restore_fired(self, fired: Sequence[float]) -> None:
        """Overwrite the fired set (restoring a checkpointed run).

        The announced-id set is recomputed from the fired times, so a
        restored schedule will not re-announce ids it already fired.
        """
        self._fired[:] = [float(when) for when in fired]
        self._announced.clear()
        for when in self._fired:
            for node_id in self.at.get(when, []):
                if node_id not in self._announced:
                    self._announced.append(node_id)
