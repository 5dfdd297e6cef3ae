"""Disjoint-set forest with union by rank and path compression."""

from __future__ import annotations

from typing import Dict, List


class UnionFind:
    """Classic union-find over elements ``0..n-1``.

    Amortised near-O(1) ``find``/``union``; used by Kruskal's MST.
    FRA's foresight does not use it: it keeps a component label per node
    (:class:`repro.graphs.relay.IncrementalRelayCount`).
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        self._parent: List[int] = list(range(n))
        self._rank: List[int] = [0] * n
        self._n_components = n

    @property
    def n_components(self) -> int:
        """Number of disjoint sets currently tracked."""
        return self._n_components

    def find(self, x: int) -> int:
        """Representative of the set containing ``x`` (path-compressing)."""
        if not 0 <= x < len(self._parent):
            raise IndexError(f"element {x} out of range")
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of ``x`` and ``y``; True if they were distinct."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self._rank[rx] < self._rank[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        if self._rank[rx] == self._rank[ry]:
            self._rank[rx] += 1
        self._n_components -= 1
        return True

    def connected(self, x: int, y: int) -> bool:
        """Whether ``x`` and ``y`` are in the same set."""
        return self.find(x) == self.find(y)

    def components(self) -> Dict[int, List[int]]:
        """Map of representative -> sorted members."""
        groups: Dict[int, List[int]] = {}
        for x in range(len(self._parent)):
            groups.setdefault(self.find(x), []).append(x)
        return groups

    def __len__(self) -> int:
        return len(self._parent)

    def __repr__(self) -> str:
        return f"UnionFind(n={len(self._parent)}, components={self._n_components})"
