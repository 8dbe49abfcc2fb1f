"""Undirected simple graph with dense integer node ids.

Storage is adjacency lists with sorted neighbor arrays; graphs are
immutable after construction. A subgraph (``induced_subgraph``) is a new
graph whose ids are renumbered densely in the order the kept nodes are
given.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError

NodeId = int
Edge = tuple[NodeId, NodeId]


class Graph:
    """Simple graph: no self-loops, no parallel edges, symmetric adjacency.

    Construction rejects violations loudly instead of silently dropping
    them; deduplication of raw input belongs to the edge-list ingestion
    step, which reports what it collapsed.
    """

    __slots__ = ("n", "m", "_adj", "labels")

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge] = (),
        labels: Sequence[str] | None = None,
    ):
        if n < 0:
            raise InputError(f"node count must be non-negative, got {n}")
        if labels is not None and len(labels) != n:
            raise InputError(
                f"got {len(labels)} labels for {n} nodes"
            )
        adj: list[list[int]] = [[] for _ in range(n)]
        seen: set[Edge] = set()
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at node {u} is not allowed")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InputError(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
            m += 1
        for lst in adj:
            lst.sort()
        self.n = n
        self.m = m
        self._adj = adj
        self.labels = list(labels) if labels is not None else None

    # -- basic queries ---------------------------------------------------

    def _check_node(self, i: NodeId) -> None:
        if not (0 <= i < self.n):
            raise InputError(f"node id {i} out of range for n={self.n}")

    def degree(self, i: NodeId) -> int:
        self._check_node(i)
        return len(self._adj[i])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self._adj]

    def neighbors(self, i: NodeId) -> list[NodeId]:
        """Sorted neighbor ids of ``i`` (a copy; never contains ``i``)."""
        self._check_node(i)
        return list(self._adj[i])

    @property
    def adjacency(self) -> list[list[int]]:
        """Internal sorted adjacency lists. Treat as read-only."""
        return self._adj

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        self._check_node(u)
        self._check_node(v)
        nbrs = self._adj[u]
        pos = bisect_left(nbrs, v)
        return pos < len(nbrs) and nbrs[pos] == v

    def edges(self) -> Iterator[Edge]:
        """Each undirected edge once, as (u, v) with u < v, in sorted order."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def label_of(self, i: NodeId) -> str:
        self._check_node(i)
        return self.labels[i] if self.labels is not None else str(i)

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) view of the adjacency, for scipy.sparse consumers."""
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.degrees(), out=indptr[1:])
        indices = np.fromiter(
            chain.from_iterable(self._adj), dtype=np.int64, count=2 * self.m
        )
        return indptr, indices

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass
class ComponentPartition:
    """Connected components; numbering is by smallest contained node id."""

    component_of: list[int]
    sizes: list[int] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.sizes)

    def members(self, comp: int) -> list[int]:
        return [i for i, c in enumerate(self.component_of) if c == comp]

    def largest(self) -> list[int]:
        """Node ids of a largest component (ties: smallest component id)."""
        if not self.sizes:
            return []
        best = max(range(len(self.sizes)), key=lambda c: (self.sizes[c], -c))
        return self.members(best)


def connected_components(g: Graph) -> ComponentPartition:
    """BFS partition of the node set; components sizes sum to n."""
    comp = [-1] * g.n
    sizes: list[int] = []
    adj = g.adjacency
    for start in range(g.n):
        if comp[start] >= 0:
            continue
        cid = len(sizes)
        comp[start] = cid
        size = 1
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if comp[v] < 0:
                    comp[v] = cid
                    size += 1
                    queue.append(v)
        sizes.append(size)
    return ComponentPartition(comp, sizes)


def induced_subgraph(g: Graph, nodes: Sequence[NodeId]) -> Graph:
    """Subgraph on ``nodes``; ids are remapped to 0..len(nodes)-1 in the
    order given."""
    index = {u: i for i, u in enumerate(nodes)}
    if len(index) != len(nodes):
        raise InputError("node list for induced subgraph contains duplicates")
    edges = []
    for u in nodes:
        for v in g.adjacency[u]:
            if u < v and v in index:
                edges.append((index[u], index[v]))
    labels = None
    if g.labels is not None:
        labels = [g.labels[u] for u in nodes]
    return Graph(len(nodes), edges, labels)
