"""Undirected simple graph with dense integer node ids.

Storage is one scipy CSR adjacency matrix (``Graph.matrix``): float64 ones,
each edge stored in both directions, column indices sorted within each row.
Every module reads that matrix; graphs are immutable after construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .errors import InputError

NodeId = int
Edge = tuple[NodeId, NodeId]


def _adjacency(n: int, rows: np.ndarray, cols: np.ndarray) -> csr_matrix:
    """n x n CSR matrix of ones at (rows[i], cols[i]), column indices sorted
    within each row; the pairs must be distinct."""
    index = np.int32 if max(n, len(cols)) < 2**31 else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indices = cols[np.argsort(rows * n + cols)].astype(index)
    matrix = csr_matrix((np.ones(len(cols)), indices, indptr), shape=(n, n))
    matrix.has_sorted_indices = True
    return matrix


class Graph:
    """Simple graph: no self-loops, no parallel edges, symmetric adjacency.

    Construction rejects violations loudly instead of silently dropping
    them, naming the first offending edge in input order; deduplication of
    raw input belongs to the edge-list ingestion step, which reports what
    it collapsed.
    """

    __slots__ = ("n", "m", "matrix", "labels")

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge] = (),
        labels: Sequence[str] | None = None,
    ):
        if n < 0:
            raise InputError(f"node count must be non-negative, got {n}")
        if labels is not None and len(labels) != n:
            raise InputError(f"got {len(labels)} labels for {n} nodes")
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        u, v = pairs[:, 0], pairs[:, 1]
        out_of_range = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        # every occurrence of an edge after its first is a duplicate
        keys = np.where(out_of_range, -1, lo * n + hi)
        duplicate = np.ones(len(keys), dtype=bool)
        duplicate[np.unique(keys, return_index=True)[1]] = False
        bad = out_of_range | (u == v) | duplicate
        if bad.any():
            i = int(np.argmax(bad))
            a, b = int(u[i]), int(v[i])
            if out_of_range[i]:
                raise InputError(f"edge ({a}, {b}) out of range for n={n}")
            if a == b:
                raise InputError(f"self-loop at node {a} is not allowed")
            raise InputError(f"duplicate edge ({min(a, b)}, {max(a, b)})")
        self.n = n
        self.m = len(pairs)
        self.matrix = _adjacency(n, np.concatenate([u, v]), np.concatenate([v, u]))
        self.labels = list(labels) if labels is not None else None

    # -- basic queries ---------------------------------------------------

    def _check_node(self, i: NodeId) -> None:
        if not (0 <= i < self.n):
            raise InputError(f"node id {i} out of range for n={self.n}")

    def degree(self, i: NodeId) -> int:
        self._check_node(i)
        return int(self.matrix.indptr[i + 1] - self.matrix.indptr[i])

    def degrees(self) -> list[int]:
        return np.diff(self.matrix.indptr).tolist()

    def _row(self, i: NodeId) -> np.ndarray:
        return self.matrix.indices[self.matrix.indptr[i] : self.matrix.indptr[i + 1]]

    def neighbors(self, i: NodeId) -> list[NodeId]:
        """Sorted neighbor ids of ``i`` (a copy; never contains ``i``)."""
        self._check_node(i)
        return self._row(i).tolist()

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        self._check_node(u)
        self._check_node(v)
        nbrs = self._row(u)
        pos = int(nbrs.searchsorted(v))
        return pos < len(nbrs) and int(nbrs[pos]) == v

    def edges(self) -> Iterator[Edge]:
        """Each undirected edge once, as (u, v) with u < v, in sorted order."""
        a = self.matrix
        rows = np.repeat(np.arange(self.n), np.diff(a.indptr))
        upper = rows < a.indices
        return zip(rows[upper].tolist(), a.indices[upper].tolist())

    def label_of(self, i: NodeId) -> str:
        self._check_node(i)
        return self.labels[i] if self.labels is not None else str(i)

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

    def largest(self) -> list[int]:
        """Node ids of a largest component (ties: smallest component id)."""
        if not self.sizes:
            return []
        best = max(range(len(self.sizes)), key=lambda c: (self.sizes[c], -c))
        return [i for i, c in enumerate(self.component_of) if c == best]


def connected_components(g: Graph) -> ComponentPartition:
    """BFS partition of the node set; components sizes sum to n."""
    comp = [-1] * g.n
    sizes: list[int] = []
    indptr, indices = g.matrix.indptr.tolist(), g.matrix.indices.tolist()
    for start in range(g.n):
        if comp[start] >= 0:
            continue
        cid = len(sizes)
        comp[start] = cid
        size = 1
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in indices[indptr[u] : indptr[u + 1]]:
                if comp[v] < 0:
                    comp[v] = cid
                    size += 1
                    queue.append(v)
        sizes.append(size)
    return ComponentPartition(comp, sizes)
