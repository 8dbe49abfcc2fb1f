"""Scale-free and random graph synthesis.

Randomness comes from numpy's PCG64 generator so that a given (params, seed)
pair reproduces the same edge set on every platform and run. Generation is
sequential per call; concurrent calls with distinct seeds are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_memory, format_count
from .graph import Graph


def _check_graph_memory(model: str, n: int, edges: int) -> None:
    """Reject a graph whose arrays cannot fit, before any is built. The
    bytes, an exact integer at any count, are a lower bound on what ``Graph``
    holds while it is built: per edge its int64 pair and two stored entries,
    each a float64 value and the int64 column they are sorted by; per node
    an int64 degree count and an int32 row pointer. The generators' Python
    lists come on top."""
    check_memory(48 * edges + 12 * n,
                 f"the arrays of {model}(n={format_count(n)}) with {format_count(edges)} edges")


def rng_from_seed(seed: int) -> np.random.Generator:
    """The toolkit-wide RNG: PCG64 seeded with a non-negative integer."""
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class BAParams:
    """Preferential-attachment growth: n target nodes, m edges per new node,
    complete seed core of m0 nodes (defaults to m + 1)."""

    n: int
    m: int
    m0: int | None = None
    seed: int = 0

    def core_size(self) -> int:
        return self.m + 1 if self.m0 is None else self.m0

    def validate(self) -> None:
        m0 = self.core_size()
        if not (1 <= self.m <= m0 < self.n):
            raise InputError(
                f"need 1 <= m <= m0 < n, got m={format_count(self.m)}, "
                f"m0={format_count(m0)}, n={format_count(self.n)}"
            )
        _check_graph_memory("BA", self.n, m0 * (m0 - 1) // 2 + (self.n - m0) * self.m)


@dataclass(frozen=True)
class ERParams:
    """Uniform random graph with an exact edge count (the G(n, M) variant)."""

    n: int
    m: int
    seed: int = 0

    def validate(self) -> None:
        if self.n < 0:
            raise InputError(f"node count must be non-negative, got {format_count(self.n)}")
        max_edges = self.n * (self.n - 1) // 2
        if not (0 <= self.m <= max_edges):
            raise InputError(
                f"edge count {format_count(self.m)} outside [0, {format_count(max_edges)}] "
                f"for n={format_count(self.n)}"
            )
        _check_graph_memory("ER", self.n, self.m)


def generate_ba(p: BAParams) -> Graph:
    """Grow a scale-free graph by preferential attachment.

    Starts from a complete core of m0 nodes so every node has positive
    degree from the first step. Each new node then links to m distinct
    existing targets; each draw is degree-proportional (implemented as a
    uniform pick from the list of all edge endpoints so far) and draws that
    repeat an already chosen target are rejected and retried.
    """
    p.validate()
    rng = rng_from_seed(p.seed)
    m0 = p.core_size()

    edges: list[tuple[int, int]] = [
        (i, j) for i in range(m0) for j in range(i + 1, m0)
    ]
    # one entry per edge endpoint: uniform picks from this list are
    # degree-proportional picks over nodes
    endpoints: list[int] = []
    for u, v in edges:
        endpoints.append(u)
        endpoints.append(v)

    for new in range(m0, p.n):
        targets: set[int] = set()
        while len(targets) < p.m:
            cand = endpoints[rng.integers(0, len(endpoints))]
            if cand not in targets:
                targets.add(cand)
        for t in sorted(targets):
            edges.append((t, new))
            endpoints.append(t)
            endpoints.append(new)
    return Graph(p.n, edges)


def generate_er(p: ERParams) -> Graph:
    """Sample exactly m distinct edges uniformly among the n(n-1)/2 pairs."""
    p.validate()
    rng = rng_from_seed(p.seed)
    total = p.n * (p.n - 1) // 2
    if p.m == total:
        ranks = np.arange(total, dtype=np.int64)
    elif total <= (1 << 22) and p.m > total // 2:
        # dense request: a full permutation beats rejection sampling
        ranks = rng.permutation(total)[: p.m]
    else:
        chosen: set[int] = set()
        order: list[int] = []
        while len(order) < p.m:
            batch = rng.integers(0, total, size=max(64, p.m - len(order)))
            for r in batch:
                r = int(r)
                if r not in chosen:
                    chosen.add(r)
                    order.append(r)
                    if len(order) == p.m:
                        break
        ranks = np.asarray(order, dtype=np.int64)
    edges = [_decode_pair(int(r), p.n) for r in ranks]
    return Graph(p.n, edges)


def _encode_pair(u: int, v: int, n: int) -> int:
    """Rank of pair (u, v), u < v, in lexicographic order over all pairs."""
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def _decode_pair(rank: int, n: int) -> tuple[int, int]:
    """Inverse of _encode_pair, exact integer arithmetic throughout."""
    # initial estimate from the quadratic, then fix up exactly
    u = int((2 * n - 1 - math.isqrt((2 * n - 1) ** 2 - 8 * rank)) // 2)
    u = max(0, min(u, n - 2))
    while _encode_pair(u, u + 1, n) > rank:
        u -= 1
    while u + 1 < n - 1 and _encode_pair(u + 1, u + 2, n) <= rank:
        u += 1
    v = u + 1 + (rank - _encode_pair(u, u + 1, n))
    return u, v
