"""Independent brute-force oracles for the metric tests.

These deliberately avoid the library's algorithms: betweenness is counted
by exhaustively enumerating every simple path between every pair, and
distances come from the same enumeration. Only usable on tiny graphs. A
per-node queue BFS, the closeness read from it, and a per-node count of the
links among a node's neighbors serve graphs too large to enumerate.
``dense_brandes`` is the dense form of the library's Brandes sweep, whose
bits the library must reproduce, and ``coupling_matrix`` the dense form of
its sparse coupling operator. ``power_law_ks`` measures a power-law fit
at every integer of the tail, where the library measures it at the points
that can hold the maximum. ``fraction_when_lcc_below`` and ``diameter_at``
read the rows of a removal trace as the resilience criteria state them.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np
from scipy.special import zeta

from netsync.errors import DegenerateInputError, NumericalError
from netsync.graph import Graph


def enumerate_simple_paths(g: Graph, s: int, t: int) -> list[list[int]]:
    """Every simple path from s to t, by depth-first enumeration."""
    paths: list[list[int]] = []

    def extend(path: list[int], seen: set[int]) -> None:
        u = path[-1]
        if u == t:
            paths.append(list(path))
            return
        for v in g.neighbors(u):
            if v not in seen:
                path.append(v)
                seen.add(v)
                extend(path, seen)
                path.pop()
                seen.remove(v)

    extend([s], {s})
    return paths


def brute_force_betweenness(g: Graph) -> list[float]:
    """Betweenness by definition: for every unordered pair, find all
    shortest paths and credit each interior node its fraction."""
    scores = [0.0] * g.n
    for s, t in itertools.combinations(range(g.n), 2):
        paths = enumerate_simple_paths(g, s, t)
        if not paths:
            continue
        shortest = min(len(p) for p in paths)
        geodesics = [p for p in paths if len(p) == shortest]
        for path in geodesics:
            for v in path[1:-1]:
                scores[v] += 1.0 / len(geodesics)
    return scores


def brute_force_distance(g: Graph, s: int, t: int) -> float:
    if s == t:
        return 0.0
    paths = enumerate_simple_paths(g, s, t)
    if not paths:
        return math.inf
    return min(len(p) for p in paths) - 1


def shortest_path_lengths(g: Graph, source: int) -> list[float]:
    """BFS distances from ``source``; unreachable nodes get math.inf."""
    g._check_node(source)
    dist = [math.inf] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if dist[v] == math.inf:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def closeness_centrality(g: Graph, i: int) -> float:
    """Reciprocal of the sum of distances from ``i`` to every node it can
    reach. On disconnected graphs this is a within-component score."""
    if not g.neighbors(i):
        raise DegenerateInputError(f"closeness undefined for isolated node {i}")
    return 1.0 / sum(d for d in shortest_path_lengths(g, i) if d != math.inf)


def local_clustering(g: Graph, i: int) -> float:
    """Fraction of neighbor pairs of ``i`` joined by an edge, by counting
    them; zero by convention when the degree is below 2."""
    nbrs = g.neighbors(i)
    k = len(nbrs)
    if k < 2:
        return 0.0
    nbr_set = set(nbrs)
    links = 0
    for u in nbrs:
        for v in g.neighbors(u):
            if v > u and v in nbr_set:
                links += 1
    return 2.0 * links / (k * (k - 1))


def dense_brandes(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Brandes' sweep on dense (n, 64) matrices, 64 sources at a time: an
    int32 depth per node and source, and one allocating ``A @ x`` per level,
    forward and back. Returns each node's int64 distance sum and twice its
    betweenness."""
    sums = np.zeros(g.n, dtype=np.int64)
    between = np.zeros(g.n)
    a = g.matrix
    for lo in range(0, g.n, 64):
        block = np.arange(lo, min(lo + 64, g.n))
        part = slice(lo, lo + len(block))
        level = np.full((g.n, len(block)), -1, dtype=np.int32)
        level[block, np.arange(len(block))] = 0
        sigma = (level == 0).astype(np.float64)
        frontier, depth = sigma, 0
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                paths = a @ frontier
                new = (paths > 0) & (level < 0)
                counts = np.count_nonzero(new, axis=0)
                if not counts.any():
                    break
                depth += 1
                level += np.int32(depth + 1) * new
                sums[part] += depth * counts
                frontier = paths * new
                sigma += frontier
        if not np.isfinite(sigma).all():
            raise NumericalError("shortest-path counts overflow float64")
        sigma[level < 0] = 1.0  # unreached: never read, kept off zero
        delta = np.zeros_like(sigma)
        for k in range(depth, 1, -1):
            coeff = (1.0 + delta) / sigma * (level == k)
            delta += sigma * (a @ coeff) * (level == k - 1)
        between += delta.sum(axis=1)
    return sums, between


def coupling_matrix(g: Graph) -> np.ndarray:
    """Dense coupling matrix from the adjacency matrix: a_ij = 1 on edges and
    a_ii = -k_i, minus the sum of the row."""
    a = g.matrix.toarray()
    return a - np.diag(a.sum(axis=1))


def power_law_ks(degrees, gamma: float, k_min: int) -> float:
    """KS distance between the empirical CDF of the degrees >= k_min and
    the discrete power law k^-gamma from k_min, taken at every integer
    from k_min to the largest degree."""
    tail = np.sort(np.asarray(degrees, dtype=np.int64))
    tail = tail[tail >= k_min]
    grid = np.arange(k_min, tail[-1] + 1, dtype=np.int64)
    emp = np.searchsorted(tail, grid, side="right") / tail.size
    fitted = 1.0 - zeta(gamma, grid + 1) / zeta(gamma, k_min)
    return float(np.abs(emp - fitted).max())


def fraction_when_lcc_below(rows, threshold: int) -> float | None:
    """First recorded removal fraction whose largest component is smaller
    than ``threshold``; None if no row's is."""
    for row in rows:
        if row.lcc_size < threshold:
            return row.fraction_removed
    return None


def diameter_at(rows, fraction: float) -> int:
    """Diameter at the last recorded row with at most ``fraction`` removed."""
    best = rows[0]
    for row in rows:
        if row.fraction_removed <= fraction:
            best = row
    return best.diameter
