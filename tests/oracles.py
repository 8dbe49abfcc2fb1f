"""Independent brute-force oracles for the metric tests.

These deliberately avoid the library's algorithms: betweenness is counted
by exhaustively enumerating every simple path between every pair, and
distances come from the same enumeration. Only usable on tiny graphs. A
per-node queue BFS, the closeness read from it, and a per-node count of the
links among a node's neighbors serve graphs too large to enumerate.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

from netsync.errors import DegenerateInputError
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
    g._check_node(i)
    if g.degree(i) == 0:
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
