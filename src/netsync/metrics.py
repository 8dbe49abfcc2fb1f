"""Topology metrics and node centralities.

All functions are pure reads of an immutable graph. Single-source distances
use a plain BFS; whole-matrix distance computations go through
scipy.sparse.csgraph, which runs the same unweighted BFS in C. Betweenness
is Brandes' accumulation; eigenvector centrality is power iteration on the
adjacency matrix of the largest component.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path as _csgraph_shortest_path

from .errors import DegenerateInputError, InputError, NumericalError
from .graph import ComponentPartition, Graph, connected_components, induced_subgraph

INF = math.inf


# -- distances ---------------------------------------------------------------


def shortest_path_lengths(g: Graph, source: int) -> list[float]:
    """BFS distances from ``source``; unreachable nodes get math.inf."""
    g._check_node(source)
    dist = [INF] * g.n
    dist[source] = 0
    queue = deque([source])
    adj = g.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] == INF:
                dist[v] = du + 1
                queue.append(v)
    return dist


def _adjacency_csr(g: Graph) -> csr_matrix:
    indptr, indices = g.csr_arrays()
    data = np.ones(len(indices), dtype=np.int8)
    return csr_matrix((data, indices, indptr), shape=(g.n, g.n))


def all_pairs_distances(g: Graph) -> np.ndarray:
    """Dense (n, n) matrix of hop counts; np.inf marks unreachable pairs."""
    if g.n == 0:
        return np.zeros((0, 0))
    if g.m == 0:
        d = np.full((g.n, g.n), np.inf)
        np.fill_diagonal(d, 0.0)
        return d
    return _csgraph_shortest_path(_adjacency_csr(g), method="D", unweighted=True)


@dataclass(frozen=True)
class PathLengthStats:
    mean: float
    unreachable_fraction: float
    reachable_pairs: int


def average_path_length(g: Graph) -> PathLengthStats:
    """Mean distance over unordered reachable pairs, with the fraction of
    pairs that are unreachable reported alongside."""
    if g.n < 2:
        raise InputError("average path length needs at least 2 nodes")
    d = all_pairs_distances(g)
    iu = np.triu_indices(g.n, k=1)
    vals = d[iu]
    finite = np.isfinite(vals)
    reachable = int(finite.sum())
    if reachable == 0:
        raise DegenerateInputError("no reachable pairs: all nodes are isolated")
    total = vals.size
    return PathLengthStats(
        mean=float(vals[finite].sum() / reachable),
        unreachable_fraction=float((total - reachable) / total),
        reachable_pairs=reachable,
    )


def _largest_component_diameter(g: Graph, parts: ComponentPartition) -> int | None:
    """Diameter of the largest component of ``g``, given its partition;
    None when that component has fewer than 2 nodes."""
    largest = parts.largest()
    if len(largest) < 2:
        return None
    sub = g if len(largest) == g.n else induced_subgraph(g, largest)
    d = all_pairs_distances(sub)
    return int(d[np.isfinite(d)].max())


def diameter(g: Graph) -> int:
    """Longest shortest path; on disconnected graphs, that of the largest
    component."""
    if g.n < 2:
        raise InputError("diameter needs at least 2 nodes")
    diam = _largest_component_diameter(g, connected_components(g))
    if diam is None:
        raise DegenerateInputError(
            "largest component is a single node; diameter undefined"
        )
    return diam


# -- clustering and degrees ---------------------------------------------------


def local_clustering(g: Graph, i: int) -> float:
    """Fraction of neighbor pairs of ``i`` that are joined by an edge;
    zero by convention when the degree is below 2."""
    g._check_node(i)
    nbrs = g.adjacency[i]
    k = len(nbrs)
    if k < 2:
        return 0.0
    nbr_set = set(nbrs)
    links = 0
    for u in nbrs:
        adj_u = g.adjacency[u]
        for v in adj_u:
            if v > u and v in nbr_set:
                links += 1
    return 2.0 * links / (k * (k - 1))


def global_clustering(g: Graph) -> float:
    """Arithmetic mean of the local clustering coefficients."""
    if g.n == 0:
        raise InputError("clustering undefined for an empty graph")
    return sum(local_clustering(g, i) for i in range(g.n)) / g.n


def degree_distribution(g: Graph) -> dict[int, float]:
    """P(k): fraction of nodes with each observed degree; values sum to 1."""
    if g.n == 0:
        raise InputError("degree distribution undefined for an empty graph")
    counts: dict[int, int] = {}
    for k in g.degrees():
        counts[k] = counts.get(k, 0) + 1
    return {k: c / g.n for k, c in sorted(counts.items())}


# -- centralities --------------------------------------------------------------


def closeness_centrality(g: Graph, i: int) -> float:
    """Reciprocal of the sum of distances from ``i`` to every node it can
    reach. On disconnected graphs this is a within-component score."""
    g._check_node(i)
    if g.degree(i) == 0:
        raise DegenerateInputError(f"closeness undefined for isolated node {i}")
    dist = shortest_path_lengths(g, i)
    total = sum(d for d in dist if d != INF)
    return 1.0 / total


def closeness_vector(g: Graph) -> np.ndarray:
    """Closeness for every node at once; isolated nodes get nan."""
    d = all_pairs_distances(g)
    d = np.where(np.isfinite(d), d, 0.0)
    sums = d.sum(axis=1)
    out = np.full(g.n, np.nan)
    nz = sums > 0
    out[nz] = 1.0 / sums[nz]
    return out


def _brandes_source(adj: list[list[int]], n: int, s: int) -> np.ndarray:
    """Dependency accumulation of one source: Brandes' algorithm."""
    sigma = [0.0] * n
    dist = [-1] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    sigma[s] = 1.0
    dist[s] = 0
    order: list[int] = []
    queue = deque([s])
    while queue:
        v = queue.popleft()
        order.append(v)
        dv = dist[v]
        sv = sigma[v]
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dv + 1
                queue.append(w)
            if dist[w] == dv + 1:
                sigma[w] += sv
                preds[w].append(v)
    delta = [0.0] * n
    contrib = np.zeros(n)
    for w in reversed(order):
        coeff = (1.0 + delta[w]) / sigma[w]
        for v in preds[w]:
            delta[v] += sigma[v] * coeff
        if w != s:
            contrib[w] = delta[w]
    return contrib


def betweenness_centrality(g: Graph) -> np.ndarray:
    """Unnormalized betweenness: for each node v, the sum over unordered
    pairs (s, t) of the fraction of s-t shortest paths through v.

    Per-source accumulations are reduced in ascending source order.
    """
    n = g.n
    adj = g.adjacency
    total = np.zeros(n)
    for s in range(n):
        total += _brandes_source(adj, n, s)
    # each unordered pair was seen from both endpoints
    return total / 2.0


def eigenvector_centrality(
    g: Graph,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> np.ndarray:
    """Principal adjacency eigenvector, rescaled so the maximum entry is 1.

    Computed on the largest component (other nodes score 0). The iteration
    runs on A + I, which has the same principal eigenvector but keeps
    bipartite graphs from oscillating between the +/- lambda modes.
    """
    if g.m == 0:
        raise DegenerateInputError("eigenvector centrality needs at least one edge")
    parts = connected_components(g)
    largest = parts.largest()
    sub = g if len(largest) == g.n else induced_subgraph(g, largest)
    a = _adjacency_csr(sub).astype(np.float64)
    v = np.full(sub.n, 1.0 / sub.n)
    for iteration in range(1, max_iter + 1):
        w = a @ v + v
        w /= np.abs(w).max()
        if np.abs(w - v).max() < tol:
            v = w
            break
        v = w
    else:
        raise NumericalError(
            f"power iteration did not converge within {max_iter} iterations"
        )
    lam = float(v @ (a @ v)) / float(v @ v)
    v = v / v.max()
    residual = np.abs(a @ v - lam * v).max()
    if lam > 0 and residual / lam > 1e-8:
        raise NumericalError(
            f"power iteration residual {residual / lam:.2e} above tolerance "
            f"after {iteration} iterations"
        )
    out = np.zeros(g.n)
    out[np.asarray(largest, dtype=np.int64)] = v
    return out


# -- aggregation ---------------------------------------------------------------


@dataclass
class NodeStats:
    """One row of the per-node report: degree, clustering, and the three
    centrality scores."""

    node: int
    label: str
    degree: int
    clustering: float
    closeness: float | None
    betweenness: float
    eigenvector: float


@dataclass
class GraphSummary:
    n: int
    m: int
    average_path_length: float | None
    diameter: int | None
    global_clustering: float | None
    degree_distribution: dict[int, float]
    unreachable_pair_fraction: float | None
    connected: bool
    component_count: int


def summarize(g: Graph) -> GraphSummary:
    """Whole-graph statistics; degenerate metrics are reported as None."""
    parts = connected_components(g)
    apl = None
    frac = None
    clust = None
    if g.n >= 1:
        clust = global_clustering(g)
    try:
        stats = average_path_length(g)
        apl = stats.mean
        frac = stats.unreachable_fraction
    except (InputError, DegenerateInputError):
        pass
    return GraphSummary(
        n=g.n,
        m=g.m,
        average_path_length=apl,
        diameter=_largest_component_diameter(g, parts),
        global_clustering=clust,
        degree_distribution=degree_distribution(g) if g.n else {},
        unreachable_pair_fraction=frac,
        connected=parts.count == 1 and g.n > 0,
        component_count=parts.count,
    )


def node_stats(g: Graph) -> list[NodeStats]:
    """Per-node table: degree, clustering, closeness, betweenness,
    eigenvector centrality."""
    closeness = closeness_vector(g)
    betweenness = betweenness_centrality(g)
    if g.m > 0:
        eigen = eigenvector_centrality(g)
    else:
        eigen = np.zeros(g.n)
    rows = []
    for i in range(g.n):
        rows.append(
            NodeStats(
                node=i,
                label=g.label_of(i),
                degree=g.degree(i),
                clustering=local_clustering(g, i),
                closeness=None if math.isnan(closeness[i]) else float(closeness[i]),
                betweenness=float(betweenness[i]),
                eigenvector=float(eigen[i]),
            )
        )
    return rows
