"""Topology metrics and node centralities.

All functions are pure reads of an immutable graph. Path length, diameter,
closeness and betweenness come from one sweep (``source_sweep``) that runs
the BFS from a block of sources at once by sparse matrix products, with
Brandes' accumulation run backwards over the same levels and reduced in a
fixed block order; ``summarize`` and ``node_stats`` can share one sweep.
``diameter`` alone needs no sweep of every source: iFUB from a double-sweep
start runs a few BFS on most graphs, small components included. Local
clustering is one sparse triangle count. Eigenvector centrality is power
iteration on the adjacency matrix of the largest component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateInputError, InputError, NumericalError
from .graph import ComponentPartition, Graph, connected_components


# -- distances ---------------------------------------------------------------


_BLOCK = 64  # sources per sweep block; its working arrays are (n, _BLOCK)
_EIGEN_TOL = 1e-10  # power iteration stops once no entry moves this much
_EIGEN_MAX_ITER = 100_000


class Sweep(NamedTuple):
    """Per source: distance sum, nodes reached besides itself, and
    eccentricity; per node, twice its betweenness when Brandes' pass ran
    (None otherwise)."""

    dist_sums: np.ndarray
    reached: np.ndarray
    eccentricity: np.ndarray
    betweenness: np.ndarray | None


def source_sweep(
    g: Graph, sources: Sequence[int] | None = None, brandes: bool = False
) -> Sweep:
    """Level-synchronous BFS from ``sources`` (default: every node), _BLOCK
    of them at a time.

    Column j of a block's frontier holds the shortest-path counts sigma of
    the nodes at the current depth from source j; ``A @ frontier`` advances
    every column one level. Per source: exact int64 distance sums, nodes
    reached besides the source, and eccentricity. With ``brandes``, each
    block runs Brandes' backward pass level by level from the deepest,
    delta += [level == k-1] * sigma * (A @ ([level == k] * (1 + delta) / sigma)),
    and its per-node dependencies are added to the total in block order.
    Raises NumericalError at the first block whose path counts overflow.
    """
    src = np.arange(g.n) if sources is None else np.asarray(sources, dtype=np.int64)
    sums, reached, ecc = np.zeros((3, len(src)), dtype=np.int64)
    between = np.zeros(g.n) if brandes else None
    a = g.matrix
    for lo in range(0, len(src), _BLOCK):
        block = src[lo : lo + _BLOCK]
        part = slice(lo, lo + len(block))
        level = np.full((g.n, len(block)), -1, dtype=np.int32)
        level[block, np.arange(len(block))] = 0
        sigma = (level == 0).astype(np.float64)
        frontier, depth = sigma, 0
        # an overflow of sigma is reported once the block's levels are known
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
                reached[part] += counts
                ecc[part][counts > 0] = depth
                frontier = paths * new if brandes else new.astype(np.float64)
                if brandes:
                    sigma += frontier
        if brandes:
            if not np.isfinite(sigma).all():
                raise NumericalError("shortest-path counts overflow float64")
            sigma[level < 0] = 1.0  # unreached: never read, kept off zero
            delta = np.zeros_like(sigma)
            for k in range(depth, 1, -1):
                coeff = (1.0 + delta) / sigma * (level == k)
                delta += sigma * (a @ coeff) * (level == k - 1)
            between += delta.sum(axis=1)
    return Sweep(sums, reached, ecc, between)


@dataclass(frozen=True)
class PathLengthStats:
    mean: float
    unreachable_fraction: float
    reachable_pairs: int


def _path_length_stats(n: int, sweep: Sweep) -> PathLengthStats:
    # a sweep over every source sees each unordered pair from both ends
    if n < 2:
        raise InputError("average path length needs at least 2 nodes")
    reachable = int(sweep.reached.sum()) // 2
    if reachable == 0:
        raise DegenerateInputError("no reachable pairs: all nodes are isolated")
    total = n * (n - 1) // 2
    return PathLengthStats(
        mean=int(sweep.dist_sums.sum()) // 2 / reachable,
        unreachable_fraction=(total - reachable) / total,
        reachable_pairs=reachable,
    )


def average_path_length(g: Graph) -> PathLengthStats:
    """Mean distance over unordered reachable pairs, with the fraction of
    pairs that are unreachable reported alongside."""
    return _path_length_stats(g.n, source_sweep(g))


def _bfs_levels(g: Graph, source: int) -> np.ndarray:
    """BFS depth of every node from ``source``; -1 where unreached."""
    level = np.full(g.n, -1, dtype=np.int64)
    level[source] = 0
    frontier = (level == 0).astype(np.float64)
    depth = 0
    while True:
        new = (g.matrix @ frontier > 0) & (level < 0)
        if not new.any():
            return level
        depth += 1
        level[new] = depth
        frontier = new.astype(np.float64)


def _largest_component_diameter(g: Graph, parts: ComponentPartition) -> int | None:
    """Exact diameter of the largest component of ``g``, given its
    partition; None when it has fewer than 2 nodes.

    iFUB (Crescenzi et al., TCS 514, 2013) from a double-sweep start
    (Takes & Kosters, Algorithms 4, 2011): BFS from the highest-degree node
    r (ties: smallest id) finds a farthest node a, BFS from a a farthest
    node b, and span = d(a, b) is the first lower bound; the start u is the
    smallest id halfway between a and b. The fringe levels of u's BFS are
    then swept from the deepest, i, down while lb < 2i: any two nodes at
    depth <= i are at most 2i apart, and every pair with an end deeper than
    i has been seen.
    """
    largest = parts.largest()
    if len(largest) < 2:
        return None
    degree = np.diff(g.matrix.indptr)[largest]
    r = largest[int(np.argmax(degree))]
    a = int(np.argmax(_bfs_levels(g, r)))
    from_a = _bfs_levels(g, a)
    b = int(np.argmax(from_a))
    span = int(from_a[b])
    half = span // 2
    from_b = _bfs_levels(g, b)
    u = int(np.flatnonzero((from_a == half) & (from_b == span - half))[0])
    from_u = _bfs_levels(g, u)
    depth = int(from_u.max())
    lb = max(span, depth)
    while lb < 2 * depth:
        fringe = np.flatnonzero(from_u == depth)
        lb = max(lb, int(source_sweep(g, fringe).eccentricity.max()))
        depth -= 1
    return lb


def diameter(g: Graph) -> int:
    """Longest shortest path; on disconnected graphs, that of the largest
    component. Exact, by iFUB from a double-sweep start."""
    if g.n < 2:
        raise InputError("diameter needs at least 2 nodes")
    diam = _largest_component_diameter(g, connected_components(g))
    if diam is None:
        raise DegenerateInputError(
            "largest component is a single node; diameter undefined"
        )
    return diam


# -- clustering and degrees ---------------------------------------------------


def local_clustering(g: Graph) -> np.ndarray:
    """Per node, the fraction of its neighbor pairs that are joined by an
    edge; zero by convention when the degree is below 2. Row i of
    (A @ A) * A sums to twice the number of edges among i's neighbors."""
    a = g.matrix
    twice_links = np.asarray((a @ a).multiply(a).sum(axis=1)).ravel()
    k = np.diff(a.indptr)
    return np.divide(twice_links, k * (k - 1), out=np.zeros(g.n), where=k >= 2)


def global_clustering(g: Graph) -> float:
    """Arithmetic mean of the local clustering coefficients."""
    if g.n == 0:
        raise InputError("clustering undefined for an empty graph")
    # a Python sum in node order, not numpy's pairwise sum
    return sum(local_clustering(g).tolist()) / g.n


def degree_distribution(g: Graph) -> dict[int, float]:
    """P(k): fraction of nodes with each observed degree; values sum to 1."""
    if g.n == 0:
        raise InputError("degree distribution undefined for an empty graph")
    counts: dict[int, int] = {}
    for k in g.degrees():
        counts[k] = counts.get(k, 0) + 1
    return {k: c / g.n for k, c in sorted(counts.items())}


# -- centralities --------------------------------------------------------------


def betweenness_centrality(g: Graph) -> np.ndarray:
    """Unnormalized betweenness: for each node v, the sum over unordered
    pairs (s, t) of the fraction of s-t shortest paths through v.

    Per-source dependencies are reduced in a fixed block order.
    """
    # each unordered pair was seen from both endpoints
    return source_sweep(g, brandes=True).betweenness / 2.0


def eigenvector_centrality(g: Graph) -> np.ndarray:
    """Principal adjacency eigenvector, rescaled so the maximum entry is 1.

    Computed on the largest component (other nodes score 0). The iteration
    runs on A + I, which has the same principal eigenvector but keeps
    bipartite graphs from oscillating between the +/- lambda modes.
    """
    if g.m == 0:
        raise DegenerateInputError("eigenvector centrality needs at least one edge")
    parts = connected_components(g)
    largest = parts.largest()
    a = g.matrix if len(largest) == g.n else g.matrix[largest][:, largest]
    v = np.full(len(largest), 1.0 / len(largest))
    for iteration in range(1, _EIGEN_MAX_ITER + 1):
        w = a @ v + v
        w /= np.abs(w).max()
        if np.abs(w - v).max() < _EIGEN_TOL:
            v = w
            break
        v = w
    else:
        raise NumericalError(
            f"power iteration did not converge within {_EIGEN_MAX_ITER} iterations"
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


def summarize(g: Graph, sweep: Sweep | None = None) -> GraphSummary:
    """Whole-graph statistics; degenerate metrics are reported as None.
    A sweep of every source (``sweep``, or one run here) gives the path
    lengths and the diameter."""
    parts = connected_components(g)
    if sweep is None:
        sweep = source_sweep(g)
    apl = frac = None
    clust = global_clustering(g) if g.n >= 1 else None
    try:
        stats = _path_length_stats(g.n, sweep)
        apl = stats.mean
        frac = stats.unreachable_fraction
    except (InputError, DegenerateInputError):
        pass
    largest = parts.largest()
    return GraphSummary(
        n=g.n,
        m=g.m,
        average_path_length=apl,
        diameter=int(sweep.eccentricity[largest].max()) if len(largest) >= 2 else None,
        global_clustering=clust,
        degree_distribution=degree_distribution(g) if g.n else {},
        unreachable_pair_fraction=frac,
        connected=parts.count == 1 and g.n > 0,
        component_count=parts.count,
    )


def node_stats(g: Graph, sweep: Sweep | None = None) -> list[NodeStats]:
    """Per-node table: degree, clustering, closeness, betweenness,
    eigenvector centrality. Closeness and betweenness come from one sweep
    of every source with Brandes' pass (``sweep``, or one run here)."""
    if sweep is None:
        sweep = source_sweep(g, brandes=True)
    sums = sweep.dist_sums
    closeness = np.divide(1.0, sums, out=np.full(g.n, np.nan), where=sums > 0)
    betweenness = sweep.betweenness / 2.0
    if g.m > 0:
        eigen = eigenvector_centrality(g)
    else:
        eigen = np.zeros(g.n)
    degrees = g.degrees()
    clustering = local_clustering(g).tolist()
    rows = []
    for i in range(g.n):
        rows.append(
            NodeStats(
                node=i,
                label=g.label_of(i),
                degree=degrees[i],
                clustering=clustering[i],
                closeness=None if math.isnan(closeness[i]) else float(closeness[i]),
                betweenness=float(betweenness[i]),
                eigenvector=float(eigen[i]),
            )
        )
    return rows
