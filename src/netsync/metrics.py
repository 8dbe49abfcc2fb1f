"""Topology metrics and node centralities.

All functions are pure reads of an immutable graph, and each metric runs
its own kernel. Every BFS runs 64 to a machine word on one bit-parallel
kernel: the path lengths of ``summarize``; iFUB from a double-sweep
start, which measures ``diameter`` and a stack of resilience rows, each a
node mask of one graph, with a few BFS on most graphs; and the levels of
Brandes' sweep (``_brandes``), which gives closeness and betweenness. That
sweep counts shortest paths and accumulates dependencies by sparse
products on each level's rows. Each product reads an array of every level
found or passed so far: a node at depth d has neighbours only at depths
d - 1, d and d + 1, so it sees only the one level that it needs. Its
blocks of 64 sources run on a thread pool with a thread per CPU, whose
``map`` gives their results back in block order to be added, so the
outputs have the same bits at any worker count.
Local clustering is one sparse triangle count. Eigenvector centrality is
power iteration on the adjacency matrix of the largest component.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np
from scipy.sparse import _sparsetools, csr_matrix

from .errors import DegenerateInputError, InputError, NumericalError, check_memory
from .graph import Graph, connected_components


# -- distances ---------------------------------------------------------------


_BLOCK = 64  # sources per sweep block; its working arrays are (n, _BLOCK)
_CHUNK = 1 << 14  # (node, source) pairs per elementwise step of a Brandes level
# Brandes blocks run on every CPU this process may use
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_EIGEN_TOL = 1e-10  # power iteration stops once no entry moves this much
_EIGEN_MAX_ITER = 100_000


class Sweep(NamedTuple):
    """Per node, over a BFS from every node: distance sum, nodes reached
    besides itself, and eccentricity."""

    dist_sums: np.ndarray
    reached: np.ndarray
    eccentricity: np.ndarray


_WORD = np.dtype("<u8")  # one bit per BFS task; little-endian, so its bytes unpack in task order
_TASK_BIT = np.left_shift(1, np.arange(_BLOCK, dtype=np.uint64), dtype=_WORD)


def _bit_levels(
    g: Graph, sources: np.ndarray, mask: np.ndarray | None = None
) -> Iterator[np.ndarray]:
    """Up to 64 BFS tasks, one bit each in a word per node (Then et al.,
    PVLDB 8(4), 449, 2014). Task t starts at ``sources[t]`` (a node may
    start several) and enters only nodes whose ``mask`` word has bit t set.
    Yields, per depth from 1, the words of the nodes first reached there.
    A level ORs each node's neighbour words by one ``reduceat`` over the
    nodes of nonzero degree, whose segments are never empty."""
    a = g.matrix
    linked = np.flatnonzero(np.diff(a.indptr))  # none: one empty reduceat, no level
    starts = a.indptr[linked]
    frontier = np.zeros(g.n, dtype=_WORD)
    np.bitwise_or.at(frontier, sources, _TASK_BIT[: len(sources)])
    unseen = ~frontier if mask is None else mask & ~frontier
    while True:
        new = np.zeros(g.n, dtype=_WORD)
        new[linked] = np.bitwise_or.reduceat(frontier.take(a.indices), starts)
        new &= unseen
        if not new.any():
            return
        unseen ^= new
        yield new
        frontier = new


def _bfs(
    g: Graph, sources: np.ndarray, members: np.ndarray, rows: np.ndarray, levels: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eccentricity of each task t, a BFS from ``sources[t]`` that enters
    only the nodes of row ``rows[t]`` of the (rows, n) bool ``members``,
    _BLOCK tasks per ``_bit_levels`` run. With ``levels``, also the
    (tasks, n) int32 depths, -1 where unreached."""
    ecc = np.zeros(len(sources), dtype=np.int64)
    level = np.full((len(sources), g.n), -1, dtype=np.int32) if levels else None
    for lo in range(0, len(sources), _BLOCK):
        block = sources[lo : lo + _BLOCK]
        tasks = np.arange(lo, lo + len(block))
        bits = np.zeros((g.n, _BLOCK), dtype=bool)
        bits[:, : len(block)] = members[rows[tasks]].T
        mask = np.packbits(bits, axis=1, bitorder="little").view(_WORD).ravel()
        if level is not None:
            level[tasks, block] = 0
        for depth, new in enumerate(_bit_levels(g, block, mask), start=1):
            # bit t of a word unpacks to position t of its 64 bits
            reach = np.bitwise_or.reduce(new, keepdims=True).view(np.uint8)
            ecc[lo + np.flatnonzero(np.unpackbits(reach, bitorder="little"))] = depth
            if level is not None:
                nodes = np.flatnonzero(new)
                words = new[nodes].view(np.uint8).reshape(-1, 8)
                at, task = np.nonzero(np.unpackbits(words, axis=1, bitorder="little"))
                level[lo + task, nodes[at]] = depth
    return ecc, level


def _forward_sweep(g: Graph) -> Sweep:
    """BFS from every node, _BLOCK per ``_bit_levels`` run. As d(s, v) =
    d(v, s), the bits that first reach v at depth d count the nodes d away
    from v: v's own distance sum, reached count and eccentricity."""
    sums, reached, ecc = np.zeros((3, g.n), dtype=np.int64)
    for lo in range(0, g.n, _BLOCK):
        block = np.arange(lo, min(lo + _BLOCK, g.n))
        for depth, new in enumerate(_bit_levels(g, block), start=1):
            counts = np.bitwise_count(new).astype(np.int64)
            sums += depth * counts
            reached += counts
            np.maximum(ecc, depth * (counts > 0), out=ecc)
    return Sweep(sums, reached, ecc)


def _product_rows(
    a: csr_matrix, x: np.ndarray, out: np.ndarray, width: int, rows: slice
) -> None:
    """``out = A @ x`` on ``rows``, a range of node rows of C-ordered
    (n, width) arrays such as ``x`` and ``out``; other rows of ``out`` keep
    their values. The rows are zeroed and given to ``csr_matvecs``, the
    kernel that ``A @ x`` calls, which adds each row's products to them in
    CSR order."""
    part = out[rows.start * width : rows.stop * width]
    part.fill(0.0)
    _sparsetools.csr_matvecs(rows.stop - rows.start, a.shape[1], width,
                             a.indptr[rows.start : rows.stop + 1], a.indices, a.data, x, part)


def _brandes_block(
    g: Graph, lo: int, buffers: np.ndarray, pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One block of ``_brandes``: the sources ``lo`` to ``lo + _BLOCK``,
    on one worker's (3, n * _BLOCK) float64 ``buffers`` and its ``pairs``
    store. Returns the block's int64 distance sums and per-node
    dependency sums."""
    n, a = g.n, g.matrix
    block = np.arange(lo, min(lo + _BLOCK, n))
    width = len(block)
    dep, weight, paths = buffers[:, : n * width]
    dep.fill(0.0)
    weight.fill(0.0)
    sources = block * width + np.arange(width)
    dep[sources] = 1.0
    sums = np.zeros(n, dtype=np.int64)
    levels = [0]  # level d holds pairs[levels[d - 1] : levels[d]]
    spans = []  # the node rows of each level
    step = _CHUNK // 64  # words per chunk: at most _CHUNK pairs
    for depth, new in enumerate(_bit_levels(g, block), start=1):
        rows = np.flatnonzero(new)
        words = new[rows]
        counts = np.bitwise_count(words).astype(np.int64)
        sums[rows] += depth * counts
        # in a chunk of words, bit t of its i-th word unpacks to position
        # 64 i + t; its pair is entry width * rows[i] + t
        shift = width * rows - 64 * (np.arange(len(rows)) % step)
        end = levels[-1]
        for i in range(0, len(rows), step):
            part = slice(i, i + step)
            bits = np.unpackbits(words[part].view(np.uint8), bitorder="little").view(bool)
            found = np.flatnonzero(bits)
            found += shift[part].repeat(counts[part])
            pairs[end : end + len(found)] = found
            end += len(found)
        spans.append(slice(int(rows[0]), int(rows[-1]) + 1))
        _product_rows(a, dep, paths, width, spans[-1])
        for i in range(levels[-1], end, _CHUNK):
            level = pairs[i : min(i + _CHUNK, end)].astype(np.intp)
            sigma = paths.take(level)
            if not np.isfinite(sigma).all():
                raise NumericalError("shortest-path counts overflow float64")
            dep[level] = sigma
        levels.append(end)
    # back from the deepest level, where weight and so A @ weight are still
    # all 0, and so is delta: sigma becomes delta in place, and weight gets
    # (1 + delta) / sigma of each level passed
    for k in range(len(spans), 0, -1):
        rows = spans[k - 1]
        if k < len(spans):
            _product_rows(a, weight, paths, width, rows)
        else:
            paths[rows.start * width : rows.stop * width].fill(0.0)
        for i in range(levels[k - 1], levels[k], _CHUNK):
            level = pairs[i : min(i + _CHUNK, levels[k])].astype(np.intp)
            sigma = dep.take(level)
            delta = paths.take(level)
            delta *= sigma
            dep[level] = delta
            delta += 1.0
            delta /= sigma
            weight[level] = delta
    dep[sources] = 0.0
    return sums, dep.reshape(n, width).sum(axis=1)


def _brandes(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Brandes' sweep of every node, _BLOCK sources at a time: each node's
    exact int64 distance sum and twice its betweenness.

    ``_bit_levels`` gives each block's BFS levels. The distance sums count
    the bits of each level's words, as in ``_forward_sweep``: as d(s, v) =
    d(v, s), they are each node's sums over every source. A level is kept
    as its (node, source) pairs, flat indices into the block's C-ordered
    (n, sources) arrays. ``dep`` holds the shortest-path counts sigma of
    every level found so far, and 1 at the sources; A @ dep gives the next
    level's sigma. A node at depth d has neighbours only at depths d - 1,
    d and d + 1, of which only the d - 1 entries are set yet, so each sum
    has the nonzero terms, in CSR order, of a product with the previous
    level alone. The backward pass runs from the deepest level,
    delta += [level k-1] * sigma * (A @ ([level k] * (1 + delta) / sigma)),
    with ``weight`` holding (1 + delta) / sigma of every level passed and
    never cleared: a node at depth k - 1 sees only its depth-k entries.
    sigma becomes delta in place once its level is passed. The deepest
    level sees an all-zero ``weight``, so its delta is 0, and the sources'
    delta is set to 0 at the end.

    Each product (``_product_rows``) computes only the rows from the first
    to the last node of the level it feeds, each with the bits that the
    allocating ``A @ x`` gives it, so every pair gets the bits of the dense
    expressions above. The elementwise work of a level runs _CHUNK pairs
    at a time, so no temporary grows with the level.

    The blocks run on ``workers`` (at most ``_WORKERS``) threads of a pool
    that lives only inside the call. Each block borrows from a queue one of
    ``workers`` buffer sets, three (n, _BLOCK) arrays and a pair store
    allocated up front. ``ThreadPoolExecutor.map`` returns the block
    results in block order, and they are added to the totals as they come,
    so every output has the same bits for any worker count. With one
    worker the blocks run in the calling thread, through the builtin
    ``map``. Raises NumericalError at a block whose path counts overflow.
    A block's error reaches the caller when the fold gets to that block:
    the blocks not yet started are then cancelled, and the pool is joined
    before the error leaves the call.
    """
    n = g.n
    blocks = -(-n // _BLOCK)
    workers = max(1, min(_WORKERS, blocks))
    pair_type = np.dtype(np.int32 if n * _BLOCK < 2**31 else np.int64)
    check_memory(workers * (3 * 8 + pair_type.itemsize) * n * _BLOCK,
                 f"the Brandes buffers of {workers} workers on {n} nodes")
    free: queue.SimpleQueue[tuple[np.ndarray, np.ndarray]] = queue.SimpleQueue()
    for _ in range(workers):
        free.put((np.empty((3, n * _BLOCK)), np.empty(n * _BLOCK, dtype=pair_type)))

    def block(lo: int) -> tuple[np.ndarray, np.ndarray]:
        buffers = free.get()
        try:
            return _brandes_block(g, lo, *buffers)
        finally:
            free.put(buffers)

    def fold(results: Iterator[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
        sums = np.zeros(n, dtype=np.int64)
        between = np.zeros(n)
        for block_sums, block_between in results:
            np.add(sums, block_sums, out=sums)
            np.add(between, block_between, out=between)
        return sums, between

    if workers == 1:
        return fold(map(block, range(0, n, _BLOCK)))
    with ThreadPoolExecutor(workers) as pool:
        return fold(pool.map(block, range(0, n, _BLOCK)))


def _largest_component_diameter(g: Graph, members: np.ndarray) -> np.ndarray:
    """Exact diameter of each row of the (rows, n) bool ``members``, a
    connected component of ``g`` less some nodes; 0 for a single node.

    iFUB (Crescenzi et al., TCS 514, 2013) from a double-sweep start
    (Takes & Kosters, Algorithms 4, 2011), all rows at once: BFS from the
    highest-degree node r (ties: smallest id) finds a farthest node a, BFS
    from a a farthest node b, and span = d(a, b) is the first lower bound;
    the start u is the smallest id halfway between a and b. The fringe
    levels of u's BFS are then swept from the deepest, i, down while
    lb < 2i: any two nodes at depth <= i are at most 2i apart, and every
    pair with an end deeper than i has been seen.
    """
    rows = np.arange(len(members))
    degree = np.where(members, (g.matrix @ members.T).T, -1)
    _, from_r = _bfs(g, np.argmax(degree, axis=1), members, rows, levels=True)
    _, from_a = _bfs(g, np.argmax(from_r, axis=1), members, rows, levels=True)
    b = np.argmax(from_a, axis=1)
    span = from_a[rows, b].astype(np.int64)
    half = span // 2
    _, from_b = _bfs(g, b, members, rows, levels=True)
    halfway = (from_a == half[:, None]) & (from_b == (span - half)[:, None])
    _, from_u = _bfs(g, np.argmax(halfway, axis=1), members, rows, levels=True)
    depth = from_u.max(axis=1).astype(np.int64)
    lb = np.maximum(span, depth)
    while (open_ := lb < 2 * depth).any():
        row, fringe = np.nonzero((from_u == depth[:, None]) & open_[:, None])
        np.maximum.at(lb, row, _bfs(g, fringe, members, row)[0])
        depth -= open_
    return lb


def diameter(g: Graph) -> int:
    """Longest shortest path; on disconnected graphs, that of the largest
    component. Exact, by iFUB from a double-sweep start on the largest
    component's row (``_largest_component_diameter``)."""
    if g.n < 2:
        raise InputError("diameter needs at least 2 nodes")
    largest = connected_components(g).largest()
    if len(largest) < 2:
        raise DegenerateInputError("largest component is a single node; diameter undefined")
    return int(_largest_component_diameter(g, np.isin(np.arange(g.n), largest)[None])[0])


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
    return _brandes(g)[1] / 2.0


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


def summarize(g: Graph) -> GraphSummary:
    """Whole-graph statistics; degenerate metrics are reported as None.
    One forward sweep of every source gives the path lengths and the
    diameter."""
    parts = connected_components(g)
    sweep = _forward_sweep(g)
    # a sweep over every source sees each unordered pair from both ends
    reachable = int(sweep.reached.sum()) // 2
    total = g.n * (g.n - 1) // 2
    apl = frac = None
    if reachable:
        apl = int(sweep.dist_sums.sum()) // 2 / reachable
        frac = (total - reachable) / total
    clust = global_clustering(g) if g.n >= 1 else None
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


def node_stats(g: Graph) -> list[NodeStats]:
    """Per-node table: degree, clustering, closeness, betweenness,
    eigenvector centrality. Closeness and betweenness come from one
    Brandes sweep of every source."""
    sums, twice_between = _brandes(g)
    closeness = np.divide(1.0, sums, out=np.full(g.n, np.nan), where=sums > 0)
    betweenness = twice_between / 2.0
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
