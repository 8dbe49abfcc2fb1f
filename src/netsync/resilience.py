"""Error- and attack-tolerance sweeps.

One node is removed per step: uniformly at random (error tolerance, seeded)
or the currently highest-degree node with ties broken by smallest id
(attack tolerance, fully deterministic; each removal lowers its neighbors'
degrees by one). The removal order is drawn first, and rows are recorded
at a configurable granularity of the removal fraction. After
fragmentation, the diameter reported is that of the largest remaining
component, and 0 once that component is a single node. Every row is exact
and computed in one of two ways, chosen by the input's size n0:

- n0 <= 64: every row comes from one n0 x n0 distance matrix, filled by
  putting the removed nodes back in reverse order, with no subgraph,
  components pass or sweep per row.
- n0 > 64: one union-find pass over the same order gives every row's
  components, and iFUB measures their largest, 64 rows of node masks of
  the input at a time (``metrics._largest_component_diameter``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, check_memory
from .generators import rng_from_seed
from .graph import Graph
from .metrics import _BLOCK, _largest_component_diameter

# Largest input whose rows all come from one distance matrix (cost ~ n0^3).
# On BA(n0, 3), attack and error at record_every 0.02, that costs less than
# the union-find rows up to n0=120 (4.9-5.9 against 6.8-7.3 ms per run) and
# more from n0=200 (12.6-13.0 against 9.5-9.8 ms); no workload lies between
# 64 and 200 nodes to measure a higher bound.
_INSERTION_MAX_N = 64


@dataclass(frozen=True)
class RandomError:
    seed: int = 0


@dataclass(frozen=True)
class TargetedAttack:
    pass


RemovalStrategy = RandomError | TargetedAttack


@dataclass(frozen=True)
class TraceRow:
    fraction_removed: float
    diameter: int
    lcc_size: int
    components: int


@dataclass
class ResilienceTrace:
    strategy: str
    seed: int | None
    initial_n: int
    rows: list[TraceRow]

    def fraction_when_lcc_below(self, threshold: int) -> float | None:
        """First recorded removal fraction with largest component < threshold."""
        for row in self.rows:
            if row.lcc_size < threshold:
                return row.fraction_removed
        return None

    def diameter_at(self, fraction: float) -> int:
        """Diameter at the last recorded row with fraction <= the requested one."""
        best = self.rows[0]
        for row in self.rows:
            if row.fraction_removed <= fraction:
                best = row
        return best.diameter


def _removal_order(g: Graph, strategy: RemovalStrategy) -> list[int]:
    """The ids of the n - 1 removed nodes, in removal order."""
    if isinstance(strategy, TargetedAttack):
        # current degrees of the survivors; removed nodes are negative, so
        # argmax (first maximum) is the highest-degree survivor with smallest id
        degree = np.array(g.degrees(), dtype=np.int64)
        order = []
        for _ in range(g.n - 1):
            target = int(np.argmax(degree))
            order.append(target)
            degree[g.neighbors(target)] -= 1
            degree[target] = -1
        return order
    # same draw as indexing the survivors' graph, whose ids follow the
    # ascending order of ``alive``
    rng = rng_from_seed(strategy.seed)
    alive = list(range(g.n))
    return [alive.pop(int(rng.integers(0, len(alive)))) for _ in range(g.n - 1)]


def _recorded(n0: int, record_every: float) -> list[int]:
    """Removal counts at which a row is recorded: every stride-th and the
    last, where only one node is left."""
    if n0 < 2:
        raise InputError("resilience sweep needs a graph with at least 2 nodes")
    if not (0.0 < record_every <= 1.0):
        raise InputError(f"record_every must be in (0, 1], got {record_every}")
    stride = max(1, round(record_every * n0))
    return [k for k in range(n0) if k % stride == 0 or k == n0 - 1]


def _rows_by_union(g: Graph, order: list[int], recorded: list[int]) -> list[TraceRow]:
    """Every row from one pass that puts the removed nodes back in reverse
    order, joined by union-find (Newman & Ziff, PRL 85, 4104, 2000). The
    smaller root wins a union, so a root is its component's smallest id and
    the largest component with the smallest root is measured, as
    ``ComponentPartition.largest`` does: 64 rows per call of
    ``metrics._largest_component_diameter``, with no subgraph built."""
    n0 = g.n
    indptr, indices = g.matrix.indptr.tolist(), g.matrix.indices.tolist()
    parent = list(range(n0))
    present = [False] * n0

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    wanted = set(recorded)
    sizes, counts, members = [], [], []
    # the one node never removed, then the removed ones in reverse order
    returns = [n0 * (n0 - 1) // 2 - sum(order), *reversed(order)]
    for k, v in zip(range(n0 - 1, -1, -1), returns):
        # after this step, the present nodes are those left after k removals
        present[v] = True
        for w in indices[indptr[v] : indptr[v + 1]]:
            if present[w]:
                rv, rw = find(v), find(w)
                parent[max(rv, rw)] = min(rv, rw)
        if k in wanted:
            alive = np.array(present)
            root = np.array(parent)
            while (root[root] != root).any():
                root = root[root]
            size = np.bincount(root[alive], minlength=n0)
            sizes.append(int(size.max()))
            counts.append(int(np.count_nonzero(size)))
            members.append(alive & (root == np.argmax(size)))
    diameters = []
    for lo in range(0, len(members), _BLOCK):
        diameters += _largest_component_diameter(g, np.stack(members[lo : lo + _BLOCK])).tolist()
    rows = zip(reversed(recorded), diameters, sizes, counts)
    return [TraceRow(k / n0, diam, size, count) for k, diam, size, count in rows][::-1]


_UNREACHED = 1 << 20  # distance sentinel; sums of two stay within int32


def _rows_by_insertion(g: Graph, order: list[int], recorded: list[int]) -> list[TraceRow]:
    """Every row from one n0 x n0 distance matrix, filled by putting the
    removed nodes back in reverse order (Newman & Ziff, PRL 85, 4104, 2000).

    An added node v is d_v = 1 + the minimum of its neighbours' rows away
    from every node, and any new shortest path runs through v, so
    D = min(D, d_v[:, None] + d_v[None, :]). Entries at or above _UNREACHED
    mean no path; the rows and columns of absent nodes hold nothing else,
    so an absent neighbour changes no minimum.
    """
    n0 = g.n
    indptr, indices = g.matrix.indptr, g.matrix.indices
    dist = np.full((n0, n0), _UNREACHED, dtype=np.int32)
    left = np.ones(n0, dtype=bool)
    left[order] = False
    last = int(np.flatnonzero(left)[0])
    dist[last, last] = 0
    wanted = set(recorded)
    rows = []
    for k in range(n0 - 1, 0, -1):
        # dist now holds the graph left after k removals
        if k in wanted:
            rows.append(_row_from_distances(k / n0, dist))
        v = order[k - 1]
        nbrs = indices[indptr[v] : indptr[v + 1]]
        d_v = dist[nbrs].min(axis=0, initial=_UNREACHED) + 1
        d_v[v] = 0
        np.minimum(dist, d_v[:, None] + d_v, out=dist)
    rows.append(_row_from_distances(0.0, dist))
    rows.reverse()
    return rows


def _row_from_distances(fraction: float, dist: np.ndarray) -> TraceRow:
    """A row from the survivors' distances. A node is a component's root
    when it is the smallest id it reaches; of the largest components, the
    one with the smallest root is measured, as ``ComponentPartition.largest``
    does."""
    reach = dist < _UNREACHED
    size = reach.sum(axis=1)  # 0 for absent nodes
    root = (size > 0) & (reach.argmax(axis=1) == np.arange(len(dist)))
    lcc = int(size.max())
    members = reach[int(np.argmax(root & (size == lcc)))]
    return TraceRow(
        fraction_removed=fraction,
        diameter=int(dist[members][:, members].max()),
        lcc_size=lcc,
        components=int(root.sum()),
    )


def run_resilience(
    g: Graph,
    strategy: RemovalStrategy,
    record_every: float = 0.02,
) -> ResilienceTrace:
    """Remove nodes one per step until at most one remains, recording
    (fraction removed, diameter, largest-component size, component count)
    at the requested granularity.

    The removal order is drawn first. A graph of at most _INSERTION_MAX_N
    (64) nodes then builds every row from one distance matrix by putting
    the removed nodes back in reverse order (``_rows_by_insertion``); a
    larger one puts them back by union-find and measures the recorded
    rows' largest components together (``_rows_by_union``).
    """
    recorded = _recorded(g.n, record_every)
    order = _removal_order(g, strategy)
    build = _rows_by_insertion if g.n <= _INSERTION_MAX_N else _rows_by_union
    attack = isinstance(strategy, TargetedAttack)
    return ResilienceTrace(
        strategy="attack" if attack else "error",
        seed=None if attack else strategy.seed,
        initial_n=g.n,
        rows=build(g, order, recorded),
    )


@dataclass(frozen=True)
class EnsembleRow:
    """Median, min and max over the runs of one recorded row."""

    fraction_removed: float
    diameter_median: float
    diameter_min: int
    diameter_max: int
    lcc_median: float
    lcc_min: int
    lcc_max: int
    components_median: float
    components_min: int
    components_max: int


@dataclass
class EnsembleTrace:
    """Per-row median/min/max over random-error runs, merged in seed order."""

    seeds: list[int]
    initial_n: int
    rows: list[EnsembleRow]


def run_error_ensemble(
    g: Graph,
    seeds: Sequence[int],
    record_every: float = 0.02,
) -> EnsembleTrace:
    """Random-error runs for ``seeds`` (any sequence, such as a range),
    their rows merged in seed order. The (seeds, rows, 3) int64 array of
    every run's rows is checked against physical memory before any run."""
    if not seeds:
        raise InputError("ensemble needs at least one seed")
    recorded = _recorded(g.n, record_every)
    check_memory(24.0 * len(seeds) * len(recorded), f"the rows of {len(seeds)} error runs")
    seeds = sorted(seeds)
    # (run, row, quantity) for the quantities diameter, lcc_size, components
    runs = np.empty((len(seeds), len(recorded), 3), dtype=np.int64)
    for i, seed in enumerate(seeds):
        trace = run_resilience(g, RandomError(seed=seed), record_every)
        runs[i] = [(row.diameter, row.lcc_size, row.components) for row in trace.rows]
    median, low, high = np.median(runs, axis=0), runs.min(axis=0), runs.max(axis=0)
    rows = []
    for i, k in enumerate(recorded):
        stats = []
        for q in range(3):
            stats += [float(median[i, q]), int(low[i, q]), int(high[i, q])]
        rows.append(EnsembleRow(k / g.n, *stats))
    return EnsembleTrace(seeds=seeds, initial_n=g.n, rows=rows)


def run_removals(
    g: Graph, strategy: RemovalStrategy, seeds: int, record_every: float
) -> ResilienceTrace | EnsembleTrace:
    """The removal sweep a run asks for: one trace for an attack or for an
    error run with one seed, otherwise the error ensemble over the ``seeds``
    consecutive seeds from ``strategy.seed``."""
    if isinstance(strategy, TargetedAttack) or seeds == 1:
        return run_resilience(g, strategy, record_every)
    return run_error_ensemble(g, range(strategy.seed, strategy.seed + seeds), record_every)
