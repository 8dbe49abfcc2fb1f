"""Error- and attack-tolerance sweeps.

One node is removed per step: uniformly at random (error tolerance, seeded)
or the currently highest-degree node with ties broken by smallest id
(attack tolerance, fully deterministic; each removal lowers its neighbors'
degrees by one). The removal order is drawn first, and rows are recorded
at a configurable granularity of the removal fraction. After
fragmentation, the diameter reported is that of the largest remaining
component, and 0 once that component is a single node. Every row is exact:
one union-find pass that puts the removed nodes back in reverse order gives
every row's components, and iFUB measures their largest, 64 rows of node
masks of the input at a time (``metrics._largest_component_diameter``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, check_memory
from .generators import rng_from_seed
from .graph import Graph
from .metrics import _BLOCK, _largest_component_diameter

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
    kind: str = field(default="single", init=False)


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


def _components_of(parents: list[np.ndarray], roots: list[int]) -> np.ndarray:
    """(rows, n) bool: row i holds the nodes that ``parents[i]``, a union-find
    forest, leads to root ``roots[i]``. An absent node is its own root."""
    root = np.stack(parents)
    while ((up := np.take_along_axis(root, root, axis=1)) != root).any():
        root = up
    return root == np.array(roots)[:, None]


def _rows_by_union(g: Graph, order: list[int], recorded: list[int]) -> list[TraceRow]:
    """Every row from one pass that puts the removed nodes back in reverse
    order, joined by union-find with a running component count and largest
    size (Newman & Ziff, PRL 85, 4104, 2000). The smaller root wins a union,
    so a root is its component's smallest id and the largest component with
    the smallest root is measured, as ``ComponentPartition.largest`` does:
    64 rows per call of ``metrics._largest_component_diameter``, each a
    mask of the input, with no subgraph built."""
    n0 = g.n
    indptr, indices = g.matrix.indptr.tolist(), g.matrix.indices.tolist()
    parent = list(range(n0))
    size = [1] * n0
    present = [False] * n0

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    wanted = set(recorded)
    count = lcc = best = 0
    stats, diameters, bests, parents = [], [], [], []
    # the one node never removed, then the removed ones in reverse order
    returns = [n0 * (n0 - 1) // 2 - sum(order), *reversed(order)]
    for k, v in zip(range(n0 - 1, -1, -1), returns):
        # after this step, the present nodes are those left after k removals
        present[v] = True
        count += 1
        for w in indices[indptr[v] : indptr[v + 1]]:
            if present[w]:
                rv, rw = find(v), find(w)
                if rv != rw:
                    root, child = min(rv, rw), max(rv, rw)
                    parent[child] = root
                    size[root] += size[child]
                    count -= 1
        # only v's component changed, and a merged one outgrows its parts
        root = find(v)
        if (size[root], -root) > (lcc, -best):
            lcc, best = size[root], root
        if k not in wanted:
            continue
        stats.append((k / n0, lcc, count))
        bests.append(best)
        parents.append(np.array(parent, dtype=np.int32))
        # measured as each 64 rows fill, so no more forests are kept at once;
        # k = 0 is the last row recorded
        if len(parents) == _BLOCK or k == 0:
            members = _components_of(parents, bests)
            bests, parents = [], []
            diameters += _largest_component_diameter(g, members).tolist()
    rows = [TraceRow(f, diam, lcc, count) for (f, lcc, count), diam in zip(stats, diameters)]
    return rows[::-1]


def run_resilience(
    g: Graph,
    strategy: RemovalStrategy,
    record_every: float = 0.02,
) -> ResilienceTrace:
    """Remove nodes one per step until at most one remains, recording
    (fraction removed, diameter, largest-component size, component count)
    at the requested granularity.

    The removal order is drawn first; the rows then come from putting the
    removed nodes back in reverse order (``_rows_by_union``).
    """
    recorded = _recorded(g.n, record_every)
    order = _removal_order(g, strategy)
    attack = isinstance(strategy, TargetedAttack)
    return ResilienceTrace(
        strategy="attack" if attack else "error",
        seed=None if attack else strategy.seed,
        initial_n=g.n,
        rows=_rows_by_union(g, order, recorded),
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
    kind: str = field(default="ensemble", init=False)
    strategy: str = field(default="error", init=False)


def run_removals(
    g: Graph, strategy: RemovalStrategy, seeds: int, record_every: float
) -> ResilienceTrace | EnsembleTrace:
    """The removal sweep a run asks for: one trace for an attack or for an
    error run with one seed, otherwise the error ensemble over the ``seeds``
    consecutive seeds from ``strategy.seed``, each row the median, min and
    max over those runs. The (seeds, rows, 3) int64 array of every run's
    rows is checked against physical memory before any run."""
    if seeds < 1:
        raise InputError(f"removal sweep needs at least one seed, got {seeds}")
    if isinstance(strategy, TargetedAttack) or seeds == 1:
        return run_resilience(g, strategy, record_every)
    recorded = _recorded(g.n, record_every)
    check_memory(24.0 * seeds * len(recorded), f"the rows of {seeds} error runs")
    first = strategy.seed
    # (run, row, quantity) for the quantities diameter, lcc_size, components
    runs = np.empty((seeds, len(recorded), 3), dtype=np.int64)
    for i in range(seeds):
        trace = run_resilience(g, RandomError(seed=first + i), record_every)
        runs[i] = [(row.diameter, row.lcc_size, row.components) for row in trace.rows]
    median, low, high = np.median(runs, axis=0), runs.min(axis=0), runs.max(axis=0)
    rows = []
    for i, k in enumerate(recorded):
        stats = []
        for q in range(3):
            stats += [float(median[i, q]), int(low[i, q]), int(high[i, q])]
        rows.append(EnsembleRow(k / g.n, *stats))
    return EnsembleTrace(seeds=list(range(first, first + seeds)), initial_n=g.n, rows=rows)
