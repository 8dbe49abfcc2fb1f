"""Error- and attack-tolerance sweeps.

One node is removed per step: uniformly at random (error tolerance, seeded)
or the currently highest-degree node with ties broken by smallest id
(attack tolerance, fully deterministic; each removal lowers its neighbors'
degrees by one). The sweep keeps the input graph and the ascending list of
surviving ids, and builds the survivors' graph only for a recorded row,
whose granularity is a configurable removal fraction. After fragmentation,
the diameter reported is that of the largest remaining component, and 0
once that component is a single node. Each row's diameter is exact: a
component of at most 64 nodes (one sweep block) has every source swept,
a larger one runs iFUB from a double-sweep start, a few BFS per row
(``metrics._largest_component_diameter``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .generators import rng_from_seed
from .graph import Graph, connected_components, induced_subgraph
from .metrics import _largest_component_diameter


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


def _snapshot(fraction: float, g: Graph) -> TraceRow:
    parts = connected_components(g)
    diam = _largest_component_diameter(g, parts)
    return TraceRow(
        fraction_removed=fraction,
        diameter=0 if diam is None else diam,
        lcc_size=max(parts.sizes),
        components=parts.count,
    )


def run_resilience(
    g: Graph,
    strategy: RemovalStrategy,
    record_every: float = 0.02,
) -> ResilienceTrace:
    """Remove nodes one per step until at most one remains, recording
    (fraction removed, diameter, largest-component size, component count)
    at the requested granularity."""
    if g.n < 2:
        raise InputError("resilience sweep needs a graph with at least 2 nodes")
    if not (0.0 < record_every <= 1.0):
        raise InputError(f"record_every must be in (0, 1], got {record_every}")

    attack = isinstance(strategy, TargetedAttack)
    rng = None if attack else rng_from_seed(strategy.seed)
    # current degrees of the survivors; removed nodes are negative, so
    # argmax (first maximum) is the highest-degree survivor with smallest id
    degree = np.array(g.degrees(), dtype=np.int64)
    alive = list(range(g.n))
    n0 = g.n
    stride = max(1, round(record_every * n0))
    rows = [_snapshot(0.0, g)]
    for removed in range(1, n0):
        if attack:
            target = int(np.argmax(degree))
            alive.remove(target)
            degree[g.neighbors(target)] -= 1
            degree[target] = -1
        else:
            # same draw as indexing the survivors' graph, whose ids follow
            # the ascending order of ``alive``
            alive.pop(int(rng.integers(0, len(alive))))
        if removed % stride == 0 or removed == n0 - 1:
            rows.append(_snapshot(removed / n0, induced_subgraph(g, alive)))
    return ResilienceTrace(
        strategy="attack" if attack else "error",
        seed=None if attack else strategy.seed,
        initial_n=n0,
        rows=rows,
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
    seeds: list[int],
    record_every: float = 0.02,
) -> EnsembleTrace:
    if not seeds:
        raise InputError("ensemble needs at least one seed")
    traces = [run_resilience(g, RandomError(seed=s), record_every) for s in sorted(seeds)]
    # (run, row, quantity) for the quantities diameter, lcc_size, components
    runs = np.array(
        [[(row.diameter, row.lcc_size, row.components) for row in t.rows] for t in traces]
    )
    median, low, high = np.median(runs, axis=0), runs.min(axis=0), runs.max(axis=0)
    rows = []
    for i, row in enumerate(traces[0].rows):
        stats = []
        for q in range(3):
            stats += [float(median[i, q]), int(low[i, q]), int(high[i, q])]
        rows.append(EnsembleRow(row.fraction_removed, *stats))
    return EnsembleTrace(seeds=sorted(seeds), initial_n=g.n, rows=rows)
