import itertools

import numpy as np
import pytest

from netsync.errors import InputError
from netsync.generators import BAParams, generate_ba
from netsync.graph import Graph
from netsync.resilience import (
    RandomError,
    TargetedAttack,
    run_error_ensemble,
    run_resilience,
)


def complete(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def test_k5_attack_keeps_diameter_one():
    trace = run_resilience(complete(5), TargetedAttack(), record_every=0.2)
    for row in trace.rows:
        if row.lcc_size >= 2:
            assert row.diameter == 1


def test_star_attack_removes_center_first():
    trace = run_resilience(star(9), TargetedAttack(), record_every=0.1)
    first = trace.rows[1]
    assert first.lcc_size == 1
    assert first.components == 9
    assert first.diameter == 0


def test_attack_tie_break_smallest_id():
    # triangle {0,1,2} and star 3-{4,5}: degrees tie at 2 for 0,1,2,3.
    # Taking node 0 leaves edge 1-2 plus the star (2 components, diameter 2);
    # taking node 3 instead would leave the triangle intact (3 components,
    # diameter 1).
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5)])
    trace = run_resilience(g, TargetedAttack(), record_every=1.0 / 6.0)
    assert trace.rows[1].components == 2
    assert trace.rows[1].diameter == 2
    assert trace.rows[1].lcc_size == 3


def test_attack_determinism():
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7)])
    a = run_resilience(g, TargetedAttack(), record_every=0.125)
    b = run_resilience(g, TargetedAttack(), record_every=0.125)
    assert a.rows == b.rows


def test_error_seed_reproducible():
    g = complete(12)
    a = run_resilience(g, RandomError(seed=5), record_every=0.1)
    b = run_resilience(g, RandomError(seed=5), record_every=0.1)
    c = run_resilience(g, RandomError(seed=6), record_every=0.1)
    assert a.rows == b.rows
    assert a.strategy == "error" and a.seed == 5
    assert c.rows != a.rows or c.seed != a.seed


def test_fractions_strictly_increasing_and_bounded():
    g = complete(13)
    trace = run_resilience(g, RandomError(seed=1), record_every=0.3)
    fracs = [row.fraction_removed for row in trace.rows]
    assert fracs == sorted(set(fracs))
    assert fracs[0] == 0.0
    assert fracs[-1] == (g.n - 1) / g.n


def test_lcc_never_grows():
    g = star(20)
    trace = run_resilience(g, RandomError(seed=2), record_every=0.05)
    sizes = [row.lcc_size for row in trace.rows]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert all(row.components >= 1 for row in trace.rows)
    remaining = [g.n - round(row.fraction_removed * g.n) for row in trace.rows]
    assert all(row.lcc_size <= rem for row, rem in zip(trace.rows, remaining))


def test_rejects_small_graph():
    with pytest.raises(InputError):
        run_resilience(Graph(1), TargetedAttack())


def test_rejects_bad_granularity():
    with pytest.raises(InputError):
        run_resilience(complete(4), TargetedAttack(), record_every=0.0)


def test_trace_helpers():
    trace = run_resilience(star(9), TargetedAttack(), record_every=0.1)
    assert trace.fraction_when_lcc_below(5) == pytest.approx(0.1)
    assert trace.diameter_at(0.0) == 2  # star diameter: leaf-center-leaf


def test_ensemble_merge_deterministic():
    g = complete(15)
    a = run_error_ensemble(g, [3, 1, 2], record_every=0.2)
    b = run_error_ensemble(g, [1, 2, 3], record_every=0.2)
    assert a.seeds == [1, 2, 3]
    assert a.rows == b.rows
    single = run_resilience(g, RandomError(seed=1), record_every=0.2)
    assert [r.fraction_removed for r in a.rows] == [r.fraction_removed for r in single.rows]


def test_ensemble_envelope_orders():
    g = star(24)
    ens = run_error_ensemble(g, list(range(5)), record_every=0.2)
    for row in ens.rows:
        assert row.lcc_min <= row.lcc_median <= row.lcc_max
        assert row.diameter_min <= row.diameter_median <= row.diameter_max
        assert row.components_min <= row.components_median <= row.components_max


def test_ensemble_needs_seeds():
    with pytest.raises(InputError):
        run_error_ensemble(complete(4), [])


# -- differential tests against networkx ------------------------------------------


def networkx_trace(g, strategy, record_every=0.02):
    """The rows of ``run_resilience`` recomputed with networkx: the same
    removal order (attack: highest current degree, ties to the smallest id;
    error: PCG64(seed) index into the ascending survivors), then components,
    largest-component size and its diameter on the survivors. Of equal-size
    largest components, the one holding the smallest id is measured."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    rng = None
    if isinstance(strategy, RandomError):
        rng = np.random.Generator(np.random.PCG64(strategy.seed))
    stride = max(1, round(record_every * g.n))

    def row(fraction):
        comps = list(nx.connected_components(h))
        lcc = max(comps, key=lambda c: (len(c), -min(c)))
        diam = nx.diameter(h.subgraph(lcc), usebounds=True) if len(lcc) >= 2 else 0
        return (fraction, diam, len(lcc), len(comps))

    rows = [row(0.0)]
    for removed in range(1, g.n):
        survivors = sorted(h.nodes)
        if rng is None:
            target = max(survivors, key=lambda v: (h.degree(v), -v))
        else:
            target = survivors[int(rng.integers(0, len(survivors)))]
        h.remove_nodes_from([target])
        if removed % stride == 0 or removed == g.n - 1:
            rows.append(row(removed / g.n))
    return rows


def netsync_rows(trace):
    return [
        (r.fraction_removed, r.diameter, r.lcc_size, r.components)
        for r in trace.rows
    ]


@pytest.mark.parametrize("strategy", [TargetedAttack(), RandomError(seed=5)])
def test_matches_networkx_on_ba_300(strategy):
    g = generate_ba(BAParams(n=300, m=3, seed=11))
    assert netsync_rows(run_resilience(g, strategy)) == networkx_trace(g, strategy)


def cycle_beside_ba(k):
    """A k-cycle (diameter k/2) on ids 0..k-1 and a k-node BA graph on
    k..2k-1: the two largest components tie, and the cycle is measured."""
    ba = generate_ba(BAParams(n=k, m=2, seed=3))
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(u + k, v + k) for u, v in ba.edges()]
    return Graph(2 * k, edges)


@pytest.mark.parametrize("strategy", [TargetedAttack(), RandomError(seed=2)])
def test_matches_networkx_with_tied_largest_components(strategy):
    g = cycle_beside_ba(40)
    trace = run_resilience(g, strategy, record_every=0.05)
    assert trace.rows[0].diameter == 20 and trace.rows[0].components == 2
    assert netsync_rows(trace) == networkx_trace(g, strategy, record_every=0.05)


@pytest.mark.parametrize("strategy", [TargetedAttack(), RandomError(seed=2)])
def test_matches_networkx_with_tied_components_above_one_block(strategy):
    # 100-node components take the iFUB path, not one sweep block
    g = cycle_beside_ba(100)
    trace = run_resilience(g, strategy, record_every=0.05)
    assert trace.rows[0].diameter == 50 and trace.rows[0].components == 2
    assert netsync_rows(trace) == networkx_trace(g, strategy, record_every=0.05)
