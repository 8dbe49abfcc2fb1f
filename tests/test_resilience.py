import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsync import graph, metrics
from netsync.errors import InputError
from netsync.generators import BAParams, ERParams, generate_ba, generate_er
from netsync.graph import Graph
from netsync.resilience import RandomError, TargetedAttack, run_removals, run_resilience

from oracles import diameter_at, fraction_when_lcc_below


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
    assert fraction_when_lcc_below(trace.rows, 5) == pytest.approx(0.1)
    assert diameter_at(trace.rows, 0.0) == 2  # star diameter: leaf-center-leaf


def merged_by_hand(g, first, seeds, record_every):
    """Per row, np.median, min and max of each quantity over the
    ``run_resilience`` traces at seeds first, ..., first + seeds - 1."""
    traces = [run_resilience(g, RandomError(seed=s), record_every).rows
              for s in range(first, first + seeds)]
    rows = []
    for at_row in zip(*traces):
        row = {"fraction_removed": at_row[0].fraction_removed}
        for name, field in (("diameter", "diameter"), ("lcc", "lcc_size"),
                            ("components", "components")):
            values = [getattr(r, field) for r in at_row]
            row[f"{name}_median"] = float(np.median(values))
            row[f"{name}_min"] = min(values)
            row[f"{name}_max"] = max(values)
        rows.append(row)
    return rows


@pytest.mark.parametrize("first, seeds, record_every", [(0, 5, 0.2), (3, 2, 0.1), (7, 4, 0.05)])
def test_ensemble_rows_equal_the_merged_traces(first, seeds, record_every):
    g = generate_ba(BAParams(n=40, m=2, seed=3))
    ens = run_removals(g, RandomError(first), seeds, record_every)
    assert ens.seeds == list(range(first, first + seeds))
    assert [dataclasses.asdict(row) for row in ens.rows] == merged_by_hand(
        g, first, seeds, record_every
    )


def test_ensemble_merge_deterministic():
    g = complete(15)
    a = run_removals(g, RandomError(1), 3, record_every=0.2)
    assert a == run_removals(g, RandomError(1), 3, record_every=0.2)
    assert a.seeds == [1, 2, 3]
    single = run_resilience(g, RandomError(seed=1), record_every=0.2)
    assert [r.fraction_removed for r in a.rows] == [r.fraction_removed for r in single.rows]


def test_the_sweep_entry_point_is_exported_from_the_package():
    import netsync

    assert netsync.run_removals is run_removals


def test_ensemble_envelope_orders():
    g = star(24)
    ens = run_removals(g, RandomError(0), 5, record_every=0.2)
    for row in ens.rows:
        assert row.lcc_min <= row.lcc_median <= row.lcc_max
        assert row.diameter_min <= row.diameter_median <= row.diameter_max
        assert row.components_min <= row.components_median <= row.components_max


def test_ensemble_needs_seeds():
    for strategy in (RandomError(0), TargetedAttack()):
        with pytest.raises(InputError, match="at least one seed, got 0"):
            run_removals(complete(4), strategy, 0, 0.2)


def test_ensemble_takes_a_range_of_seeds():
    # the seeds are the consecutive ones from the strategy's seed
    g = star(12)
    ens = run_removals(g, RandomError(4), 3, 0.25)
    assert ens.seeds == [4, 5, 6]
    assert ens != run_removals(g, RandomError(5), 3, 0.25)


def test_ensemble_rows_must_fit_in_memory():
    # 10**12 runs of 5 rows: 1.2e14 bytes of rows, refused before any run
    with pytest.raises(InputError, match=rf"of {10**12} error runs need 1\.2e\+14 bytes"):
        run_removals(complete(5), RandomError(0), 10**12, record_every=0.2)


def test_removals_run_one_trace_or_an_ensemble():
    g = generate_ba(BAParams(n=40, m=2, seed=3))
    for seeds in (1, 4):
        assert run_removals(g, TargetedAttack(), seeds, 0.1) == run_resilience(
            g, TargetedAttack(), 0.1
        )
    assert run_removals(g, RandomError(5), 1, 0.1) == run_resilience(g, RandomError(5), 0.1)
    for k in (2, 3):
        assert run_removals(g, RandomError(5), k, 0.1).kind == "ensemble"


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
    # 20 + 20 and 32 + 32 nodes are within one sweep block, 40 + 40 past it
    for k in (20, 32, 40):
        g = cycle_beside_ba(k)
        trace = run_resilience(g, strategy, record_every=0.05)
        assert trace.rows[0].diameter == k // 2 and trace.rows[0].components == 2
        assert netsync_rows(trace) == networkx_trace(g, strategy, record_every=0.05), k


def cycle_around_ba(k):
    """``cycle_beside_ba``'s two components, the cycle on ids 0 and
    k+1..2k-1 and the BA graph on 1..k: the cycle holds the smallest id and
    the BA graph the smaller largest id. The cycle is measured."""
    ba = generate_ba(BAParams(n=k, m=2, seed=3))
    ring = [0, *range(k + 1, 2 * k)]
    edges = [(ring[i], ring[(i + 1) % k]) for i in range(k)]
    edges += [(u + 1, v + 1) for u, v in ba.edges()]
    return Graph(2 * k, edges)


@pytest.mark.parametrize("strategy", [TargetedAttack(), RandomError(seed=2)])
def test_matches_networkx_when_tied_components_interleave(strategy):
    for k in (32, 100):
        g = cycle_around_ba(k)
        trace = run_resilience(g, strategy, record_every=0.05)
        assert trace.rows[0].diameter == k // 2 and trace.rows[0].components == 2
        assert netsync_rows(trace) == networkx_trace(g, strategy, record_every=0.05), k


@pytest.mark.parametrize("strategy", [TargetedAttack(), RandomError(seed=2)])
def test_matches_networkx_with_tied_components_above_one_block(strategy):
    # 100-node components take the iFUB path, not one sweep block
    g = cycle_beside_ba(100)
    trace = run_resilience(g, strategy, record_every=0.05)
    assert trace.rows[0].diameter == 50 and trace.rows[0].components == 2
    assert netsync_rows(trace) == networkx_trace(g, strategy, record_every=0.05)


# -- union-find rows either side of one sweep block (64 nodes) -------------------


STRATEGIES = [TargetedAttack(), RandomError(seed=4)]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("n", [2, 3, 49, 63, 64, 65, 127, 129])
def test_matches_networkx_either_side_of_one_block(n, strategy):
    # sizes either side of 64, the width of one sweep block
    g = generate_er(ERParams(n=n, m=min(n * (n - 1) // 2, 2 * n), seed=n))
    assert netsync_rows(run_resilience(g, strategy)) == networkx_trace(g, strategy)


def ba_beside_isolated_nodes(size, shift):
    """A ``size``-node BA graph beside ten isolated nodes, on the last ten
    ids (``shift=0``) or on 0..9 (``shift=10``)."""
    ba = generate_ba(BAParams(n=size, m=2, seed=6))
    return Graph(size + 10, [(u + shift, v + shift) for u, v in ba.edges()])


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("shift", [0, 10], ids=["isolated-last", "isolated-first"])
def test_matches_networkx_with_isolated_nodes(shift, strategy):
    # 40 nodes, within one sweep block
    g = ba_beside_isolated_nodes(30, shift)
    assert netsync_rows(run_resilience(g, strategy, 0.05)) == networkx_trace(g, strategy, 0.05)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("shift", [0, 10], ids=["isolated-last", "isolated-first"])
def test_matches_networkx_with_isolated_nodes_above_one_block(shift, strategy):
    # 100 nodes, past one sweep block
    g = ba_beside_isolated_nodes(90, shift)
    assert netsync_rows(run_resilience(g, strategy, 0.05)) == networkx_trace(g, strategy, 0.05)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_matches_networkx_with_isolated_nodes_in_the_middle(strategy):
    # a 100-node path whose ids 30..39 and 99 are isolated nodes instead
    edges = [(i, i + 1) for i in range(98) if not (29 <= i <= 39)] + [(29, 40)]
    g = Graph(100, edges)
    assert netsync_rows(run_resilience(g, strategy, 0.05)) == networkx_trace(g, strategy, 0.05)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_matches_networkx_without_edges(strategy):
    g = Graph(70)
    assert netsync_rows(run_resilience(g, strategy, 0.1)) == networkx_trace(g, strategy, 0.1)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_matches_networkx_over_several_batches_of_rows(strategy):
    # 150 recorded rows: the diameters take three batches of at most 64
    g = generate_ba(BAParams(n=150, m=2, seed=9))
    trace = run_resilience(g, strategy, record_every=0.005)
    assert len(trace.rows) == 150
    assert netsync_rows(trace) == networkx_trace(g, strategy, record_every=0.005)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("record_every", [0.02, 0.3, 1.0])
def test_matches_networkx_at_each_granularity(record_every, strategy):
    g = generate_er(ERParams(n=49, m=120, seed=3))
    trace = run_resilience(g, strategy, record_every)
    assert netsync_rows(trace) == networkx_trace(g, strategy, record_every)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_matches_networkx_on_random_small_graphs(data):
    n = data.draw(st.integers(2, 64))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = {(min(p), max(p)) for p in data.draw(st.lists(pairs, max_size=3 * n)) if p[0] != p[1]}
    g = Graph(n, sorted(edges))
    seed = data.draw(st.integers(0, 99))
    strategy = data.draw(st.sampled_from([TargetedAttack(), RandomError(seed=seed)]))
    record_every = data.draw(st.sampled_from([0.02, 0.1, 0.5, 1.0]))
    trace = run_resilience(g, strategy, record_every)
    assert netsync_rows(trace) == networkx_trace(g, strategy, record_every)


class Refused(Exception):
    pass


def test_one_block_builds_no_subgraph_and_runs_no_sweep(monkeypatch):
    def refuse(*args, **kwargs):
        raise Refused

    # on either side of one block, rows come from one union-find pass and the
    # bit-parallel iFUB over masks of the input graph
    for module, name in [(graph, "connected_components"),
                         (metrics, "connected_components"),
                         (metrics, "_brandes")]:
        monkeypatch.setattr(module, name, refuse)
    for n in (2, 49, 64, 65, 1000):
        g = generate_er(ERParams(n=n, m=min(n * (n - 1) // 2, n), seed=1))
        for strategy in STRATEGIES:
            run_resilience(g, strategy)
