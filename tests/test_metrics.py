import itertools
import math
import os
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netsync.errors import DegenerateInputError, InputError, NumericalError
from netsync.graph import Graph
from netsync.generators import BAParams, ERParams, generate_ba, generate_er
from netsync import metrics
from netsync.metrics import (
    betweenness_centrality,
    degree_distribution,
    diameter,
    eigenvector_centrality,
    global_clustering,
    local_clustering,
    node_stats,
    summarize,
)

from oracles import (
    brute_force_betweenness,
    brute_force_distance,
    closeness_centrality,
    coupling_matrix,
    dense_brandes,
    shortest_path_lengths,
)
from oracles import local_clustering as clustering_by_counting

INF = math.inf
WORKER_COUNTS = (1, 2)  # Brandes blocks on the calling thread alone, and on a pool too


def complete(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_graph(rng, max_n=7):
    n = int(rng.integers(2, max_n + 1))
    pairs = list(itertools.combinations(range(n), 2))
    mask = rng.random(len(pairs)) < rng.uniform(0.2, 0.9)
    return Graph(n, [p for p, keep in zip(pairs, mask) if keep])


class TestShortestPaths:
    def test_path_from_endpoint(self):
        assert shortest_path_lengths(path(3), 0) == [0, 1, 2]

    def test_complete_graph(self):
        assert shortest_path_lengths(complete(4), 0) == [0, 1, 1, 1]

    def test_unreachable_is_inf(self):
        g = Graph(4, [(0, 1), (2, 3)])
        d = shortest_path_lengths(g, 0)
        assert d[1] == 1 and d[2] == INF and d[3] == INF

    def test_out_of_range(self):
        with pytest.raises(InputError):
            shortest_path_lengths(path(3), 5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = random_graph(rng)
            for s in range(g.n):
                expected = [brute_force_distance(g, s, t) for t in range(g.n)]
                assert shortest_path_lengths(g, s) == expected


class TestAveragePathLength:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_complete_graphs(self, n):
        assert summarize(complete(n)).average_path_length == 1.0

    def test_p3(self):
        s = summarize(path(3))
        assert s.average_path_length == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert s.unreachable_pair_fraction == 0.0

    def test_unreachable_fraction(self):
        s = summarize(Graph(4, [(0, 1), (2, 3)]))
        assert s.average_path_length == 1.0
        assert s.unreachable_pair_fraction == pytest.approx(4.0 / 6.0)

    def test_all_isolated(self):
        s = summarize(Graph(3))
        assert s.average_path_length is None and s.unreachable_pair_fraction is None

    def test_single_node(self):
        s = summarize(Graph(1))
        assert s.average_path_length is None and s.unreachable_pair_fraction is None


class TestDiameter:
    def test_complete(self):
        assert diameter(complete(5)) == 1

    def test_path4(self):
        assert diameter(path(4)) == 3

    def test_cycle6(self):
        assert diameter(cycle(6)) == 3

    def test_disconnected_uses_largest_component(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
        assert diameter(g) == 3

    def test_singleton_largest_component(self):
        with pytest.raises(DegenerateInputError):
            diameter(Graph(3))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_above_one_block(self, data):
        # connected graphs of more than 64 nodes, so iFUB runs: a random
        # tree whose parent lies within ``reach`` ids (1: a path, n: a
        # random recursive tree), extra edges, then shuffled ids
        n = data.draw(st.integers(65, 150))
        reach = data.draw(st.integers(1, n))
        edges = [(i, data.draw(st.integers(max(0, i - reach), i - 1))) for i in range(1, n)]
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges += [p for p in data.draw(st.lists(pairs, max_size=n // 4)) if p[0] != p[1]]
        perm = data.draw(st.permutations(range(n)))
        unique = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges}
        g = Graph(n, sorted(unique))
        expected = max(max(shortest_path_lengths(g, s)) for s in range(g.n))
        assert diameter(g) == expected

    def test_path_takes_a_few_bfs(self, monkeypatch):
        # the double-sweep start is the middle of the path, whose one
        # deepest node settles the bound; a start at an end would need the
        # fringe of half the levels
        tasks = []
        kernel = metrics._bit_levels
        monkeypatch.setattr(
            metrics, "_bit_levels",
            lambda g, src, mask=None: tasks.extend(src) or kernel(g, src, mask),
        )
        assert diameter(path(1000)) == 999
        assert len(tasks) <= 5


class TestClustering:
    def test_triangle_is_clique(self):
        assert local_clustering(complete(3))[0] == 1.0

    def test_star_center(self):
        assert local_clustering(star(4))[0] == 0.0

    def test_degree_one_convention(self):
        assert local_clustering(path(3))[0] == 0.0

    def test_global_complete(self):
        assert global_clustering(complete(4)) == 1.0

    def test_global_star(self):
        assert global_clustering(star(4)) == 0.0

    def test_mixed(self):
        # triangle plus a pendant: pendant 0, its anchor 1/3
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert local_clustering(g)[2] == pytest.approx(1.0 / 3.0)
        assert local_clustering(g)[3] == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_equals_counting_oracle_bitwise(self, seed):
        g = random_graph(np.random.default_rng(seed), max_n=12)
        expected = [clustering_by_counting(g, i) for i in range(g.n)]
        assert local_clustering(g).tolist() == expected
        assert global_clustering(g) == sum(expected) / g.n


class TestDegreeDistribution:
    def test_complete(self):
        assert degree_distribution(complete(4)) == {3: 1.0}

    def test_star(self):
        assert degree_distribution(star(4)) == {4: 0.2, 1: 0.8}

    def test_p3(self):
        dist = degree_distribution(path(3))
        assert dist[1] == pytest.approx(2.0 / 3.0)
        assert dist[2] == pytest.approx(1.0 / 3.0)

    @given(st.integers(2, 30), st.integers(0, 60))
    @settings(max_examples=30)
    def test_sums_to_one(self, n, seed):
        from netsync.generators import ERParams, generate_er

        m = min(seed, n * (n - 1) // 2)
        g = generate_er(ERParams(n=n, m=m, seed=seed))
        assert abs(sum(degree_distribution(g).values()) - 1.0) < 1e-12


class TestCloseness:
    def test_p3_middle(self):
        assert closeness_centrality(path(3), 1) == 0.5

    def test_complete5(self):
        assert closeness_centrality(complete(5), 0) == 0.25

    def test_star_center(self):
        assert closeness_centrality(star(9), 0) == pytest.approx(1.0 / 9.0)

    def test_isolated_node(self):
        with pytest.raises(DegenerateInputError):
            closeness_centrality(Graph(2, [], labels=None), 0)

    def test_within_component_on_disconnected(self):
        g = Graph(5, [(0, 1), (2, 3), (3, 4)])
        assert closeness_centrality(g, 3) == 0.5

    def test_vector_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            g = random_graph(rng, max_n=8)
            for s, row in enumerate(node_stats(g)):
                dist = [brute_force_distance(g, s, t) for t in range(g.n)]
                total = sum(d for d in dist if d != INF)
                assert row.closeness == (1.0 / total if total else None)


class TestBetweenness:
    def test_p3(self):
        assert list(betweenness_centrality(path(3))) == [0.0, 1.0, 0.0]

    def test_star_center(self):
        assert betweenness_centrality(star(4))[0] == 6.0

    def test_cycle4(self):
        # oracle: each opposite pair has two geodesics, each interior node
        # carries half of one pair
        assert np.allclose(betweenness_centrality(cycle(4)), 0.5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            g = random_graph(rng)
            expected = brute_force_betweenness(g)
            got = betweenness_centrality(g)
            assert np.allclose(got, expected, atol=1e-9)


class TestEigenvector:
    def test_complete_symmetry(self):
        assert np.allclose(eigenvector_centrality(complete(3)), 1.0)

    def test_star_analytic(self):
        # leaf/center ratio for a star with q leaves is 1/sqrt(q)
        v = eigenvector_centrality(star(4))
        assert v[0] == pytest.approx(1.0)
        assert np.allclose(v[1:], 0.5, atol=1e-9)

    def test_no_edges(self):
        with pytest.raises(DegenerateInputError):
            eigenvector_centrality(Graph(3))

    def test_largest_component_only(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        v = eigenvector_centrality(g)
        assert v[3] == 0.0 and v[4] == 0.0
        assert v.max() == 1.0

    def test_residual_invariant(self):
        from netsync.generators import BAParams, generate_ba

        g = generate_ba(BAParams(n=300, m=2, seed=5))
        v = eigenvector_centrality(g)
        a = np.abs(coupling_matrix(g))
        np.fill_diagonal(a, 0.0)
        lam = (v @ (a @ v)) / (v @ v)
        assert np.abs(a @ v - lam * v).max() / lam <= 1e-8


class TestPermutationEquivariance:
    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_metrics_follow_relabeling(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, max_n=9)
        perm = rng.permutation(g.n)
        permuted = Graph(
            g.n, [(int(perm[u]), int(perm[v])) for u, v in g.edges()]
        )
        bc = betweenness_centrality(g)
        bc_p = betweenness_centrality(permuted)
        for i in range(g.n):
            assert bc_p[perm[i]] == pytest.approx(bc[i], abs=1e-12)
            assert local_clustering(permuted)[perm[i]] == pytest.approx(
                local_clustering(g)[i], abs=1e-12
            )
            assert permuted.degrees()[perm[i]] == g.degrees()[i]


class TestEdgeMonotonicity:
    def test_adding_edge_never_increases_distance(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = random_graph(rng, max_n=8)
            missing = [
                (u, v)
                for u, v in itertools.combinations(range(g.n), 2)
                if v not in g.neighbors(u)
            ]
            if not missing:
                continue
            u, v = missing[rng.integers(0, len(missing))]
            augmented = Graph(g.n, list(g.edges()) + [(u, v)])
            for s in range(g.n):
                before = shortest_path_lengths(g, s)
                after = shortest_path_lengths(augmented, s)
                assert all(a <= b for a, b in zip(after, before))


class TestSummary:
    def test_complete_graph_summary(self):
        s = summarize(complete(6))
        assert s.n == 6 and s.m == 15
        assert s.average_path_length == 1.0
        assert s.diameter == 1
        assert s.global_clustering == 1.0
        assert s.connected

    def test_diameter_bounds_apl(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_graph(rng, max_n=9)
            s = summarize(g)
            if s.connected and g.n >= 2:
                assert s.diameter >= s.average_path_length >= 1.0

    def test_degenerate_fields_none(self):
        s = summarize(Graph(3))
        assert s.average_path_length is None
        assert s.diameter is None
        assert s.component_count == 3

    def test_distribution_sums_to_one(self):
        s = summarize(star(7))
        assert abs(sum(s.degree_distribution.values()) - 1.0) < 1e-12


class TestNodeStats:
    def test_star_rows(self):
        rows = node_stats(star(4))
        center = rows[0]
        assert center.degree == 4
        assert center.betweenness == 6.0
        assert center.eigenvector == pytest.approx(1.0)
        leaf = rows[1]
        assert leaf.clustering == 0.0
        assert leaf.betweenness == 0.0

    def test_isolated_node_has_no_closeness(self):
        rows = node_stats(Graph(3, [(0, 1)]))
        assert rows[2].closeness is None
        assert rows[2].eigenvector == 0.0


class TestEdgeCases:
    def test_empty_graph(self):
        g = Graph(0)
        s = summarize(g)
        assert (s.n, s.average_path_length, s.diameter, s.component_count) == (0, None, None, 0)
        assert betweenness_centrality(g).shape == (0,)
        assert node_stats(g) == []
        with pytest.raises(InputError):
            diameter(g)

    def test_single_node(self):
        g = Graph(1)
        s = summarize(g)
        assert s.average_path_length is None and s.diameter is None
        assert s.unreachable_pair_fraction is None
        assert list(betweenness_centrality(g)) == [0.0]
        (row,) = node_stats(g)
        assert row.closeness is None and row.betweenness == 0.0

    def test_edgeless(self):
        g = Graph(5)
        assert list(betweenness_centrality(g)) == [0.0] * 5
        assert all(r.closeness is None for r in node_stats(g))
        s = summarize(g)
        assert s.average_path_length is None and s.diameter is None
        assert s.unreachable_pair_fraction is None

    def test_isolated_node_among_components(self):
        g = Graph(6, [(0, 1), (1, 2), (4, 5)])
        c = [row.closeness for row in node_stats(g)]
        assert [v is None for v in c] == [False, False, False, True, False, False]
        assert c[1] == 0.5 and c[4] == 1.0
        s = summarize(g)
        # reachable pairs: three in the path, one in the edge, of 15
        assert s.unreachable_pair_fraction == pytest.approx(11.0 / 15.0, abs=1e-15)
        assert s.average_path_length == pytest.approx(5.0 / 4.0, abs=1e-15)


# -- differential tests against networkx ------------------------------------------


def to_networkx(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def tied_components():
    """A 250-node tree on the odd ids and a 250-node BA graph (m=3) on the
    even ids: the two components tie for largest, node 0 puts the BA graph
    first, and the tree has the larger diameter."""
    tree = generate_ba(BAParams(n=250, m=1, seed=3))
    dense = generate_ba(BAParams(n=250, m=3, seed=4))
    edges = [(2 * u, 2 * v) for u, v in dense.edges()]
    edges += [(2 * u + 1, 2 * v + 1) for u, v in tree.edges()]
    return Graph(500, edges)


DIFFERENTIAL_GRAPHS = {
    "ba500": lambda: generate_ba(BAParams(n=500, m=3, seed=21)),
    "tied": tied_components,
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_GRAPHS))
def test_distances_match_networkx(name):
    g = DIFFERENTIAL_GRAPHS[name]()
    nx = pytest.importorskip("networkx")
    h = to_networkx(g)
    lengths = dict(nx.all_pairs_shortest_path_length(h))
    sums = [sum(lengths[v].values()) for v in range(g.n)]
    expected = [1.0 / s if s else None for s in sums]
    assert [row.closeness for row in node_stats(g)] == expected

    reachable = sum(len(lengths[v]) - 1 for v in range(g.n)) // 2
    pairs = g.n * (g.n - 1) // 2
    s = summarize(g)
    assert s.average_path_length == pytest.approx(sum(sums) / 2 / reachable, rel=1e-12)
    assert s.unreachable_pair_fraction == pytest.approx((pairs - reachable) / pairs, rel=1e-12)
    lcc = max(nx.connected_components(h), key=lambda c: (len(c), -min(c)))
    assert s.diameter == diameter(g) == nx.diameter(h.subgraph(lcc))
    if name == "tied":
        assert s.diameter < nx.diameter(h.subgraph(range(1, g.n, 2)))


def from_networkx(h):
    index = {v: i for i, v in enumerate(sorted(h))}
    return Graph(len(index), [(index[u], index[v]) for u, v in h.edges()])


def tied_with_isolated():
    """A 100-node BA graph (m=3) on ids 0..99, a 100-node tree on 100..199
    and five isolated nodes: the first-numbered of the two tied largest
    components, the one measured, has the smaller diameter."""
    dense = generate_ba(BAParams(n=100, m=3, seed=5))
    tree = generate_ba(BAParams(n=100, m=1, seed=6))
    edges = list(dense.edges()) + [(u + 100, v + 100) for u, v in tree.edges()]
    return Graph(205, edges)


def cycle_with_tails():
    """An 8-cycle c0..c7 with tails of 4 nodes at c1 and c2, one of 2 nodes
    at c5, and 50 leaves at c0; the c1 and c5 tail ends are 10 apart. From
    c0 the double sweep reaches the c2 tail's end, then the other ends at
    distance 9, and starts at c2: its deepest level, 5, holds those two
    ends, so the bound 9 = 2*5 - 1 may not end the search before it."""
    edges = [(i, (i + 1) % 8) for i in range(8)]
    n = 8
    for at, length in ((1, 4), (2, 4), (5, 2)):
        for node in range(n, n + length):
            edges.append((node - 1 if node > n else at, node))
        n += length
    edges += [(0, leaf) for leaf in range(n, n + 50)]
    return Graph(n + 50, edges)


DIAMETER_GRAPHS = {
    "cycle_with_tails": cycle_with_tails,
    "ba500": lambda: generate_ba(BAParams(n=500, m=3, seed=21)),
    "er500": lambda: generate_er(ERParams(n=500, m=1000, seed=22)),
    "grid30": lambda: from_networkx(pytest.importorskip("networkx").grid_2d_graph(30, 30)),
    "path1000": lambda: path(1000),
    "cycle129": lambda: cycle(129),
    "cycle130": lambda: cycle(130),
    "star100": lambda: star(100),
    "lollipop": lambda: from_networkx(pytest.importorskip("networkx").lollipop_graph(30, 70)),
    "tied_isolated": tied_with_isolated,
}


@pytest.mark.parametrize("name", sorted(DIAMETER_GRAPHS))
def test_diameter_matches_networkx(name):
    g = DIAMETER_GRAPHS[name]()
    nx = pytest.importorskip("networkx")
    h = to_networkx(g)
    lcc = max(nx.connected_components(h), key=lambda c: (len(c), -min(c)))
    assert len(lcc) > 64
    assert diameter(g) == nx.diameter(h.subgraph(lcc), usebounds=True)
    if name == "tied_isolated":
        assert diameter(g) < nx.diameter(h.subgraph(range(100, 200)), usebounds=True)
    if name == "cycle_with_tails":
        assert diameter(g) == 10


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_GRAPHS))
def test_clustering_matches_networkx(name):
    g = DIFFERENTIAL_GRAPHS[name]()
    nx = pytest.importorskip("networkx")
    expected = nx.clustering(to_networkx(g))
    got = local_clustering(g)
    assert got == pytest.approx([expected[v] for v in range(g.n)], rel=1e-15, abs=0)
    assert [r.clustering for r in node_stats(g)] == got.tolist()


BETWEENNESS_GRAPHS = {
    **DIFFERENTIAL_GRAPHS,
    "grid30": DIAMETER_GRAPHS["grid30"],
    "path200": lambda: path(200),
    "isolated_first_and_middle": lambda: with_isolated(100, [0, 40, 41, 63, 64]),
}


@pytest.mark.parametrize("name", sorted(BETWEENNESS_GRAPHS))
def test_betweenness_matches_networkx(name, monkeypatch):
    g = BETWEENNESS_GRAPHS[name]()
    nx = pytest.importorskip("networkx")
    expected = nx.betweenness_centrality(to_networkx(g), normalized=False)
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(metrics, "_WORKERS", workers)
        got = betweenness_centrality(g)
        assert got == pytest.approx([expected[v] for v in range(g.n)], rel=1e-9, abs=1e-9)
        assert [r.betweenness for r in node_stats(g)] == list(got)


# -- the bit-parallel kernel against networkx ---------------------------------------


def with_isolated(n, isolated):
    """A BA graph (m=2) on every id of 0..n-1 but ``isolated``, which have
    no edges."""
    linked = [v for v in range(n) if v not in set(isolated)]
    ba = generate_ba(BAParams(n=len(linked), m=2, seed=n))
    return Graph(n, [(linked[u], linked[v]) for u, v in ba.edges()])


KERNEL_GRAPHS = {
    "isolated_first_and_middle": lambda: with_isolated(100, [0, 40, 41, 63, 64]),
    "isolated_last": lambda: with_isolated(100, [50, 99]),
    "no_edges": lambda: Graph(70),
    "edge_and_isolated": lambda: Graph(66, [(3, 4)]),
    **{
        f"ba{n}": (lambda n=n: generate_ba(BAParams(n=n, m=2, seed=n)))
        for n in (63, 64, 65, 127, 129)
    },
    "tied_isolated": tied_with_isolated,
    "ba1000": lambda: generate_ba(BAParams(n=1000, m=3, seed=23)),
    "grid30": DIAMETER_GRAPHS["grid30"],
}


@pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
def test_forward_sweep_matches_networkx(name):
    g = KERNEL_GRAPHS[name]()
    nx = pytest.importorskip("networkx")
    h = to_networkx(g)
    lengths = [dict(nx.single_source_shortest_path_length(h, v)) for v in range(g.n)]
    sums = [sum(d.values()) for d in lengths]
    sweep = metrics._forward_sweep(g)
    assert sweep.dist_sums.tolist() == sums
    assert sweep.reached.tolist() == [len(d) - 1 for d in lengths]
    assert sweep.eccentricity.tolist() == [max(d.values()) for d in lengths]

    s = summarize(g)
    reachable = sum(len(d) - 1 for d in lengths) // 2
    if reachable == 0:
        assert s.average_path_length is None
    else:
        pairs = g.n * (g.n - 1) // 2
        assert s.average_path_length == sum(sums) // 2 / reachable
        assert s.unreachable_pair_fraction == (pairs - reachable) / pairs
    lcc = max(nx.connected_components(h), key=lambda c: (len(c), -min(c)))
    if len(lcc) >= 2:
        assert s.diameter == diameter(g) == nx.diameter(h.subgraph(lcc), usebounds=True)
    else:
        assert s.diameter is None


@pytest.mark.parametrize("name", ["ba127", "grid30", "tied_isolated"])
def test_forward_sweep_equals_the_brandes_sweep(name):
    g = KERNEL_GRAPHS[name]()
    got, expected = metrics._forward_sweep(g).dist_sums, metrics._brandes(g)[0]
    assert got.dtype == expected.dtype and (got == expected).all()


SWEEP_ORACLE_GRAPHS = {
    "ba1000": lambda: generate_ba(BAParams(n=1000, m=3, seed=1)),
    **{f"ba{n}": KERNEL_GRAPHS[f"ba{n}"] for n in (63, 64, 65, 129)},
    "isolated_first_and_middle": KERNEL_GRAPHS["isolated_first_and_middle"],
    "isolated_last": KERNEL_GRAPHS["isolated_last"],
    "no_edges": KERNEL_GRAPHS["no_edges"],
    "tied": tied_components,
    "grid30": DIAMETER_GRAPHS["grid30"],
    "path200": lambda: path(200),
    "er49": lambda: generate_er(ERParams(n=49, m=351, seed=3)),
}


def assert_brandes_equals_the_dense_sweep(g, monkeypatch):
    expected = dense_brandes(g)
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(metrics, "_WORKERS", workers)
        for got, want in zip(metrics._brandes(g), expected):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(SWEEP_ORACLE_GRAPHS))
def test_brandes_equals_the_dense_sweep_bitwise(name, monkeypatch):
    # the dense form keeps an int32 depth matrix and allocates every A @ x;
    # the sweep must give its distance sums and betweenness to the bit, on
    # one worker and on two
    assert_brandes_equals_the_dense_sweep(SWEEP_ORACLE_GRAPHS[name](), monkeypatch)


@given(data=st.data())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_brandes_equals_the_dense_sweep_on_random_forests(data, monkeypatch):
    # random trees whose parent lies within ``reach`` ids (1: a path), with
    # extra edges and some nodes left out of the tree: components and
    # isolated nodes fall anywhere across the blocks
    n = data.draw(st.integers(1, 200))
    reach = data.draw(st.integers(1, n))
    left_out = set(data.draw(st.lists(st.integers(0, n - 1), max_size=n // 3)))
    edges = [(i, data.draw(st.integers(max(0, i - reach), i - 1))) for i in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += data.draw(st.lists(pairs, max_size=n // 2))
    g = Graph(n, sorted({(min(e), max(e)) for e in edges
                         if e[0] != e[1] and not left_out & set(e)}))
    assert_brandes_equals_the_dense_sweep(g, monkeypatch)


def test_more_workers_than_cores_keep_the_bits(monkeypatch):
    # four workers on 16 blocks, switching threads every microsecond: a
    # block folded twice, lost or out of order would change the bits; the
    # sweep runs on a thread of its own so that a hang fails the join
    g = generate_ba(BAParams(n=1000, m=3, seed=1))
    expected = dense_brandes(g)
    monkeypatch.setattr(metrics, "_WORKERS", 4)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: got.append(metrics._brandes(g)))
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive() and len(got) == 1
    for got_one, want in zip(got[0], expected):
        assert got_one.tobytes() == want.tobytes()


def test_brandes_buffers_must_fit_in_memory(monkeypatch):
    # each worker holds three float64 (n, 64) buffers and an int32 store of
    # level pairs, 28 * 64 bytes a node: here one worker's would fit and two
    # workers' would not. A stand-in graph: the check comes before any read
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    monkeypatch.setattr(metrics, "_WORKERS", 2)
    with pytest.raises(InputError, match="bytes"):
        metrics._brandes(SimpleNamespace(n=memory // (2 * 28 * 64) + 64))


def layered(layers):
    """``layers`` layers of 3 nodes, consecutive layers joined completely,
    and one end node at each side: 3**layers shortest paths end to end."""
    edges = [(0, 1 + j) for j in range(3)]
    for i in range(layers - 1):
        edges += [(1 + 3 * i + j, 4 + 3 * i + k) for j in range(3) for k in range(3)]
    end = 3 * layers + 1
    edges += [(end - 3 + j, end) for j in range(3)]
    return Graph(end + 1, edges)


def test_path_count_overflow_on_two_workers(monkeypatch):
    # 3**650 paths overflow float64 in the end blocks; the error reaches the
    # caller and no pool thread outlives the call
    g = layered(650)
    assert g.n == 1952
    monkeypatch.setattr(metrics, "_WORKERS", 2)
    threads = threading.active_count()
    with pytest.raises(NumericalError, match="^shortest-path counts overflow float64$"):
        node_stats(g)
    assert threading.active_count() == threads


def test_an_error_on_a_pool_thread_stops_the_sweep(monkeypatch):
    # the second of 20 blocks fails and the others do their real work: the
    # error reaches the caller when the fold gets to that block, the blocks
    # not yet started are cancelled, and the pool is gone when the call ends
    started = []
    block = metrics._brandes_block

    def failing_at_the_second_block(g, lo, *buffers):
        started.append(lo)
        if lo == 64:
            raise NumericalError("block 64 failed")
        return block(g, lo, *buffers)

    monkeypatch.setattr(metrics, "_brandes_block", failing_at_the_second_block)
    monkeypatch.setattr(metrics, "_WORKERS", 2)
    threads = threading.active_count()
    with pytest.raises(NumericalError, match="block 64 failed"):
        metrics._brandes(generate_ba(BAParams(n=64 * 20, m=2, seed=5)))
    assert threading.active_count() == threads
    assert len(started) < 20


@pytest.mark.parametrize("name", ["cycle_with_tails", "grid30", "tied_isolated"])
def test_stacked_rows_match_networkx(name, monkeypatch):
    # each row is the largest component left after removing a random node
    # set, and each is given twice: a node then starts two tasks of one
    # block, and on the grid a fringe round holds more than 64 sources
    g = DIAMETER_GRAPHS[name]()
    nx = pytest.importorskip("networkx")
    h = to_networkx(g)
    rng = np.random.default_rng(8)
    members, expected = [], []
    for count in (0, 1, 2, 5, 10, 30, 60):
        removed = set(rng.choice(g.n, count, replace=False).tolist())
        sub = h.subgraph(set(range(g.n)) - removed)
        lcc = max(nx.connected_components(sub), key=lambda c: (len(c), -min(c)))
        row = np.zeros(g.n, dtype=bool)
        row[sorted(lcc)] = True
        members += [row, row]
        expected += [nx.diameter(sub.subgraph(lcc), usebounds=True)] * 2
    tasks = []
    bfs = metrics._bfs
    monkeypatch.setattr(
        metrics, "_bfs",
        lambda g, src, *rest, **kw: tasks.append(len(src)) or bfs(g, src, *rest, **kw),
    )
    assert metrics._largest_component_diameter(g, np.array(members)).tolist() == expected
    if name == "grid30":
        assert max(tasks) > 64
