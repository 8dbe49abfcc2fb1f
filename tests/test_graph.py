import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from netsync.errors import InputError
from netsync.generators import BAParams, generate_ba
from netsync.graph import Graph, connected_components


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        chosen = draw(st.sets(st.sampled_from(range(len(pairs)))))
        edges = [pairs[i] for i in sorted(chosen)]
    else:
        edges = []
    return Graph(n, edges)


def complete(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError, match="self-loop"):
            Graph(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InputError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 2)])

    def test_rejects_negative_n(self):
        with pytest.raises(InputError):
            Graph(-1)

    def test_label_length_mismatch(self):
        with pytest.raises(InputError):
            Graph(2, [], labels=["a"])

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (3, [(0, 1), (1, 0), (0, 5)], "duplicate edge (0, 1)"),
            (3, [(0, 5), (0, 1), (1, 0)], "edge (0, 5) out of range for n=3"),
            (3, [(0, 1), (2, 2), (1, 0)], "self-loop at node 2 is not allowed"),
            (3, [(2, 1), (1, 2), (1, 1)], "duplicate edge (1, 2)"),
            (3, [(1, 2), (0, 5)], "edge (0, 5) out of range for n=3"),
            (3, [(0, 1), (-1, 2), (0, 1)], "edge (-1, 2) out of range for n=3"),
            (4, [(0, 1), (2, 3), (5, 6), (3, 3)], "edge (5, 6) out of range for n=4"),
        ],
    )
    def test_reports_first_violation_in_input_order(self, n, edges, message):
        with pytest.raises(InputError) as exc:
            Graph(n, edges)
        assert str(exc.value) == message

    def test_edge_count(self):
        g = Graph(4, [(0, 1), (2, 3), (1, 2)])
        assert g.m == 3
        assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]


class TestQueries:
    def test_complete_graph_degree(self):
        g = complete(3)
        assert g.degrees() == [2, 2, 2]

    def test_isolated_degree(self):
        assert Graph(1).degrees() == [0]

    def test_degree_out_of_range(self):
        with pytest.raises(InputError):
            complete(3).neighbors(3)

    def test_neighbors_path_middle(self):
        assert path(3).neighbors(1) == [0, 2]

    def test_neighbors_star_center(self):
        assert star(4).neighbors(0) == [1, 2, 3, 4]

    def test_neighbors_edgeless(self):
        assert Graph(1).neighbors(0) == []

    def test_has_edge(self):
        g = path(3)
        assert 1 in g.neighbors(0) and 0 in g.neighbors(1)
        assert 2 not in g.neighbors(0)

    @given(graphs())
    def test_handshake(self, g):
        assert sum(g.degrees()) == 2 * g.m

    @given(graphs())
    def test_neighbors_sorted_no_self(self, g):
        for i in range(g.n):
            nbrs = g.neighbors(i)
            assert nbrs == sorted(set(nbrs))
            assert i not in nbrs


class TestComponents:
    def test_connected_path(self):
        parts = connected_components(path(3))
        assert parts.sizes == [3]

    def test_two_disjoint_edges(self):
        parts = connected_components(Graph(4, [(0, 1), (2, 3)]))
        assert sorted(parts.sizes) == [2, 2]
        assert parts.count == 2

    def test_isolated_nodes(self):
        parts = connected_components(Graph(5))
        assert parts.sizes == [1] * 5

    def test_numbering_by_smallest_node(self):
        g = Graph(4, [(1, 3)])
        parts = connected_components(g)
        assert parts.component_of == [0, 1, 2, 1]

    @given(graphs())
    def test_sizes_sum_to_n(self, g):
        parts = connected_components(g)
        assert sum(parts.sizes) == g.n
        assert sorted(set(parts.component_of)) == list(range(parts.count))


# -- differential tests against networkx ------------------------------------------


def to_networkx(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_components_match_networkx():
    """BA(500) thinned to 40% of its edges, with 25 isolated nodes, all ids
    shuffled: numbering by smallest member id, and the sizes."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(8)
    ba = generate_ba(BAParams(n=500, m=2, seed=8))
    perm = rng.permutation(525)
    edges = [(int(perm[u]), int(perm[v])) for u, v in ba.edges() if rng.random() < 0.4]
    g = Graph(525, edges)
    parts = connected_components(g)
    expected = sorted(nx.connected_components(to_networkx(g)), key=min)
    assert parts.count == len(expected) > 25
    assert parts.sizes == [len(c) for c in expected]
    assert parts.component_of == [
        next(cid for cid, c in enumerate(expected) if v in c) for v in range(g.n)
    ]
