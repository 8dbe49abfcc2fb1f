import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsync.errors import InputError
from netsync.generators import (
    BAParams,
    ERParams,
    _decode_pair,
    _encode_pair,
    generate_ba,
    generate_er,
)


class TestBA:
    def test_edge_count_small(self):
        g = generate_ba(BAParams(n=5, m=1, m0=2, seed=0))
        assert g.n == 5 and g.m == 1 + 3

    def test_edge_count_medium(self):
        g = generate_ba(BAParams(n=100, m=3, m0=4, seed=0))
        assert g.m == 6 + 288

    def test_default_core_is_m_plus_one(self):
        g = generate_ba(BAParams(n=50, m=2, seed=1))
        assert g.m == 3 + 2 * 47

    @pytest.mark.parametrize("n,m,m0", [(5, 0, 2), (5, 3, 2), (3, 2, 3), (2, 1, 2)])
    def test_invalid_params(self, n, m, m0):
        with pytest.raises(InputError):
            generate_ba(BAParams(n=n, m=m, m0=m0, seed=0))

    def test_graph_must_fit_in_memory(self):
        # 3e12 edges at 48 bytes and 1e12 nodes at 12, refused up front
        with pytest.raises(InputError, match=r"BA\(n=1000000000000\) .* need 1\.56e\+14 bytes"):
            generate_ba(BAParams(n=10**12, m=3, seed=0))

    def test_determinism(self):
        a = generate_ba(BAParams(n=200, m=2, seed=9))
        b = generate_ba(BAParams(n=200, m=2, seed=9))
        assert list(a.edges()) == list(b.edges())

    def test_seed_changes_output(self):
        a = generate_ba(BAParams(n=200, m=2, seed=9))
        b = generate_ba(BAParams(n=200, m=2, seed=10))
        assert set(a.edges()) != set(b.edges())

    def test_rich_get_richer(self):
        # seed-core nodes should end up far better connected than latecomers
        core_means, late_means = [], []
        for seed in range(200):
            g = generate_ba(BAParams(n=500, m=2, seed=seed))
            degrees = g.degrees()
            core_means.append(np.mean(degrees[:3]))
            late_means.append(np.mean(degrees[-100:]))
        assert np.mean(core_means) > np.mean(late_means)


class TestER:
    def test_triangle_is_forced(self):
        g = generate_er(ERParams(n=3, m=3, seed=123))
        assert set(g.edges()) == {(0, 1), (0, 2), (1, 2)}

    def test_case_study_size(self):
        g = generate_er(ERParams(n=49, m=351, seed=3))
        assert g.n == 49 and g.m == 351

    def test_mean_degree_exact(self):
        g = generate_er(ERParams(n=1000, m=3000, seed=0))
        assert np.mean(g.degrees()) == 6.0

    def test_graph_must_fit_in_memory(self):
        # three edges, but a degree count and row pointer for each of 1e12 nodes
        with pytest.raises(InputError, match=r"ER\(n=1000000000000\) .* need 1\.2e\+13 bytes"):
            generate_er(ERParams(n=10**12, m=3, seed=0))

    def test_too_many_edges(self):
        with pytest.raises(InputError):
            generate_er(ERParams(n=3, m=4, seed=0))

    def test_determinism(self):
        a = generate_er(ERParams(n=100, m=250, seed=17))
        b = generate_er(ERParams(n=100, m=250, seed=17))
        assert list(a.edges()) == list(b.edges())

    def test_dense_request_uses_all_pairs(self):
        g = generate_er(ERParams(n=6, m=15, seed=2))
        assert g.m == 15

    def test_degree_concentration(self):
        # Poisson-like tail: almost no node exceeds 4x the mean degree
        g = generate_er(ERParams(n=10_000, m=30_000, seed=8))
        degrees = np.array(g.degrees())
        mean = degrees.mean()
        assert (degrees > 4 * mean).mean() < 0.001


class TestPairCodec:
    @given(st.integers(min_value=2, max_value=40))
    @settings(max_examples=25)
    def test_roundtrip_exhaustive(self, n):
        total = n * (n - 1) // 2
        seen = set()
        for rank in range(total):
            u, v = _decode_pair(rank, n)
            assert 0 <= u < v < n
            assert _encode_pair(u, v, n) == rank
            seen.add((u, v))
        assert len(seen) == total
