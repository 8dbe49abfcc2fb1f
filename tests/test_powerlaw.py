import time

import numpy as np
import pytest

from netsync.errors import FitError, InputError
from netsync.generators import BAParams, ERParams, generate_ba, generate_er
from netsync.graph import Graph
from netsync.powerlaw import (
    ComparisonPoint,
    discrete_power_law_pmf,
    distribution_comparison,
    fit_mle,
    sample_power_law,
)
from oracles import power_law_ks


class TestSampler:
    def test_support_respects_k_min(self):
        s = sample_power_law(3.0, 2, 10, seed=0)
        assert len(s) == 10
        assert s.min() >= 2

    def test_seed_determinism(self):
        a = sample_power_law(2.5, 1, 1000, seed=42)
        b = sample_power_law(2.5, 1, 1000, seed=42)
        assert np.array_equal(a, b)

    def test_log_mean_matches_analytic(self):
        # oracle: expectation of log(k) straight from the truncated pmf
        ks, p = discrete_power_law_pmf(2.5, 1)
        mean = float((p * np.log(ks)).sum())
        second = float((p * np.log(ks) ** 2).sum())
        se = np.sqrt((second - mean**2) / 100_000)
        s = sample_power_law(2.5, 1, 100_000, seed=7)
        assert abs(np.log(s).mean() - mean) < 3 * se

    def test_pmf_mass(self):
        _, p = discrete_power_law_pmf(3.0, 1)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_invalid_gamma(self):
        with pytest.raises(InputError):
            sample_power_law(1.0, 1, 10, seed=0)

    def test_gamma_too_close_to_one_for_mass_bound(self):
        with pytest.raises(InputError, match="cap"):
            discrete_power_law_pmf(1.2, 1)

    def test_negative_count(self):
        with pytest.raises(InputError):
            sample_power_law(2.5, 1, -1, seed=0)


class TestFit:
    def test_recovers_synthetic_exponent(self):
        s = sample_power_law(2.5, 1, 100_000, seed=3)
        fit = fit_mle(s)
        assert 2.45 <= fit.gamma <= 2.55

    def test_zero_variance_is_error(self):
        with pytest.raises(FitError):
            fit_mle([4, 4, 4, 4])

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_mle([5])

    def test_negative_degree_rejected(self):
        with pytest.raises(InputError):
            fit_mle([1, -2, 3])

    def test_zero_degrees_dropped_and_reported(self):
        s = list(sample_power_law(2.5, 1, 5000, seed=1)) + [0, 0, 0]
        fit = fit_mle(s)
        assert fit.dropped_zeros == 3

    def test_permutation_blind(self):
        s = sample_power_law(2.7, 1, 2000, seed=5)
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(s)
        assert fit_mle(s) == fit_mle(shuffled)

    def test_invariants(self):
        fit = fit_mle(sample_power_law(2.6, 2, 20_000, seed=9))
        assert fit.gamma > 1.0
        assert fit.k_min >= 1
        assert fit.n_tail >= 2
        assert 0.0 <= fit.ks_stat <= 1.0

    def test_ks_near_zero_for_ideal_sample(self):
        # empirical counts built directly from the fitted probabilities
        ks, p = discrete_power_law_pmf(2.5, 1)
        counts = np.round(p * 100_000).astype(int)
        sample = np.repeat(ks, counts)
        fit = fit_mle(sample)
        assert fit.ks_stat <= 0.01

    def test_estimator_consistency(self):
        # median absolute error shrinks as the sample grows
        medians = []
        for n in (10**3, 10**4, 10**5):
            errs = [
                abs(fit_mle(sample_power_law(2.5, 1, n, seed=s)).gamma - 2.5)
                for s in range(20)
            ]
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]


class TestComparison:
    def test_identical_graphs(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert distribution_comparison(g, g) == [
            ComparisonPoint(1, 0.5, 0.5),
            ComparisonPoint(2, 0.5, 0.5),
        ]

    def test_complete_graph_single_point(self):
        import itertools

        k4 = Graph(4, list(itertools.combinations(range(4), 2)))
        assert distribution_comparison(k4, k4) == [ComparisonPoint(3, 1.0, 1.0)]

    def test_degree_of_one_graph_only(self):
        path = Graph(3, [(0, 1), (1, 2)])
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert distribution_comparison(path, star) == [
            ComparisonPoint(1, 2 / 3, 0.75),
            ComparisonPoint(2, 1 / 3, None),
            ComparisonPoint(3, None, 0.25),
        ]

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            distribution_comparison(Graph(0), Graph(1, []))


def _every_integer_fits(degrees):
    """(k_min, KS at every integer) for each cutoff fit_mle tries, with the
    exponent from the closed-form estimator."""
    k = np.sort(np.asarray(degrees))
    k = k[k > 0]
    for k0 in np.unique(k)[:-1]:
        tail = k[k >= k0]
        gamma = 1.0 + tail.size / np.log(tail / (k0 - 0.5)).sum()
        yield int(k0), power_law_ks(k, gamma, int(k0))


SEQUENCES = {
    "power-law-2.5": sample_power_law(2.5, 1, 3000, seed=11),
    "power-law-2.4-kmin3": sample_power_law(2.4, 3, 2000, seed=12),
    "power-law-3.2": sample_power_law(3.2, 2, 5000, seed=13),
    "ba-2000": generate_ba(BAParams(n=2000, m=3, seed=1)).degrees(),
    "er-49-351": generate_er(ERParams(n=49, m=351, seed=3)).degrees(),
    "sparse-gaps": [1, 1, 1, 2, 2, 3, 5, 9, 40, 41, 300],
}


class TestKsGrid:
    @pytest.mark.parametrize("name", SEQUENCES)
    def test_ks_equals_every_integer_oracle(self, name):
        # the points where the distance can peak give the every-integer maximum
        degrees = SEQUENCES[name]
        fit = fit_mle(degrees)
        assert fit.ks_stat == power_law_ks(degrees, fit.gamma, fit.k_min)
        # and no cutoff fits better, up to the rounding of its exponent
        for _, ks in _every_integer_fits(degrees):
            assert ks >= fit.ks_stat * (1 - 1e-9)

    def test_hub_of_degree_a_million(self):
        # the tail spans 10**6 integers; only its observed values are evaluated
        degrees = np.append(sample_power_law(2.5, 3, 20_000, seed=7), 10**6)
        start = time.perf_counter()
        fit = fit_mle(degrees)
        assert time.perf_counter() - start < 1.0
        assert fit.ks_stat == power_law_ks(degrees, fit.gamma, fit.k_min)
