"""Discrete power-law fitting and sampling for degree sequences.

The fit follows the standard maximum-likelihood recipe for discrete data:
for every candidate tail cutoff k_min the exponent is estimated as

    gamma_hat = 1 + n_tail / sum(log(k_i / (k_min - 1/2)))   over k_i >= k_min

and the cutoff actually reported is the one whose fitted tail CDF is closest
to the empirical tail CDF in Kolmogorov-Smirnov distance (ties broken by the
smallest cutoff). Fitted CDFs use the Hurwitz-zeta normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

from .errors import FitError, InputError
from .generators import rng_from_seed
from .graph import Graph
from .metrics import degree_distribution

TAIL_MASS_BOUND = 1e-9
MAX_SUPPORT = 10**7


@dataclass(frozen=True)
class PowerLawFit:
    gamma: float
    k_min: int
    ks_stat: float
    n_tail: int
    dropped_zeros: int


def fit_mle(degrees: list[int] | np.ndarray) -> PowerLawFit:
    """Fit P(k) ~ k^-gamma to a degree sequence by maximum likelihood.

    Zero entries are dropped first (their count is reported on the result).
    Raises FitError when no candidate cutoff leaves a usable tail, e.g. for
    a zero-variance sequence.
    """
    k = np.asarray(degrees, dtype=np.int64)
    if np.any(k < 0):
        raise InputError("degrees must be non-negative")
    dropped = int((k == 0).sum())
    k = np.sort(k[k > 0])
    if k.size < 2:
        raise FitError(
            f"need at least 2 positive degrees to fit, got {k.size} "
            f"({dropped} zero entries dropped)"
        )
    uniq, first_idx = np.unique(k, return_index=True)
    if uniq.size < 2:
        raise FitError(
            "degree sequence has a single distinct value; no tail to fit"
        )
    log_k = np.log(k)
    # suffix sums: tail_log_sum[i] = sum of log(k[j]) for j >= first_idx[i]
    suffix = np.concatenate([np.cumsum(log_k[::-1])[::-1], [0.0]])

    best: tuple[float, int, float, int] | None = None
    for ci in range(uniq.size - 1):  # the max value alone is never a cutoff
        k0 = int(uniq[ci])
        start = int(first_idx[ci])
        n_tail = k.size - start
        log_sum = suffix[start] - n_tail * np.log(k0 - 0.5)
        gamma_hat = 1.0 + n_tail / log_sum

        # KS over every integer of the tail range, so the flat stretches of
        # the empirical CDF at unobserved values count against the fit. The
        # empirical CDF is flat between observed values and the fitted one
        # only rises, so the distance peaks at an observed value or at one
        # less than the next: those points give the exact maximum
        grid = np.concatenate([uniq[ci:], uniq[ci + 1 :] - 1])
        counts_le = np.searchsorted(k, grid, side="right") - start
        emp = counts_le / n_tail
        with np.errstate(invalid="ignore", divide="ignore"):
            fitted = 1.0 - zeta(gamma_hat, grid + 1) / zeta(gamma_hat, k0)
        if not np.all(np.isfinite(fitted)):
            continue  # exponent so extreme the zeta ratio underflowed
        ks = float(np.abs(emp - fitted).max())
        if best is None or ks < best[2]:
            best = (gamma_hat, k0, ks, n_tail)

    if best is None:
        raise FitError("no candidate cutoff produced an evaluable tail fit")
    gamma_hat, k0, ks, n_tail = best
    return PowerLawFit(
        gamma=float(gamma_hat),
        k_min=k0,
        ks_stat=ks,
        n_tail=n_tail,
        dropped_zeros=dropped,
    )


def discrete_power_law_pmf(gamma: float, k_min: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Support and probabilities of the discrete power law k^-gamma, k >= k_min,
    truncated where the neglected tail mass drops below 1e-9.

    The returned probabilities are renormalized over the truncated support.
    """
    if gamma <= 1.0:
        raise InputError(f"gamma must exceed 1, got {gamma}")
    if k_min < 1:
        raise InputError(f"k_min must be a positive integer, got {k_min}")
    z0 = zeta(gamma, k_min)
    # integral bound: zeta(gamma, K+1) < K^(1-gamma) / (gamma-1)
    k_max = int(np.ceil((TAIL_MASS_BOUND * (gamma - 1.0) * z0) ** (1.0 / (1.0 - gamma))))
    k_max = max(k_max, k_min + 1)
    if k_max > MAX_SUPPORT:
        raise InputError(
            f"gamma={gamma} needs support up to {k_max} to reach tail mass "
            f"< {TAIL_MASS_BOUND}; exceeds the documented cap {MAX_SUPPORT}"
        )
    ks = np.arange(k_min, k_max + 1, dtype=np.int64)
    weights = np.power(ks.astype(np.float64), -gamma)
    return ks, weights / weights.sum()


def sample_power_law(gamma: float, k_min: int, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from the truncated discrete power law via inverse CDF;
    deterministic for a given seed."""
    if n < 0:
        raise InputError(f"sample count must be non-negative, got {n}")
    ks, probs = discrete_power_law_pmf(gamma, k_min)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    rng = rng_from_seed(seed)
    return ks[np.searchsorted(cdf, rng.random(n), side="left")]


@dataclass(frozen=True)
class ComparisonPoint:
    """P(k) of one degree in the observed and the reference graph; None
    where that graph has no node of degree k."""

    k: int
    p_observed: float | None
    p_reference: float | None


def distribution_comparison(g1: Graph, g2: Graph) -> list[ComparisonPoint]:
    """Paired degree-distribution points of two graphs, one per degree that
    either graph has, in ascending order; ready for log-log plotting."""
    if g1.n == 0 or g2.n == 0:
        raise InputError("distribution comparison needs two non-empty graphs")
    obs, ref = degree_distribution(g1), degree_distribution(g2)
    return [ComparisonPoint(k, obs.get(k), ref.get(k)) for k in sorted(obs.keys() | ref.keys())]
