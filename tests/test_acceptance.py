"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; every criterion states its tolerance inline and the heavy ones stay well
inside their time budgets.
"""

import itertools
import math

import numpy as np
import pytest

from netsync.fixture import load_fixture, validate_fixture
from netsync.generators import BAParams, ERParams, generate_ba, generate_er
from netsync.graph import Graph, connected_components
from netsync.metrics import (
    average_path_length,
    betweenness_centrality,
    diameter,
    global_clustering,
)
from netsync.powerlaw import fit_mle, sample_power_law
from netsync.report import PipelineConfig, report_to_json, run_pipeline
from netsync.resilience import RandomError, TargetedAttack, run_resilience
from netsync.synchronization import (
    SyncConfig,
    fit_decay_rate,
    simulate,
    spectral_stability,
)

from oracles import brute_force_betweenness


def _report(criterion: str, passed: bool) -> None:
    print(f"\n[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed


def complete(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def random_connected_graph(rng, max_n=40):
    # random spanning tree plus extra edges
    n = int(rng.integers(3, max_n + 1))
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    extras = rng.integers(0, 2 * n, size=2)
    pairs = list(itertools.combinations(range(n), 2))
    for idx in rng.integers(0, len(pairs), size=int(extras[0])):
        edges.add(pairs[int(idx)])
    return Graph(n, sorted(edges))


def test_criterion_01_fixture_consistency():
    rows = load_fixture()
    validation = validate_fixture(rows)
    degrees_ok = sum(r.degree for r in rows) == 702 == 2 * 351
    ones = [r.code for r in rows if r.eigenvector == 1.0]
    leaf_ok = all(r.clustering == 0.0 for r in rows if r.degree == 1)
    ok = (
        validation.passed
        and len(rows) == 49
        and degrees_ok
        and ones == ["IT"]
        and leaf_ok
    )
    _report("criterion 1 (fixture consistency)", ok)


def test_criterion_02_handshake_and_components():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        max_m = n * (n - 1) // 2
        m = int(rng.integers(0, max_m + 1))
        g = generate_er(ERParams(n=n, m=m, seed=int(rng.integers(0, 2**32))))
        parts = connected_components(g)
        if sum(g.degrees()) != 2 * g.m or sum(parts.sizes) != n:
            ok = False
            break
    _report("criterion 2 (handshake + components on 1000 random graphs)", ok)


def test_criterion_03_betweenness_oracle():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        pairs = list(itertools.combinations(range(n), 2))
        mask = rng.random(len(pairs)) < rng.uniform(0.2, 0.9)
        g = Graph(n, [p for p, keep in zip(pairs, mask) if keep])
        expected = np.array(brute_force_betweenness(g))
        got = betweenness_centrality(g)
        worst = max(worst, float(np.abs(got - expected).max()))
    _report(f"criterion 3 (Brandes vs brute force, worst dev {worst:.2e})",
            worst <= 1e-9)


def test_criterion_04_closed_form_metrics():
    ok = True
    for n in range(2, 11):
        kn = complete(n)
        ok &= abs(average_path_length(kn).mean - 1.0) <= 1e-12
        ok &= diameter(kn) == 1
        # clique clustering is 1 from n=3 up; K_2 nodes have degree 1, and
        # the degree-1 convention (clustering 0, as in the reference table)
        # takes precedence there
        expected_c = 0.0 if n == 2 else 1.0
        ok &= abs(global_clustering(kn) - expected_c) <= 1e-12
    p3 = Graph(3, [(0, 1), (1, 2)])
    ok &= abs(average_path_length(p3).mean - 4.0 / 3.0) <= 1e-12
    for leaves in range(2, 9):
        star = Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
        ok &= abs(betweenness_centrality(star)[0] - math.comb(leaves, 2)) <= 1e-12
    _report("criterion 4 (closed-form metrics)", ok)


def test_criterion_05_spectral():
    rng = np.random.default_rng(55)
    ok = True
    for _ in range(100):
        g = random_connected_graph(rng)
        rep = spectral_stability(g)
        scale = max(1.0, max(g.degrees()))
        ok &= abs(rep.lambda1) <= 1e-8 * scale
        ok &= rep.zero_multiplicity == 1
    one = complete(5)
    two = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    three = Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7), (1, 2)])
    ok &= spectral_stability(one).zero_multiplicity == 1
    ok &= spectral_stability(two).zero_multiplicity == 2
    ok &= spectral_stability(three).zero_multiplicity == 3
    for n in range(2, 11):
        ok &= abs(spectral_stability(complete(n)).lambda2 + n) <= 1e-8
    _report("criterion 5 (coupling-matrix spectra)", ok)


def test_criterion_06_consensus_dynamics():
    p2 = Graph(2, [(0, 1)])
    cfg = SyncConfig(c=1.0, dt=0.01, t_max=6.0, dynamics="zero")
    traj = simulate(p2, cfg, np.array([[1.0], [0.0]]))
    closed_form_dev = float(
        np.abs(traj.sync_error - 0.5 * np.exp(-2.0 * traj.times)).max()
    )

    def p2_err(dt):
        c = SyncConfig(c=1.0, dt=dt, t_max=2.0, dynamics="zero")
        t = simulate(p2, c, np.array([[1.0], [0.0]]))
        return np.abs(t.sync_error - 0.5 * np.exp(-2.0 * t.times)).max()

    order_ratio = float(p2_err(0.04) / p2_err(0.02))

    er = generate_er(ERParams(n=30, m=60, seed=1))
    assert connected_components(er).count == 1
    rep = spectral_stability(er)
    rng = np.random.default_rng(3)
    cfg = SyncConfig(c=1.0, dt=0.01, t_max=60.0, dynamics="zero")
    traj = simulate(er, cfg, rng.standard_normal((30, 1)))
    e0 = traj.sync_error[0]
    t_lo = traj.times[np.nonzero(traj.sync_error < 1e-7 * e0)[0][0]]
    below = np.nonzero(traj.sync_error < 1e-13 * e0)[0]
    t_hi = traj.times[below[0]] if below.size else traj.times[-1]
    rate = fit_decay_rate(traj.times, traj.sync_error, t_lo, t_hi)
    expected = cfg.c * abs(rep.lambda2)
    rate_rel = abs(rate - expected) / expected

    ok = closed_form_dev <= 1e-6 and 8.0 <= order_ratio <= 32.0 and rate_rel <= 0.10
    _report(
        f"criterion 6 (consensus: dev {closed_form_dev:.1e}, order x{order_ratio:.1f}, "
        f"rate err {rate_rel:.1%})",
        ok,
    )


def test_criterion_07_ba_exponent_and_tail_contrast():
    ba = generate_ba(BAParams(n=10_000, m=3, seed=42))
    fit = fit_mle(ba.degrees())
    er = generate_er(ERParams(n=10_000, m=ba.m, seed=42))
    ba_max = max(ba.degrees())
    er_max = max(er.degrees())
    ok = 2.5 <= fit.gamma <= 3.5 and ba_max > 4 * er_max
    _report(
        f"criterion 7 (BA gamma {fit.gamma:.3f}; max degree {ba_max} vs {er_max})",
        ok,
    )


def test_criterion_08_mle_recovery():
    gammas = [
        fit_mle(sample_power_law(2.5, 1, 100_000, seed=seed)).gamma
        for seed in range(10)
    ]
    median = float(np.median(gammas))
    ok = abs(median - 2.5) <= 0.05
    _report(f"criterion 8 (MLE recovery, median gamma {median:.4f})", ok)


def test_criterion_09_resilience_asymmetry():
    g = generate_ba(BAParams(n=1000, m=3, seed=7))
    half = g.n // 2
    attack = run_resilience(g, TargetedAttack(), record_every=0.01)
    attack_frac = attack.fraction_when_lcc_below(half)
    initial_diam = attack.rows[0].diameter

    error_fracs, diam_ratios = [], []
    for seed in range(10):
        trace = run_resilience(g, RandomError(seed=seed), record_every=0.01)
        error_fracs.append(trace.fraction_when_lcc_below(half))
        diam_ratios.append(trace.diameter_at(0.5) / initial_diam)
    error_median = float(np.median(error_fracs))
    ratio_median = float(np.median(diam_ratios))

    ok = attack_frac < error_median and ratio_median <= 2.0
    _report(
        f"criterion 9 (attack collapse {attack_frac:.2f} < error median "
        f"{error_median:.2f}; diameter ratio at 50% removal {ratio_median:.2f})",
        ok,
    )


def test_criterion_10_pipeline_determinism():
    def run():
        raw = {
            "input": {"generate": {"model": "er", "n": 49, "edges": 351, "seed": 3}},
            "stages": "all",
            "deterministic": True,
            "resilience": {"strategy": "error", "seeds": 2, "record_every": 0.1},
        }
        return report_to_json(run_pipeline(PipelineConfig.from_dict(raw)))

    ok = run() == run()
    _report("criterion 10 (byte-identical reports across runs)", ok)
