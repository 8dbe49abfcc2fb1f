import dataclasses
import itertools
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsync import synchronization
from netsync.errors import DivergenceError, InputError
from netsync.graph import Graph
from netsync.generators import BAParams, ERParams, generate_ba, generate_er
from netsync.synchronization import (
    DENSE_EIGEN_N,
    SyncConfig,
    _coupling_operator,
    _sparsetools,
    fit_decay_rate,
    make_dynamics,
    simulate,
    spectral_stability,
)

from oracles import coupling_matrix


def complete(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.sets(st.sampled_from(range(len(pairs)))))
    return Graph(n, [pairs[i] for i in sorted(chosen)])


def dense_operator(g):
    return _coupling_operator(g).toarray()


class TestCouplingMatrix:
    def test_single_edge(self):
        assert np.array_equal(
            dense_operator(Graph(2, [(0, 1)])), [[-1.0, 1.0], [1.0, -1.0]]
        )

    def test_triangle(self):
        c = dense_operator(complete(3))
        assert np.array_equal(np.diag(c), [-2.0, -2.0, -2.0])
        off = c[~np.eye(3, dtype=bool)]
        assert np.array_equal(off, np.ones(6))

    def test_isolated_row_zero(self):
        c = dense_operator(Graph(3, [(0, 1)]))
        assert np.array_equal(c[2], [0.0, 0.0, 0.0])

    @given(graphs())
    @settings(max_examples=40)
    def test_rows_sum_exactly_zero(self, g):
        c = dense_operator(g)
        assert np.array_equal(c.sum(axis=1), np.zeros(g.n))
        assert np.array_equal(c, c.T)

    @given(graphs())
    @settings(max_examples=40)
    def test_oracle_equals_operator(self, g):
        assert np.array_equal(coupling_matrix(g), dense_operator(g))


class TestSpectralStability:
    def test_p2_analytic(self):
        rep = spectral_stability(Graph(2, [(0, 1)]))
        assert rep.lambda1 == pytest.approx(0.0, abs=1e-12)
        assert rep.lambda2 == pytest.approx(-2.0, abs=1e-12)
        assert rep.stable

    @pytest.mark.parametrize("n", range(2, 11))
    def test_complete_graph_lambda2(self, n):
        rep = spectral_stability(complete(n))
        assert rep.lambda2 == pytest.approx(-n, abs=1e-8)
        assert rep.lambda1 == 0.0  # exactly, not eigvalsh's rounding noise

    def test_zero_multiplicity_counts_components(self):
        one = complete(4)
        two = Graph(5, [(0, 1), (1, 2), (3, 4)])
        three = Graph(7, [(0, 1), (2, 3), (4, 5), (5, 6)])
        assert spectral_stability(one).zero_multiplicity == 1
        assert spectral_stability(two).zero_multiplicity == 2
        assert spectral_stability(three).zero_multiplicity == 3

    def test_disconnected_is_unstable(self):
        rep = spectral_stability(Graph(4, [(0, 1), (2, 3)]))
        assert not rep.stable
        # lambda_2 is exactly 0 on a disconnected graph, so even a zero
        # threshold finds no gap
        rep = spectral_stability(Graph(5, [(0, 1), (1, 2), (3, 4)]), 0.0)
        assert rep.lambda2 == 0.0 and not rep.stable

    def test_edgeless_unstable(self):
        rep = spectral_stability(Graph(3))
        assert not rep.stable
        assert rep.lambda2 == 0.0

    def test_needs_two_nodes(self):
        with pytest.raises(InputError):
            spectral_stability(Graph(1))

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_threshold(self, threshold):
        with pytest.raises(InputError, match="closeness_threshold must be finite"):
            spectral_stability(complete(5), threshold)

    def test_rejects_negative_threshold_and_takes_zero(self):
        with pytest.raises(InputError, match="closeness_threshold must be finite and >= 0"):
            spectral_stability(complete(5), -1.0)
        assert spectral_stability(complete(5), 0.0).closeness_threshold == 0.0

    def test_gap_field(self):
        rep = spectral_stability(complete(5))
        assert rep.gap == pytest.approx(5.0, abs=1e-8)


def from_networkx(h):
    h = nx.convert_node_labels_to_integers(h)
    return Graph(h.number_of_nodes(), list(h.edges()))


def disjoint_union(*parts):
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges()]
        offset += part.n
    return Graph(offset, edges)


def dense_lambda2(g):
    return float(np.linalg.eigvalsh(coupling_matrix(g))[-2])


def networkx_lambda2(g):
    h = nx.Graph(list(g.edges()))
    return -nx.algebraic_connectivity(h, method="tracemin_lu", tol=1e-12)


# above DENSE_EIGEN_N nodes, long diameters, tiny and degenerate lambda_2
SPARSE_SPECTRUM_GRAPHS = {
    "grid30x30": lambda: from_networkx(nx.grid_2d_graph(30, 30)),
    "lollipop30_270": lambda: from_networkx(nx.lollipop_graph(30, 270)),
    "barbell150_10": lambda: from_networkx(nx.barbell_graph(150, 10)),
    "star1000": lambda: from_networkx(nx.star_graph(999)),
    "cycle1001": lambda: from_networkx(nx.cycle_graph(1001)),
    "complete300": lambda: complete(300),
}


class TestSparseSpectrum:
    """lambda_2 from the shift-invert solve, above DENSE_EIGEN_N nodes."""

    @pytest.mark.parametrize("n", [201, 300, 1000, 3000])
    @pytest.mark.parametrize("model", ["ba", "er"])
    def test_random_graphs_match_dense_and_networkx(self, model, n):
        if model == "ba":
            g = generate_ba(BAParams(n=n, m=3, seed=1))
        else:
            g = generate_er(ERParams(n=n, m=5 * n, seed=1))
        rep = spectral_stability(g)
        assert rep.lambda1 == 0.0 and rep.zero_multiplicity == 1
        assert rep.gap == -rep.lambda2
        assert rep.lambda2 == pytest.approx(dense_lambda2(g), rel=1e-8)
        assert rep.lambda2 == pytest.approx(networkx_lambda2(g), rel=1e-8)

    @pytest.mark.parametrize("n", [1000, 5000])
    def test_path_matches_closed_form(self, n):
        # eigvalsh itself is off by 3.6e-11 relative on the 1000-node path
        rep = spectral_stability(from_networkx(nx.path_graph(n)))
        assert rep.lambda2 == pytest.approx(-2.0 * (1.0 - math.cos(math.pi / n)), abs=1e-14)
        assert not rep.stable

    @pytest.mark.parametrize("name", SPARSE_SPECTRUM_GRAPHS)
    def test_odd_graphs_match_dense(self, name):
        g = SPARSE_SPECTRUM_GRAPHS[name]()
        assert g.n > DENSE_EIGEN_N
        rep = spectral_stability(g)
        assert rep.lambda2 == pytest.approx(dense_lambda2(g), rel=1e-8)
        assert rep.lambda2 == pytest.approx(networkx_lambda2(g), rel=1e-8)

    @pytest.mark.parametrize(
        "g, components",
        [
            (disjoint_union(generate_ba(BAParams(n=150, m=3, seed=1)),
                            generate_ba(BAParams(n=151, m=3, seed=2))), 2),
            (disjoint_union(generate_ba(BAParams(n=300, m=3, seed=1)), Graph(1)), 2),
        ],
        ids=["two-ba-components", "ba-and-isolated-node"],
    )
    def test_disconnected(self, g, components):
        rep = spectral_stability(g, 0.0)
        assert g.n > DENSE_EIGEN_N
        assert rep.lambda1 == 0.0 and rep.lambda2 == 0.0 and rep.gap == 0.0
        assert rep.zero_multiplicity == components
        assert not rep.stable

    def test_refused_above_max_eigen_n(self):
        with pytest.raises(InputError, match="limited to n <= 5000, got 5001"):
            spectral_stability(from_networkx(nx.path_graph(5001)))

    def test_same_bits_on_every_call(self):
        g = generate_ba(BAParams(n=1000, m=3, seed=7))
        first, again = spectral_stability(g), spectral_stability(g)
        assert first.lambda2.hex() == again.lambda2.hex()
        assert dataclasses.astuple(first) == dataclasses.astuple(again)

    def test_dense_up_to_the_constant_sparse_above(self, child_env):
        # only the sparse path imports scipy.sparse.linalg, and only eigvalsh
        # is the dense path
        script = """
import sys
import numpy as np
from netsync.generators import BAParams, generate_ba
from netsync.synchronization import DENSE_EIGEN_N, spectral_stability
calls = []
eigvalsh = np.linalg.eigvalsh
np.linalg.eigvalsh = lambda a: calls.append(len(a)) or eigvalsh(a)
for n in (DENSE_EIGEN_N, DENSE_EIGEN_N + 1):
    spectral_stability(generate_ba(BAParams(n=n, m=3, seed=1)))
    print(n, calls, "scipy.sparse.linalg" in sys.modules)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=child_env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert DENSE_EIGEN_N == 200
        assert proc.stdout == "200 [200] False\n201 [200] True\n"


class TestDynamicsRegistry:
    def test_zero(self):
        f = make_dynamics("zero")
        x = np.ones((3, 2))
        assert np.array_equal(f(x), np.zeros((3, 2)))

    @pytest.mark.parametrize("spec", ["linear:0.5"])
    def test_linear_forms(self, spec):
        f = make_dynamics(spec)
        assert np.allclose(f(np.array([[2.0]])), [[1.0]])

    def test_logistic(self):
        f = make_dynamics("logistic:2.0")
        assert np.allclose(f(np.array([[0.5]])), [[0.5]])

    def test_unknown_name(self):
        with pytest.raises(InputError, match="known"):
            make_dynamics("chaotic")

    def test_missing_parameter(self):
        with pytest.raises(InputError):
            make_dynamics("linear")


class TestSimulate:
    def test_p2_closed_form(self):
        g = Graph(2, [(0, 1)])
        cfg = SyncConfig(c=1.0, dt=0.01, t_max=8.0, dynamics="zero")
        traj = simulate(g, cfg, np.array([[1.0], [0.0]]))
        exact = 0.5 * np.exp(-2.0 * traj.times)
        assert np.abs(traj.sync_error - exact).max() <= 1e-6
        # both states settle at the initial mean
        assert np.allclose(traj.states[-1], 0.5, atol=1e-6)

    def test_rk4_order(self):
        g = Graph(2, [(0, 1)])

        def max_err(dt):
            cfg = SyncConfig(c=1.0, dt=dt, t_max=2.0, dynamics="zero")
            traj = simulate(g, cfg, np.array([[1.0], [0.0]]))
            return np.abs(traj.sync_error - 0.5 * np.exp(-2.0 * traj.times)).max()

        ratio = max_err(0.04) / max_err(0.02)
        assert 8.0 <= ratio <= 32.0

    def test_identical_states_follow_isolated_solution(self):
        # coupling cancels identically, up to float roundoff in C @ x
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        cfg = SyncConfig(c=2.0, dt=0.01, t_max=3.0, dynamics="logistic:1.5")
        x0 = np.full((4, 1), 0.2)
        traj = simulate(g, cfg, x0, keep_states=True)
        isolated = simulate(Graph(1), cfg, np.array([[0.2]]), keep_states=True)
        for node in range(4):
            assert np.allclose(
                traj.states[:, node, :], isolated.states[:, 0, :], atol=1e-12
            )
        assert traj.sync_error.max() <= 1e-12

    def test_mean_conserved_under_consensus(self):
        g = generate_er(ERParams(n=20, m=40, seed=2))
        rng = np.random.default_rng(1)
        cfg = SyncConfig(c=1.0, dt=0.01, t_max=10.0, dynamics="zero")
        traj = simulate(g, cfg, rng.standard_normal((20, 1)), keep_states=True)
        means = traj.states.mean(axis=1)[:, 0]
        assert np.abs(means - means[0]).max() <= 1e-8 * cfg.t_max

    def test_decay_rate_matches_algebraic_connectivity(self):
        g = generate_er(ERParams(n=30, m=60, seed=1))
        rep = spectral_stability(g)
        rng = np.random.default_rng(3)
        cfg = SyncConfig(c=1.0, dt=0.01, t_max=60.0, dynamics="zero")
        traj = simulate(g, cfg, rng.standard_normal((30, 1)))
        e0 = traj.sync_error[0]
        t_lo = traj.times[np.nonzero(traj.sync_error < 1e-7 * e0)[0][0]]
        below = np.nonzero(traj.sync_error < 1e-13 * e0)[0]
        t_hi = traj.times[below[0]] if below.size else traj.times[-1]
        rate = fit_decay_rate(traj.times, traj.sync_error, t_lo, t_hi)
        expected = cfg.c * abs(rep.lambda2)
        assert abs(rate - expected) / expected <= 0.10

    def test_synchronized_at(self):
        g = Graph(2, [(0, 1)])
        cfg = SyncConfig(c=1.0, dt=0.01, t_max=6.0, dynamics="zero")
        traj = simulate(g, cfg, np.array([[1.0], [0.0]]))
        # 0.5 * exp(-2t) < 1e-3  =>  t > ln(500)/2
        first = traj.times[np.nonzero(traj.sync_error < 1e-3)[0][0]]
        assert first == pytest.approx(np.log(500.0) / 2.0, abs=0.02)

    def test_divergence_raises_with_time(self):
        g = complete(3)
        cfg = SyncConfig(c=1.0, dt=1.0, t_max=50.0, dynamics="logistic:4.0")
        with pytest.raises(DivergenceError) as exc:
            simulate(g, cfg, np.array([[50.0], [-40.0], [10.0]]))
        assert exc.value.time > 0

    @pytest.mark.parametrize("dynamics, gamma, dt", [
        ("zero", None, 0.0093),
        ("zero", [[1.0]], 0.0093),
        # A < 0 moves the mode of lambda_N further out: refused at dt 0.0092
        ("linear:-3", None, 0.0092),
    ])
    def test_step_past_rk4_limit_is_refused(self, dynamics, gamma, dt):
        """On the star K1,300, lambda_N = 301 = max degree + 1, so the bound
        is exact: the allocating loop's error grows at the refused setting."""
        star = Graph(301, [(0, i) for i in range(1, 301)])
        cfg = SyncConfig(dt=dt, t_max=1000 * dt, dynamics=dynamics, inner_coupling=gamma)
        x0 = np.random.default_rng(0).standard_normal((301, 1))
        with pytest.raises(InputError, match="dt must be at most"):
            simulate(star, cfg, x0)
        errors, _ = allocating_rk4(star, cfg, x0)
        assert errors[-1] > 1e6 * errors[0]

    @pytest.mark.parametrize("dynamics, gamma", [
        ("zero", None),  # dt * (max degree + 1) = 2.769, below the limit
        ("linear:-1", None),
        ("logistic:0.5", None),  # no degree bound is exact for these three
        ("linear:-0.3", [[1.5]]),
        (lambda x: -x, None),
    ], ids=["zero", "linear", "logistic", "gamma", "callable"])
    def test_step_the_bound_does_not_settle_runs(self, dynamics, gamma):
        star = Graph(301, [(0, i) for i in range(1, 301)])
        dt = 0.0092 if gamma is None and dynamics in ("zero", "linear:-1") else 0.0093
        cfg = SyncConfig(dt=dt, t_max=100 * dt, dynamics=dynamics, inner_coupling=gamma)
        simulate(star, cfg, np.random.default_rng(0).random((301, 1)))

    @pytest.mark.parametrize("x0", [[0.0, math.nan, 1.0], [0.0, 1.0, -math.inf]])
    def test_non_finite_x0_is_refused(self, x0, recwarn):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InputError, match="x0 must be finite"):
            simulate(g, SyncConfig(t_max=1.0), x0)
        assert not recwarn.list

    def test_x0_shape_mismatch(self):
        cfg = SyncConfig(dt=0.1, t_max=1.0)
        with pytest.raises(InputError):
            simulate(Graph(2, [(0, 1)]), cfg, np.zeros((3, 1)))

    def test_gamma_couples_selected_components(self):
        # only the first state component diffuses; the second stays put
        g = Graph(2, [(0, 1)])
        gamma = np.array([[1.0, 0.0], [0.0, 0.0]])
        cfg = SyncConfig(
            c=1.0, dt=0.01, t_max=4.0, dynamics="zero", state_dim=2,
            inner_coupling=gamma,
        )
        x0 = np.array([[1.0, 1.0], [0.0, -1.0]])
        traj = simulate(g, cfg, x0)
        assert np.allclose(traj.states[-1][:, 0], 0.5, atol=1e-3)
        assert np.array_equal(traj.states[-1][:, 1], x0[:, 1])


def dense_rk4_errors(g, cfg, x0):
    """Sync error series of a dense-matrix RK4 loop."""
    a = coupling_matrix(g)
    f = cfg.resolve_dynamics()
    gamma = np.eye(cfg.state_dim) if cfg.inner_coupling is None else cfg.inner_coupling
    deriv = lambda s: f(s) + cfg.c * (a @ s) @ gamma.T  # noqa: E731
    h, x = cfg.dt, np.array(x0, dtype=np.float64)
    errors = [np.abs(x - x.mean(axis=0)).max()]
    for _ in range(int(round(cfg.t_max / h))):
        k1 = deriv(x)
        k2 = deriv(x + 0.5 * h * k1)
        k3 = deriv(x + 0.5 * h * k2)
        k4 = deriv(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        errors.append(np.abs(x - x.mean(axis=0)).max())
    return np.array(errors)


SPARSE_CASES = [
    "disconnected_with_isolated_node", "two_dim_gamma", "linear_dynamics", "near_identity_gamma"
]


def sparse_case(case):
    """Graph and settings of one named simulate case."""
    if case == "disconnected_with_isolated_node":
        left = generate_er(ERParams(n=30, m=60, seed=1))
        right = generate_er(ERParams(n=20, m=40, seed=2))
        edges = list(left.edges()) + [(u + 30, v + 30) for u, v in right.edges()]
        g = Graph(51, edges)  # node 50 is isolated
        return g, SyncConfig(c=0.7, dt=0.01, t_max=5.0, dynamics="zero")
    if case == "two_dim_gamma":
        g = generate_ba(BAParams(n=200, m=2, seed=3))
        gamma = np.array([[1.0, 0.5], [0.0, 0.3]])
        return g, SyncConfig(c=0.7, dt=0.01, t_max=5.0, dynamics="zero",
                             state_dim=2, inner_coupling=gamma)
    if case == "near_identity_gamma":
        # within allclose's 1e-5 of the identity, and still a different system
        g = generate_ba(BAParams(n=50, m=2, seed=1))
        return g, SyncConfig(c=0.7, dt=0.01, t_max=5.0, dynamics="zero",
                             inner_coupling=np.array([[1.000009]]))
    g = generate_er(ERParams(n=60, m=150, seed=6))
    return g, SyncConfig(c=0.7, dt=0.01, t_max=5.0, dynamics="linear:-0.3")


class TestSparsePath:
    """simulate on the sparse operator against dense and exact references."""

    def test_matches_exact_consensus_solution(self):
        g = generate_ba(BAParams(n=300, m=3, seed=4))
        cfg = SyncConfig(c=0.7, dt=0.01, t_max=4.0, dynamics="zero")
        x0 = np.random.default_rng(5).standard_normal((g.n, 1))
        traj = simulate(g, cfg, x0)
        w, v = np.linalg.eigh(coupling_matrix(g))
        late = traj.times >= 1.0
        modes = np.exp(cfg.c * np.outer(traj.times[late], w)) * (v.T @ x0[:, 0])
        exact = modes @ v.T  # (times, nodes)
        exact_err = np.abs(exact - exact.mean(axis=1, keepdims=True)).max(axis=1)
        np.testing.assert_allclose(traj.sync_error[late], exact_err, rtol=1e-6)

    @pytest.mark.parametrize("case", SPARSE_CASES)
    def test_matches_dense_rk4(self, case):
        g, cfg = sparse_case(case)
        x0 = np.random.default_rng(7).standard_normal((g.n, cfg.state_dim))
        got = simulate(g, cfg, x0).sync_error
        ref = dense_rk4_errors(g, cfg, x0)
        rows = ref > 1e-6 * ref[0]
        assert rows.sum() > 100
        np.testing.assert_allclose(got[rows], ref[rows], rtol=1e-10)

    def test_gamma_near_identity_is_applied(self):
        g, cfg = sparse_case("near_identity_gamma")
        x0 = np.random.default_rng(7).standard_normal((g.n, 1))
        plain = SyncConfig(c=0.7, dt=0.01, t_max=5.0, dynamics="zero")
        got = simulate(g, cfg, x0).sync_error
        assert not np.array_equal(got, simulate(g, plain, x0).sync_error)

    def test_final_state_only_unless_kept(self):
        g = generate_ba(BAParams(n=100, m=2, seed=8))
        cfg = SyncConfig(c=0.7, dt=0.01, t_max=2.0, dynamics="logistic:0.5",
                         state_dim=2)
        x0 = np.random.default_rng(9).random((g.n, 2))
        kept = simulate(g, cfg, x0, keep_states=True)
        lean = simulate(g, cfg, x0)
        assert kept.states.shape == (201, g.n, 2)
        assert lean.states.shape == (1, g.n, 2)
        assert np.array_equal(lean.states[0], kept.states[-1])
        assert np.array_equal(lean.sync_error, kept.sync_error)
        final = lean.states[0]
        assert np.abs(final - final.mean(axis=0)).max() == lean.sync_error[-1]


def allocating_rk4(g, cfg, x0, keep_states=False):
    """RK4 in allocating expressions, with the coupling product through
    scipy's public ``coupling * state``: the reference whose bits simulate
    must give. It guards simulate's direct call of scipy's private CSR
    kernel. Returns the error series and the states (kept, or the last)."""
    coupling = cfg.c * _coupling_operator(g)
    f = cfg.resolve_dynamics()
    gamma = cfg.inner_coupling
    if gamma is not None and np.array_equal(gamma, np.eye(cfg.state_dim)):
        gamma = None

    def deriv(state):
        mixed = coupling * state
        if gamma is not None:
            mixed = mixed @ np.asarray(gamma, dtype=np.float64).T
        return mixed if cfg.dynamics == "zero" else f(state) + mixed

    def max_deviation(state):
        return np.abs(state - state.sum(axis=0) / g.n).max()

    h = cfg.dt
    x = np.array(x0, dtype=np.float64).reshape(g.n, cfg.state_dim)
    states, errors = [x], [max_deviation(x)]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, int(round(cfg.t_max / h)) + 1):
            k1 = deriv(x)
            k2 = deriv(x + 0.5 * h * k1)
            k3 = deriv(x + 0.5 * h * k2)
            k4 = deriv(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            errors.append(max_deviation(x))
            if not math.isfinite(errors[-1]):
                raise DivergenceError("state became non-finite", time=float(step * h))
            states.append(x)
    return np.array(errors), np.array(states if keep_states else states[-1:])


def oracle_case(case):
    """Graph, settings and start state of one bitwise-oracle case."""
    if case == "zero_dynamics_ba300":
        g = generate_ba(BAParams(n=300, m=3, seed=4))
        cfg = SyncConfig(c=0.7, dt=0.01, t_max=4.0, dynamics="zero")
    elif case == "logistic_two_dim":
        g = generate_ba(BAParams(n=100, m=2, seed=8))
        cfg = SyncConfig(c=0.7, dt=0.01, t_max=2.0, dynamics="logistic:0.5", state_dim=2)
        return g, cfg, np.random.default_rng(9).random((g.n, 2))
    else:
        g, cfg = sparse_case(case)
    return g, cfg, np.random.default_rng(7).standard_normal((g.n, cfg.state_dim))


def bits(a):
    """The bit patterns of a float64 array, where -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


def assert_equals_allocating_loop(g, cfg, x0):
    """simulate, with states kept and without, gives allocating_rk4's errors
    and states bit for bit; returns the reference states."""
    errors, states = allocating_rk4(g, cfg, x0, keep_states=True)
    kept = simulate(g, cfg, x0, keep_states=True)
    lean = simulate(g, cfg, x0)
    assert np.array_equal(bits(kept.sync_error), bits(errors))
    assert np.array_equal(bits(lean.sync_error), bits(errors))
    assert np.array_equal(bits(kept.states), bits(states))
    assert np.array_equal(bits(lean.states[0]), bits(states[-1]))
    return states


def count_products(monkeypatch):
    """The list to which every coupling product that simulate makes adds one
    entry."""
    calls = []

    def counted(name):
        kernel = getattr(_sparsetools, name)

        def call(*args):
            calls.append(name)
            return kernel(*args)
        return call

    monkeypatch.setattr(synchronization, "_sparsetools", SimpleNamespace(
        csr_matvec=counted("csr_matvec"), csr_matvecs=counted("csr_matvecs")))
    return calls


def period_two_case(t_max):
    """two_dim_gamma at c=6, whose state alternates between two values bit
    for bit from step 2953 on, and whose error then repeats every step."""
    g, cfg, x0 = oracle_case("two_dim_gamma")
    return g, dataclasses.replace(cfg, c=6.0, t_max=t_max), x0


# settings under which each case reaches, well before t=40, a step that
# returns its input bit for bit; all but BA(300) start from uniform draws
FIXED_POINT_CASES = {
    "zero_dynamics_ba300": {},
    "two_dim_gamma": {"c": 8.0},
    "disconnected_with_isolated_node": {"c": 2.0, "state_dim": 2},
    "logistic_two_dim": {"dynamics": "logistic:1.5"},
}


class TestBitwiseOracle:
    """simulate's preallocated stepper gives the allocating loop's bits."""

    @pytest.mark.parametrize(
        "case", ["zero_dynamics_ba300", *SPARSE_CASES, "logistic_two_dim"]
    )
    def test_equals_allocating_loop(self, case):
        assert_equals_allocating_loop(*oracle_case(case))

    @pytest.mark.parametrize("case", FIXED_POINT_CASES)
    def test_equals_allocating_loop_past_fixed_point(self, case):
        g, cfg, x0 = oracle_case(case)
        cfg = dataclasses.replace(cfg, t_max=40.0, **FIXED_POINT_CASES[case])
        if case != "zero_dynamics_ba300":
            x0 = np.random.default_rng(9).random((g.n, cfg.state_dim))
        states = assert_equals_allocating_loop(g, cfg, x0)
        # the reference ends on a repeated state, so simulate stopped early
        assert np.array_equal(bits(states[-1]), bits(states[-2]))

    def test_signed_zero_start(self):
        # -0.0 at every third node, which the first step turns into +0.0;
        # the error is 0 throughout, so the gate compares from step 2 on
        g, cfg = sparse_case("disconnected_with_isolated_node")
        x0 = np.zeros((g.n, 1))
        x0[::3] = -0.0
        states = assert_equals_allocating_loop(g, dataclasses.replace(cfg, t_max=1.0), x0)
        assert np.signbit(states[0]).any() and not np.signbit(states[1:]).any()

    @pytest.mark.parametrize(
        "g, cfg, x0, converges",
        [
            (generate_ba(BAParams(n=300, m=3, seed=4)),
             SyncConfig(c=0.7, dt=0.01, t_max=40.0, dynamics="zero"),
             np.random.default_rng(7).standard_normal((300, 1)), True),
            (generate_er(ERParams(n=49, m=351, seed=3)),
             SyncConfig(c=1.0, dt=0.01, t_max=4.0, dynamics="zero"),
             np.random.default_rng(7).standard_normal((49, 1)), False),
        ],
        ids=["ba300-converges", "er49-never-repeats"],
    )
    def test_exit_skips_only_steps_after_a_fixed_point(self, monkeypatch, g, cfg, x0,
                                                        converges):
        calls = count_products(monkeypatch)
        traj = simulate(g, cfg, x0, keep_states=True)
        steps = len(traj.times) - 1
        same = (bits(traj.states[1:]) == bits(traj.states[:-1])).all(axis=(1, 2))
        if not converges:
            assert not same.any() and len(calls) == 4 * steps
            return
        # a state repeats first at step s; its error repeats too, so step s
        # compares it with the state of the step before and stops
        first = int(np.argmax(same)) + 1
        assert same[first - 1:].all()
        assert len(calls) == 4 * first < 4 * steps

    @pytest.mark.parametrize("t_max", [59.99, 60.0])
    def test_equals_allocating_loop_past_period_two_cycle(self, t_max):
        # an odd and an even number of steps after the cycle is found
        g, cfg, x0 = period_two_case(t_max)
        states = assert_equals_allocating_loop(g, cfg, x0)
        assert np.array_equal(bits(states[-1]), bits(states[-3]))
        assert not np.array_equal(bits(states[-1]), bits(states[-2]))

    @pytest.mark.parametrize("t_max", [9.0, 10.0])
    def test_equals_allocating_loop_on_alternating_errors(self, t_max):
        # without edges each node follows f alone: nodes 0 and 1 step from
        # -1 to 0 and back, bit for bit at dt=1, and node 2 rests at -20, so
        # the error alternates between two values from the first step on
        def f(x):
            return np.where(x > 0.0, -3.0, np.where(x > -10.0, 1.0, 0.0))

        g, cfg = Graph(3), SyncConfig(c=1.0, dt=1.0, t_max=t_max, dynamics=f)
        x0 = np.array([-1.0, -1.0, -20.0])
        states = assert_equals_allocating_loop(g, cfg, x0)
        errors = allocating_rk4(g, cfg, x0)[0]
        assert errors[-1] == errors[-3] != errors[-2]
        assert np.array_equal(bits(states[-1]), bits(states[-3]))

    def test_exit_fires_two_steps_into_a_period_two_cycle(self, monkeypatch):
        g, cfg, x0 = period_two_case(60.0)
        states = allocating_rk4(g, cfg, x0, keep_states=True)[1]
        same = (bits(states[2:]) == bits(states[:-2])).all(axis=(1, 2))
        first = int(np.argmax(same))  # x(first + 2) == x(first), and on
        assert same[first:].all() and first == 2953
        calls = count_products(monkeypatch)
        simulate(g, cfg, x0)
        # step first + 2 repeats the error and the state of two steps before,
        # and no step follows it
        assert len(calls) == 4 * (first + 2)

    def test_period_three_cycle_runs_every_step(self, monkeypatch):
        # without edges each node follows f alone; at dt=1 the step maps 2 to
        # 11/6, 11/6 to 0.5 and 0.5 to 2, and each node starts at one phase of
        # that 3-cycle, so the error repeats at every step while no state
        # equals either of the two before it
        # f(x) = table[floor(x) + 4] on [-4, 4), and the last entry, 0, elsewhere
        table = np.array([5.0, -1.0, 5.0, 4.0, 3.0, -4.0, 3.0, -6.0, 0.0])

        def f(x):
            cell = np.floor(x) + 4.0
            return table[np.where((cell >= 0.0) & (cell < 8.0), cell, 8.0).astype(int)]

        g, cfg = Graph(3), SyncConfig(c=1.0, dt=1.0, t_max=12.0, dynamics=f)
        x0 = np.array([2.0, 11.0 / 6.0, 0.5])
        states = assert_equals_allocating_loop(g, cfg, x0)
        errors = allocating_rk4(g, cfg, x0)[0]
        assert (errors[1:] == errors[0]).all()
        assert not (bits(states[1:]) == bits(states[:-1])).all(axis=(1, 2)).any()
        assert not (bits(states[2:]) == bits(states[:-2])).all(axis=(1, 2)).any()
        assert np.array_equal(bits(states[3:]), bits(states[:-3]))
        calls = count_products(monkeypatch)
        simulate(g, cfg, x0)
        assert len(calls) == 4 * 12

    @settings(max_examples=20, deadline=None)
    @given(
        graphs(max_n=40),
        st.sampled_from(["zero", "linear:-0.3", "logistic:1.5"]),
        st.sampled_from([0.7, 2.0]),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_drawn_runs_equal_allocating_loop(self, g, dynamics, c, dim, t_max, seed):
        cfg = SyncConfig(c=c, dt=0.01, t_max=float(t_max), dynamics=dynamics, state_dim=dim)
        assert_equals_allocating_loop(g, cfg, np.random.default_rng(seed).random((g.n, dim)))

    @pytest.mark.parametrize(
        "g, cfg",
        [
            (complete(3), SyncConfig(c=1.0, dt=1.0, t_max=50.0, dynamics="logistic:4.0")),
            (generate_ba(BAParams(n=300, m=3, seed=4)),
             SyncConfig(c=1.0, dt=0.1, t_max=1.0, dynamics="linear:1e10")),
        ],
        ids=["logistic", "linear-overflow"],
    )
    def test_divergence_time_equals_allocating_loop(self, g, cfg):
        x0 = np.linspace(-40.0, 50.0, g.n)
        with pytest.raises(DivergenceError) as ref:
            allocating_rk4(g, cfg, x0)
        with pytest.raises(DivergenceError) as got:
            simulate(g, cfg, x0)
        assert got.value.time == ref.value.time


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0},
            {"dt": 0.5, "t_max": 0.2},
            {"c": 0.0},
            {"state_dim": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        cfg = SyncConfig(**{"dt": 0.01, "t_max": 1.0, **kwargs})
        with pytest.raises(InputError):
            cfg.validate()

    @pytest.mark.parametrize("t_max, dt", [(1.0, 0.6), (1.0, 0.7), (2.0, 0.03), (5.0, 0.011)])
    def test_t_max_must_be_whole_steps(self, t_max, dt):
        cfg = SyncConfig(dt=dt, t_max=t_max)
        named = f"whole number of dt steps, got t_max={t_max}, dt={dt}"
        with pytest.raises(InputError, match=named):
            cfg.validate()

    @pytest.mark.parametrize(
        "t_max, dt",
        [(2.0, 0.04), (2.0, 0.05), (1.0, 0.1), (0.3, 0.1), (5.0, 0.01), (50.0, 0.01), (60.0, 0.01)],
    )
    def test_t_max_in_whole_steps_accepted(self, t_max, dt):
        SyncConfig(dt=dt, t_max=t_max).validate()

    @pytest.mark.parametrize("name", ["c", "dt", "t_max"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, name, value):
        cfg = SyncConfig(**{"dt": 0.01, "t_max": 1.0, name: value})
        with pytest.raises(InputError, match=f"^{name} must be finite"):
            cfg.validate()

    @pytest.mark.parametrize(
        "kwargs", [{"t_max": 1e15}, {"dt": 1e-300}, {"dt": 5e-324}]
    )
    def test_step_arrays_must_fit_in_memory(self, kwargs):
        cfg = SyncConfig(**{"dt": 0.01, "t_max": 1.0, **kwargs})
        with pytest.raises(InputError, match="bytes"):
            cfg.validate()

    def test_rk4_working_set_must_fit_in_memory(self):
        # one state is a tenth of physical memory; besides the stored state
        # the stepper holds 12: the 3 slots of its ring of states, the 4
        # stages, tmp, acc and up to 3 temporaries of f or Gamma
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        with pytest.raises(InputError, match="bytes"):
            SyncConfig(dt=0.1, t_max=1.0).validate(n=memory // 80)

    def test_kept_states_must_fit_in_memory(self):
        # 1e6 steps: 16 MB of times and errors, 80 TB with every state kept
        cfg = SyncConfig(dt=1e-4, t_max=100.0)
        cfg.validate(n=10**7)
        with pytest.raises(InputError, match="bytes"):
            cfg.validate(n=10**7, keep_states=True)

    def test_inner_coupling_shape_checked(self):
        cfg = SyncConfig(dt=0.01, t_max=1.0, state_dim=2, inner_coupling=np.eye(3))
        with pytest.raises(InputError):
            cfg.validate()


class TestDecayFit:
    def test_recovers_synthetic_slope(self):
        t = np.linspace(0.0, 5.0, 200)
        e = 3.0 * np.exp(-1.7 * t)
        assert fit_decay_rate(t, e, 1.0, 4.0) == pytest.approx(1.7, abs=1e-9)

    def test_window_too_small(self):
        with pytest.raises(InputError):
            fit_decay_rate(np.array([0.0, 1.0]), np.array([1.0, 0.5]), 5.0, 6.0)
