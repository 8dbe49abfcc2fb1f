"""Coupled-dynamics analysis on a graph.

The coupling matrix is the adjacency matrix with its diagonal replaced by
the negated degrees (equivalently, the negated graph Laplacian), so every
row sums to zero and the all-ones vector is an equilibrium direction. A
synchronized state is exponentially stable when the spectrum is 0 =
lambda_1 > lambda_2 with a clear gap (from a dense eigensolve up to
DENSE_EIGEN_N nodes, and a sparse shift-invert solve above); the simulator
integrates, on the sparse coupling operator (scipy CSR),

    dx_i/dt = f(x_i) + c * sum_j a_ij * Gamma @ (x_j - x_i)

with a fixed-step RK4 scheme and tracks the worst-case deviation from the
state mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .errors import DivergenceError, InputError, NumericalError, check_memory
from .graph import Graph, connected_components

# the largest graph with a spectral report: nothing checks the fill of the
# sparse LU factor against memory, and the factor grows fast beyond this
MAX_EIGEN_N = 5000
# the largest graph whose spectrum comes from a dense eigensolve: up to here
# dense is the faster method and its bits do not depend on the BLAS thread
# count, which they do from a few hundred nodes on
DENSE_EIGEN_N = 200
# the shift that makes the Laplacian invertible in the sparse solve
SHIFT = 1e-3
# minus the end of RK4's stability interval on the negative real axis: the
# real root of z^3 + 4 z^2 + 12 z + 24 = 0, where |R(-z)| = 1 for RK4's
# R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, and |R| > 1 beyond it
RK4_REAL_LIMIT = 2.785293563405289

Dynamics = Callable[[np.ndarray], np.ndarray]


def _coupling_operator(g: Graph) -> sparse.csr_matrix:
    """Sparse coupling matrix: a_ij = 1 on edges, a_ii = -k_i. Every entry is
    a small integer, exact in float64, so row sums are exactly zero."""
    degrees = np.diff(g.matrix.indptr).astype(np.float64)
    return (g.matrix - sparse.diags(degrees)).tocsr()


@dataclass(frozen=True)
class SpectralReport:
    lambda1: float
    lambda2: float
    gap: float
    stable: bool
    zero_multiplicity: int
    closeness_threshold: float


def _algebraic_connectivity(g: Graph) -> float:
    """lambda_2 of the Laplacian L of a connected graph, without a dense matrix.

    Lanczos (ARPACK) finds the largest eigenvalue theta of P (L + s I)^-1 P,
    where P removes the mean and s = SHIFT, through a sparse LU factor of
    L + s I whose fill-reducing order is that of L's pattern. P maps the
    all-ones direction to 0, so theta = 1 / (lambda_2 + s). The start vector
    is fixed, so the result is the same bits on every call."""
    from scipy.sparse import linalg

    degrees = np.diff(g.matrix.indptr).astype(np.float64)
    shifted = (sparse.diags(degrees + SHIFT) - g.matrix).tocsc()
    try:
        lu = linalg.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise NumericalError(f"sparse factor of the shifted Laplacian failed: {exc}") from exc

    def solve(v: np.ndarray) -> np.ndarray:
        y = lu.solve(v - v.mean())
        return y - y.mean()

    operator = linalg.LinearOperator(shifted.shape, matvec=solve, dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(g.n)
    try:
        theta = linalg.eigsh(operator, k=1, which="LA", tol=0, v0=v0 - v0.mean(),
                             return_eigenvectors=False)[0]
    except linalg.ArpackNoConvergence as exc:
        raise NumericalError(f"lambda_2 eigensolver did not converge: {exc}") from exc
    return float(1.0 / theta - SHIFT)


def spectral_stability(g: Graph) -> SpectralReport:
    """lambda_1 and lambda_2 of the coupling matrix, and whether the
    synchronized state is stable.

    lambda_1 is exactly 0, since every row sums to exactly 0, and lambda_2
    is exactly 0 on a disconnected graph, with no eigensolve. On a connected
    graph lambda_2 comes, up to DENSE_EIGEN_N nodes, from a full symmetric
    eigensolve of the dense matrix (LAPACK through numpy.linalg.eigvalsh),
    and above it, with no dense matrix built, it is minus the algebraic
    connectivity from a sparse shift-invert solve, refused above
    MAX_EIGEN_N nodes. The zero multiplicity is the number of connected
    components.

    Stable means that the gap clears the closeness threshold, fixed at
    0.1 * max(1, mean degree) and reported; as that is at least 0.1, a
    stable graph is connected.
    """
    if g.n < 2:
        raise InputError("spectral stability needs at least 2 nodes")
    threshold = 0.1 * max(1.0, 2.0 * g.m / g.n)
    components = connected_components(g).count
    lam1 = 0.0
    if components > 1:
        lam2 = 0.0
    elif g.n <= DENSE_EIGEN_N:
        try:
            lam2 = float(np.linalg.eigvalsh(_coupling_operator(g).toarray())[-2])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    elif g.n > MAX_EIGEN_N:
        raise InputError(
            f"spectral stability limited to n <= {MAX_EIGEN_N}, got {g.n}"
        )
    else:
        lam2 = -_algebraic_connectivity(g)
    return SpectralReport(
        lambda1=lam1,
        lambda2=lam2,
        gap=lam1 - lam2,
        stable=-lam2 >= threshold,
        zero_multiplicity=components,
        closeness_threshold=threshold,
    )


# -- node dynamics ----------------------------------------------------------------


def _no_dynamics(x: np.ndarray) -> np.ndarray:
    return np.zeros_like(x)


def _parse_dynamics(spec: str) -> tuple[str, float | None]:
    """The name of a dynamics spec and its parameter: 'zero' takes none, and
    'linear:A' and 'logistic:R' take one finite number. Any other form is an
    input error that names the spec."""
    name, colon, arg = spec.strip().partition(":")
    name = name.strip()
    if name not in ("linear", "logistic", "zero"):
        raise InputError(f"unknown dynamics {spec!r}; known: linear, logistic, zero")
    if not colon:
        if name != "zero":
            raise InputError(
                f"dynamics {spec!r}: {name!r} needs a parameter, e.g. {name}:0.5"
            )
        return name, None
    try:
        value = float(arg)
    except ValueError:
        raise InputError(
            f"dynamics {spec!r}: parameter {arg.strip()!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise InputError(f"dynamics {spec!r}: parameter must be finite, got {value}")
    if name == "zero":
        raise InputError(f"dynamics {spec!r}: {name!r} takes no parameter")
    return name, value


def make_dynamics(spec: str) -> Dynamics:
    """The node dynamics f of a spec: 'zero', 'linear:A' (f(x) = A x) or
    'logistic:R' (f(x) = R x (1 - x))."""
    name, value = _parse_dynamics(spec)
    if name == "linear":
        return lambda x: value * x
    if name == "logistic":
        return lambda x: value * x * (1.0 - x)
    return _no_dynamics


@dataclass
class SyncConfig:
    """Simulation settings for the coupled state equation."""

    c: float = 1.0
    dt: float = 0.01
    t_max: float = 10.0
    state_dim: int = 1
    dynamics: str | Dynamics = "zero"
    inner_coupling: np.ndarray | None = None

    def validate(self, n: int = 0, keep_states: bool = False) -> None:
        """Check the settings, and that the arrays ``simulate`` allocates
        for ``n`` nodes fit in physical memory."""
        for name in ("c", "dt", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0:
            raise InputError(f"dt must be positive, got {self.dt}")
        if self.t_max <= self.dt:
            raise InputError(f"t_max must exceed dt, got t_max={self.t_max}")
        if self.c <= 0:
            raise InputError(f"coupling strength must be positive, got {self.c}")
        if self.state_dim < 1:
            raise InputError(f"state_dim must be >= 1, got {self.state_dim}")
        if self.inner_coupling is not None:
            gamma = np.asarray(self.inner_coupling)
            if gamma.shape != (self.state_dim, self.state_dim):
                raise InputError(
                    f"inner coupling must be {self.state_dim}x{self.state_dim}, "
                    f"got shape {gamma.shape}"
                )
        steps = self.t_max / self.dt
        # times and errors; kept states (or the last); the stepper's working
        # set of 12 states: the 3 slots of its ring of states, the 4 stages,
        # tmp, acc, and at most 3 temporaries at a time, those of f (logistic
        # holds r*x, 1-x and their product), which outnumber Gamma's one copy
        rows = steps + 1.0
        floats = 2.0 * rows + n * self.state_dim * ((rows if keep_states else 1.0) + 12)
        check_memory(8.0 * floats, f"{steps:.6g} steps of {n} nodes")
        # after the memory check, which refuses an infinite step count
        if not math.isclose(steps, round(steps), rel_tol=1e-9):
            raise InputError(
                f"t_max must be a whole number of dt steps, got t_max={self.t_max}, dt={self.dt}"
            )

    def resolve_dynamics(self) -> Dynamics:
        if callable(self.dynamics):
            return self.dynamics
        return make_dynamics(self.dynamics)


@dataclass
class SyncTrajectory:
    times: np.ndarray
    states: np.ndarray  # (steps + 1 if kept else 1, n_nodes, state_dim)
    sync_error: np.ndarray


def _refuse_unstable_step(g: Graph, cfg: SyncConfig) -> None:
    """Refuse a step size at which RK4 makes a mode grow that decays in
    exact arithmetic, judged from the largest degree alone.

    For dynamics f(x) = A x ('linear:A', and 'zero' with A = 0) and no
    Gamma, each mode of the system is z = A - c * lambda_i over the
    Laplacian eigenvalues lambda_i, the largest of which is at least the
    largest degree plus 1 on a graph with an edge (Grone & Merris, SIAM J.
    Discrete Math. 7, 221, 1994). So when dt * (c * (max degree + 1) - A)
    exceeds RK4_REAL_LIMIT, that mode has z < 0 and |R(dt z)| > 1: every
    refusal is exact. Other dynamics, and steps this bound does not
    settle, run as they are."""
    name, value = _parse_dynamics(cfg.dynamics)
    if name == "logistic":
        return
    rate = 0.0 if value is None else value
    max_degree = int(np.diff(g.matrix.indptr).max())
    reach = cfg.c * (max_degree + 1) - rate
    if cfg.dt * reach > RK4_REAL_LIMIT:
        raise InputError(
            f"dt*(c*(max degree+1) - A) = {cfg.dt * reach:.6g} (max degree {max_degree}, "
            f"A = {rate:g}) exceeds RK4's stability limit {RK4_REAL_LIMIT:.5g}, so a "
            f"decaying mode would grow at every step; dt must be at most "
            f"{RK4_REAL_LIMIT:.5g}/(c*(max degree+1) - A) = {RK4_REAL_LIMIT / reach:.6g}"
        )


def simulate(
    g: Graph, cfg: SyncConfig, x0: np.ndarray, keep_states: bool = False
) -> SyncTrajectory:
    """Integrate with fixed-step RK4, recording the per-step worst-case deviation
    from the state mean; every step's state is kept only for ``keep_states``.

    The run stops early, with exact results, at the first step that returns,
    bit for bit, the state of one step before (a fixed point) or of two
    steps before (a cycle of period 2): a step reads nothing but the state,
    so every later step would repeat it, and the rest of the error series
    (and of the kept states) repeats the last one or two. A callable
    ``cfg.dynamics`` must therefore be a function of the state alone. An
    ``x0`` that is not finite, or whose step-0 error overflows, is refused."""
    if g.n == 0:
        raise InputError("simulation needs at least 1 node")
    cfg.validate(g.n, keep_states)
    x = np.array(x0, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape != (g.n, cfg.state_dim):
        raise InputError(f"x0 must have shape ({g.n}, {cfg.state_dim}), got {x.shape}")
    if not np.isfinite(x).all():
        node = int(np.nonzero(~np.isfinite(x))[0][0])
        raise InputError(f"x0 must be finite, got {x[node].tolist()} at node {node}")
    f = cfg.resolve_dynamics()
    # Gamma^T, or None for no Gamma or an exact identity; a Gamma merely
    # close to the identity is a different system and is applied
    gamma_t = None
    gamma = cfg.inner_coupling
    if gamma is not None and not np.array_equal(gamma, np.eye(cfg.state_dim)):
        gamma_t = np.asarray(gamma, dtype=np.float64).T
    if gamma_t is None and g.m and isinstance(cfg.dynamics, str):
        _refuse_unstable_step(g, cfg)
    coupling = cfg.c * _coupling_operator(g)
    n, dim = x.shape
    tmp = np.empty((n, dim))
    centre = np.empty(dim)
    count = np.float64(n)

    def max_deviation(state: np.ndarray) -> np.float64:
        # into centre and tmp, which hold nothing between steps; the column
        # sums over count are bitwise state.mean(axis=0)
        np.add.reduce(state, axis=0, out=centre)
        np.divide(centre, count, out=centre)
        np.subtract(state, centre, out=tmp)
        return np.maximum.reduce(np.abs(tmp, out=tmp), axis=None)

    steps = int(round(cfg.t_max / cfg.dt))
    times = np.arange(steps + 1) * cfg.dt
    states = np.empty((steps + 1 if keep_states else 1, n, dim))
    states[0] = x
    errors = np.empty(steps + 1)
    h = cfg.dt

    # Every step reuses these buffers. The coupling product calls the CSR
    # kernel that `coupling * state` reaches (csr_matvec for one column,
    # csr_matvecs for several), which adds each row's products in CSR order
    # to the zero it finds in its output; every other operation is one that
    # the allocating RK4 expression evaluates, in its order, so the outputs
    # are that expression's bits. The kernel reads a C-ordered state, which
    # every slot of the ring is: ring[s % 3] holds x(s), and step s reads
    # the slot of x(s - 1) and writes x(s) over that of x(s - 3), so the
    # states of the two steps before stay in place without a copy.
    ring = np.empty((3, n, dim))
    ring[0] = x
    # each slot as a state, its flat view and its bit patterns
    slots = list(zip(ring, ring.reshape(3, -1), ring.view(np.uint64)))
    ks = np.empty((4, n, dim))
    acc = np.empty((n, dim))
    k1, k2, k3, k4 = ks
    k1_flat, k2_flat, k3_flat, k4_flat = ks.reshape(4, -1)
    tmp_flat = tmp.reshape(-1)
    csr = (coupling.indptr, coupling.indices, coupling.data)
    if dim == 1:
        product = partial(_sparsetools.csr_matvec, n, n, *csr)
    else:
        product = partial(_sparsetools.csr_matvecs, n, n, dim, *csr)

    def deriv(state: np.ndarray, state_flat: np.ndarray,
              out: np.ndarray, out_flat: np.ndarray) -> None:
        # out must hold zeros: the kernel adds the product to it
        product(state_flat, out_flat)
        if gamma_t is not None:
            np.matmul(out, gamma_t, out=out)
        if f is not _no_dynamics:
            np.add(f(state), out, out=out)

    # The step map reads x alone: ks, tmp, acc and centre are rewritten
    # before they are read, Gamma and the coupling are fixed, and f takes no
    # t. So once a step returns the state of one or of two steps before, bit
    # for bit, every later step repeats that state or that pair of states,
    # and the loop stops there. Such a step repeats that step's error, so
    # only then are the slots compared, by bit pattern, where -0.0 and +0.0
    # differ. The error before step 1 is nan, which equals no error.
    before = math.nan

    # overflow on the way to divergence is reported via DivergenceError,
    # not as a numpy warning; a non-finite state gives a non-finite error
    with np.errstate(over="ignore", invalid="ignore"):
        errors[0] = previous = float(max_deviation(x))
        if not math.isfinite(previous):
            raise InputError("x0 overflows float64 in a column sum or a deviation from the mean")
        for step in range(1, steps + 1):
            x, x_flat, x_bits = slots[(step - 1) % 3]
            new, _, new_bits = slots[step % 3]
            # new <- x + (h/6) * (((k1 + 2 k2) + 2 k3) + k4)
            ks.fill(0.0)
            deriv(x, x_flat, k1, k1_flat)
            np.add(x, np.multiply(k1, 0.5 * h, out=tmp), out=tmp)
            deriv(tmp, tmp_flat, k2, k2_flat)
            np.add(x, np.multiply(k2, 0.5 * h, out=tmp), out=tmp)
            deriv(tmp, tmp_flat, k3, k3_flat)
            np.add(x, np.multiply(k3, h, out=tmp), out=tmp)
            deriv(tmp, tmp_flat, k4, k4_flat)
            np.add(k1, np.multiply(k2, 2.0, out=acc), out=acc)
            np.add(acc, np.multiply(k3, 2.0, out=tmp), out=acc)
            np.add(acc, k4, out=acc)
            np.add(x, np.multiply(acc, h / 6.0, out=acc), out=new)
            errors[step] = error = float(max_deviation(new))
            if not math.isfinite(error):
                raise DivergenceError(
                    f"state became non-finite at t={times[step]:.6g}",
                    time=float(times[step]),
                )
            if keep_states:
                states[step] = new
            if ((error == previous and np.array_equal(new_bits, x_bits))
                    or (error == before and np.array_equal(new_bits, slots[(step - 2) % 3][2]))):
                # from here the state alternates with the previous one, which
                # is itself when the step returned its input
                errors[step + 1::2] = previous
                errors[step + 2::2] = error
                if keep_states:
                    states[step + 1::2] = states[step - 1]
                    states[step + 2::2] = new
                break
            before, previous = previous, error
    if not keep_states:
        # the state at t_max: that of this step, or of the one before
        states[0] = ring[(step - (steps - step) % 2) % 3]
    return SyncTrajectory(times, states, errors)


def fit_decay_rate(
    times: np.ndarray,
    errors: np.ndarray,
    t_start: float,
    t_end: float,
) -> float:
    """Exponential decay rate of an error series over [t_start, t_end],
    from a least-squares line through log(error)."""
    times = np.asarray(times, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    mask = (times >= t_start) & (times <= t_end) & (errors > 0)
    if mask.sum() < 2:
        raise InputError("decay window contains fewer than 2 usable points")
    slope, _ = np.polyfit(times[mask], np.log(errors[mask]), deg=1)
    return float(-slope)
