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
from functools import cache, partial
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
# the largest n * state_dim at which a step linear in the state runs as one
# CSR kernel call (the chain, see simulate): the largest n * state_dim in the
# table below at which the chain wins every case. Above it numpy's SIMD
# ufuncs beat the kernel's scalar rows. scripts/rk4_step_times.py,
# microseconds per step, 500 steps of linear:-0.3, best of 11, one BLAS
# thread, on a 2-core x86-64 machine:
#   graph            dim  stage loop  chain  chain/loop
#   ER(49, 351)        1        24.3    9.9     0.41
#   ER(49, 351)        2        29.8   16.0     0.53
#   BA(49, 3)          1        22.4    8.9     0.40
#   BA(49, 3)          2        25.7   13.2     0.51
#   ER(200, 1433)      1        32.1   18.3     0.57
#   ER(200, 1433)      2        53.7   47.9     0.89
#   BA(200, 3)         1        28.8   15.7     0.55
#   BA(200, 3)         2        43.2   33.3     0.77
#   ER(500, 3582)      1        45.1   38.0     0.84
#   ER(500, 3582)      2       102.4  108.1     1.06
#   BA(500, 3)         1        34.7   29.1     0.84
#   BA(500, 3)         2        69.4   71.7     1.03
#   ER(1000, 7163)     1        80.3   83.3     1.04
#   ER(1000, 7163)     2       185.7  217.3     1.17
#   BA(1000, 3)        1        50.6   47.9     0.95
#   BA(1000, 3)        2       128.5  150.5     1.17
RK4_CHAIN_SIZE = 500

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

    def validate(self, n: int = 1, keep_states: bool = False) -> None:
        """Check the settings for a run on ``n`` nodes, and that the arrays
        ``simulate`` allocates for them fit in physical memory."""
        if n < 1:
            raise InputError("simulation needs at least 1 node")
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
        what = f"{steps:.6g} steps of {n} nodes"
        if math.isinf(steps):
            check_memory(math.inf, what)
        # in integers, which no count overflows: times and errors; kept states
        # (or the last); the stage loop's working set of 11 states: the 2
        # slots of its ring of states, the 4 stages, tmp, acc, and at most 3
        # temporaries of f (logistic holds r*x, 1-x and their product). The
        # chain holds Z's 10 blocks and 1 cell beside x and tmp, and its
        # matrix of at most 8m + 24n entries; it runs only up to
        # RK4_CHAIN_SIZE numbers in a state, where that is under 13 MB
        rows = round(steps) + 1
        kept = rows if keep_states else 1
        check_memory(8 * (2 * rows + n * self.state_dim * (kept + 11)), what)
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


def _kernel(rows: int, dim: int, indptr: np.ndarray, indices: np.ndarray,
            data: np.ndarray) -> Callable[[np.ndarray, np.ndarray], None]:
    """y += A x for a square CSR matrix A and ``dim`` columns (the flat views
    of C-ordered (rows, dim) arrays), through the kernel that scipy's own
    sparse product calls: csr_matvec for one column, csr_matvecs for more.
    Row by row, in CSR order, it adds each product a * x to the value it
    finds in y."""
    if dim == 1:
        return partial(_sparsetools.csr_matvec, rows, rows, indptr, indices, data)
    return partial(_sparsetools.csr_matvecs, rows, rows, dim, indptr, indices, data)


@cache
def _kernel_chains_rows(dim: int) -> bool:
    """Whether the kernel for ``dim`` columns does what the chain in
    ``simulate`` needs: one call reads the rows it wrote earlier, and it
    rounds each product a * x before it adds it (no fused multiply-add).

    With b = 1 + 2**-30 and a = -fl(b * b), row 0 copies b from row 2, and
    row 1 adds b times row 0 to its a. Row 1 ends at +0.0 when the product
    is rounded, at 2**-60 when it is fused, and at a when row 0 is read as
    it was before the call (-0.0)."""
    b = 1.0 + 2.0**-30
    a = -(b * b)
    z = np.repeat([-0.0, a, b], dim)
    _kernel(3, dim, np.array([0, 1, 2, 2], dtype=np.int32), np.array([2, 0], dtype=np.int32),
            np.array([1.0, b]))(z, z)
    return np.array_equal(z.view(np.uint64), np.repeat([b, 0.0, b], dim).view(np.uint64))


def _chain_matrix(
    coupling: sparse.csr_matrix, h: float, rate: float | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """indptr, indices and data of the matrix whose one product over Z makes
    an RK4 step of f(x) = rate * x (no f for None) with no Gamma.

    Z holds 10 blocks of n rows, in this order: k1, t1 = x + (h/2) k1, k2,
    t2 = x + (h/2) k2, k3, t3 = x + h k3, k4, acc = k1 + 2 k2 + 2 k3 + k4,
    prev = x and the state x, and then one cell that holds +0.0. Row i of a
    k block adds the cell, row i of the coupling on the block before it
    (the state, for k1) and rate times that block's row i; acc's row adds
    its terms in that order, and the state's adds (h/6) acc to itself."""
    n = coupling.shape[0]
    node = np.arange(n)
    cell = 10 * n
    rows, cols, values = [], [], []

    def add(block, row, col, value):
        rows.append(block * n + row)
        cols.append(np.broadcast_to(col, row.shape))
        values.append(np.broadcast_to(value, row.shape))

    coupled = np.repeat(node, np.diff(coupling.indptr))
    for k, source in ((0, 9), (2, 1), (4, 3), (6, 5)):
        add(k, node, cell, 1.0)
        add(k, coupled, source * n + coupling.indices, coupling.data)
        if rate is not None:
            add(k, node, source * n + node, rate)
    for t, k, factor in ((1, 0, 0.5 * h), (3, 2, 0.5 * h), (5, 4, h)):
        add(t, node, 9 * n + node, 1.0)
        add(t, node, k * n + node, factor)
    for k, weight in ((0, 1.0), (2, 2.0), (4, 2.0), (6, 1.0)):
        add(7, node, k * n + node, weight)
    add(8, node, 9 * n + node, 1.0)
    add(9, node, 7 * n + node, h / 6.0)
    rows = np.concatenate(rows)
    # a stable sort by row keeps each row's entries in the order added
    order = np.argsort(rows, kind="stable")
    counts = np.bincount(rows, minlength=cell + 1)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    return indptr, np.concatenate(cols)[order].astype(np.int32), np.concatenate(values)[order]


def simulate(
    g: Graph, cfg: SyncConfig, x0: np.ndarray, keep_states: bool = False
) -> SyncTrajectory:
    """Integrate with fixed-step RK4, recording the per-step worst-case deviation
    from the state mean; every step's state is kept only for ``keep_states``.

    A step that is linear in the state ('zero' or 'linear:A' dynamics, with
    no Gamma or an exact identity) on at most RK4_CHAIN_SIZE numbers runs
    as one call of the CSR kernel (the chain), when the kernel passes
    ``_kernel_chains_rows``; every other step runs its stages one by one.
    Both make the roundings of the allocating RK4 expression in its order,
    so both give its bits.

    The run stops early, with exact results, at the first step that returns
    its input bit for bit (a fixed point): a step reads nothing but the
    state, so every later step would return it too, and the rest of the
    error series (and of the kept states) repeats the last one. A callable
    ``cfg.dynamics`` must therefore be a function of the state alone. An
    ``x0`` that is not finite, or whose step-0 error overflows, is refused."""
    cfg.validate(g.n, keep_states)
    x = np.array(x0, dtype=np.float64, order="C")
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
    name, rate = _parse_dynamics(cfg.dynamics) if isinstance(cfg.dynamics, str) else (None, None)
    # Each step returns the new state, and the bit patterns of the new state
    # and of its input. Both paths reuse their buffers, and their products
    # call the CSR kernel that `coupling * state` reaches; every other
    # operation, in the kernel or in numpy, is one that the allocating RK4
    # expression evaluates, in its order, so the outputs are its bits.
    if (name in ("zero", "linear") and gamma_t is None and n * dim <= RK4_CHAIN_SIZE
            and _kernel_chains_rows(dim)):
        # The chain: one product over Z (see _chain_matrix), whose x and y
        # are both Z. The kernel sets each row to the sum, in CSR order, of
        # the value it finds there and the row's products a * x, and a row
        # reads only rows written before it in the same call. The first 9
        # blocks are set to -0.0 first, and -0.0 + v = v for every v, so
        # each row's first term is exact. A k row's first term is the cell's
        # +0.0, the zero that the stage loop's product adds to; its last,
        # for 'linear:A', is fl(A x_i), which f(x) + product adds in the
        # other order, with the same result. The weights 1 and 2 are exact.
        # The state row starts from the state and adds (h/6) acc, in place,
        # as nothing after it reads the state; prev keeps the step's input.
        z = np.zeros((10 * n + 1, dim))
        z[9 * n:10 * n] = x
        z_flat = z.reshape(-1)
        blocks = z_flat[:9 * n * dim]
        chain = partial(_kernel(10 * n + 1, dim, *_chain_matrix(coupling, h, rate)),
                        z_flat, z_flat)
        new, prev = z[9 * n:10 * n], z[8 * n:9 * n]
        views = new, new.view(np.uint64), prev.view(np.uint64)

        def advance(step: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            blocks.fill(-0.0)
            chain()
            return views
    else:
        # The stage loop. The kernel adds each row's products in CSR order
        # to the zero it finds in its output. It reads a C-ordered state,
        # which both slots of the ring of states are: slot s % 2 (slot 0 is
        # x, the copy of x0) holds x(s), and step s reads the slot of
        # x(s - 1) and writes x(s) over that of x(s - 2), so the state of the
        # step before stays put. Each slot as a state, its flat view and its
        # bit patterns:
        slots = [(s, s.reshape(-1), s.view(np.uint64)) for s in (x, np.empty((n, dim)))]
        ks = np.empty((4, n, dim))
        acc = np.empty((n, dim))
        k1, k2, k3, k4 = ks
        k1_flat, k2_flat, k3_flat, k4_flat = ks.reshape(4, -1)
        tmp_flat = tmp.reshape(-1)
        product = _kernel(n, dim, coupling.indptr, coupling.indices, coupling.data)

        def deriv(state: np.ndarray, state_flat: np.ndarray,
                  out: np.ndarray, out_flat: np.ndarray) -> None:
            # out must hold zeros: the kernel adds the product to it
            product(state_flat, out_flat)
            if gamma_t is not None:
                np.matmul(out, gamma_t, out=out)
            if f is not _no_dynamics:
                np.add(f(state), out, out=out)

        def advance(step: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            x, x_flat, x_bits = slots[(step - 1) % 2]
            new, _, new_bits = slots[step % 2]
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
            return new, new_bits, x_bits

    # overflow on the way to divergence is reported via DivergenceError,
    # not as a numpy warning; a non-finite state gives a non-finite error
    with np.errstate(over="ignore", invalid="ignore"):
        errors[0] = previous = float(max_deviation(x))
        if not math.isfinite(previous):
            raise InputError("x0 overflows float64 in a column sum or a deviation from the mean")
        for step in range(1, steps + 1):
            new, new_bits, x_bits = advance(step)
            errors[step] = error = float(max_deviation(new))
            if not math.isfinite(error):
                raise DivergenceError(
                    f"state became non-finite at t={times[step]:.6g}",
                    time=float(times[step]),
                )
            if keep_states:
                states[step] = new
            if error == previous and np.array_equal(new_bits, x_bits):
                # a fixed point: the step map reads x alone (every buffer but
                # the state is rewritten before it is read, the cell is never
                # written, Gamma and the coupling are fixed, and f takes no
                # t), so every later step returns this state. The bits, where
                # -0.0 and +0.0 differ, are compared only when the error
                # repeats, as it does here.
                errors[step + 1:] = error
                if keep_states:
                    states[step + 1:] = new
                break
            previous = error
    if not keep_states:
        # the state at t_max, which a fixed point holds from its step on
        states[0] = new
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
