#!/usr/bin/env python3
"""Print the microseconds per RK4 step of both paths of ``simulate``.

A step that is linear in the state runs either as one CSR kernel call (the
chain) or stage by stage (the stage loop), and ``RK4_CHAIN_SIZE`` picks the
chain up to that many numbers in the state. This script times both paths,
at n in {49, 200, 500, 1000} and state_dim in {1, 2}, on ER(n, 351 n / 49),
which has the mean degree of ER(49, 351), and on BA(n, m=3), with
``linear:-0.3`` dynamics, c = 1, dt = 0.01 and a start state drawn
uniformly from [0, 1) (seed 1). It sets the constant to n * state_dim for
the chain and to 0 for the stage loop, and checks that both paths give the
same bits. Each figure is the best of ``--repeats`` runs of ``--steps``
steps, the graph's set-up and the chain's matrix included, divided by the
steps. It runs at one BLAS thread; the environment is set before numpy is
imported.

    PYTHONPATH=src python scripts/rk4_step_times.py [--steps 500] [--repeats 7]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from netsync import synchronization  # noqa: E402
from netsync.generators import BAParams, ERParams, generate_ba, generate_er  # noqa: E402
from netsync.synchronization import SyncConfig, simulate  # noqa: E402

SIZES = (49, 200, 500, 1000)
DIMS = (1, 2)


def best_run(g, cfg, x0, limit, repeats):
    """The best wall time of ``repeats`` runs with RK4_CHAIN_SIZE at
    ``limit``, and the error series of the last run."""
    saved = synchronization.RK4_CHAIN_SIZE
    synchronization.RK4_CHAIN_SIZE = limit
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            traj = simulate(g, cfg, x0)
            best = min(best, time.perf_counter() - start)
    finally:
        synchronization.RK4_CHAIN_SIZE = saved
    return best, traj


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    print(f"{'graph':<18}{'dim':>4}{'stage loop us':>15}{'chain us':>10}{'chain/loop':>12}")
    for n in SIZES:
        graphs = {
            f"ER({n}, {round(351 * n / 49)})": generate_er(ERParams(n=n, m=round(351 * n / 49), seed=1)),
            f"BA({n}, 3)": generate_ba(BAParams(n=n, m=3, seed=1)),
        }
        for label, g in graphs.items():
            for dim in DIMS:
                if not synchronization._kernel_chains_rows(dim):
                    raise SystemExit(f"the CSR kernel for {dim} columns cannot run the chain")
                cfg = SyncConfig(c=1.0, dt=0.01, t_max=args.steps * 0.01,
                                 dynamics="linear:-0.3", state_dim=dim)
                x0 = np.random.default_rng(1).random((n, dim))
                loop, by_loop = best_run(g, cfg, x0, 0, args.repeats)
                chain, by_chain = best_run(g, cfg, x0, n * dim, args.repeats)
                same = (by_loop.sync_error.view(np.uint64) == by_chain.sync_error.view(np.uint64)).all()
                same &= (by_loop.states.view(np.uint64) == by_chain.states.view(np.uint64)).all()
                if not same:
                    raise SystemExit(f"{label}, dim {dim}: the two paths differ")
                loop_us, chain_us = (1e6 * t / args.steps for t in (loop, chain))
                print(f"{label:<18}{dim:>4}{loop_us:>15.1f}{chain_us:>10.1f}{chain_us / loop_us:>12.2f}")


if __name__ == "__main__":
    main()
