#!/usr/bin/env python3
"""Error vs. attack tolerance of a scale-free graph.

Removes nodes randomly (seed ensemble) and by highest current degree,
tracking the largest-component diameter as the removal fraction grows,
and writes both curves to CSV files ready for plotting.
"""

import argparse
from pathlib import Path

from netsync.generators import BAParams, generate_ba
from netsync.report import rows_csv
from netsync.resilience import TargetedAttack, run_error_ensemble, run_resilience


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--m", type=int, default=3)
    parser.add_argument("--graph-seed", type=int, default=7)
    parser.add_argument("--seeds", type=int, default=10, help="error-run ensemble size")
    parser.add_argument("--record-every", type=float, default=0.02)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args()

    g = generate_ba(BAParams(n=args.n, m=args.m, seed=args.graph_seed))
    print(f"graph: n={g.n} m={g.m}")

    attack = run_resilience(g, TargetedAttack(), args.record_every)
    attack_path = args.out_dir / "attack_trace.csv"
    attack_path.write_text(rows_csv(attack.rows))
    collapse = attack.fraction_when_lcc_below(g.n // 2)
    print(f"attack: largest component below n/2 at fraction {collapse}")

    ensemble = run_error_ensemble(g, list(range(args.seeds)), args.record_every)
    error_path = args.out_dir / "error_trace.csv"
    error_path.write_text(rows_csv(ensemble.rows))
    print(f"error ensemble ({args.seeds} seeds) written to {error_path}")
    print(f"attack trace written to {attack_path}")


if __name__ == "__main__":
    main()
