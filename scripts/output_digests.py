#!/usr/bin/env python3
"""Run a fixed set of netsync commands and print the sha256 of every output.

The set covers every subcommand that writes a report: on a BA graph of
``--n`` nodes (m=3, seed 7), ER(49, 351, seed 3) and BA(49, m=8, seed 5),
``analyze`` (JSON and CSV), ``resilience`` (attack, error with seed 3, a
5-seed error ensemble), ``fit --compare-er`` (inline and with
``--comparison-out``) and ``sync --spectral-only``; on ER(49) ``sync --full
--tmax 2``, ``sync --tmax 5`` and ``sync --full --tmax 10`` with zero
dynamics, ``sync --dynamics logistic:0.5 --state-dim 2 --full --tmax 1``
and ``sync --dynamics linear:-0.3 --tmax 2``, so the RK4 stepper runs with
one state dimension and with two, with node dynamics and without; and on
the ``--n`` BA graph ``sync`` to the default t_max. That run and ``--tmax
10`` on ER(49) pass a step that returns its state bit for bit (on ER(49)
at step 499), where the stepper stops and repeats that state. The zero
and linear runs on ER(49) make each step in one kernel call (the chain);
the logistic run, and the BA run at the default ``--n`` of 1000, make it
stage by stage. Then
``pipeline --deterministic`` with every stage on both 49-node edge lists,
under attack and under a 4-seed error ensemble. Four more pipelines generate their
graph from ``input.generate`` and run every stage with a one-seed error run
(seed 2): ER(49, 351, seed 3) with its edge count as ``edges`` and as the
alias ``m``, and BA(49, m=8, seed 5) with the default core and with ``m0``
10. On a square grid, whose
edge list the script writes itself, ``analyze`` (JSON) runs, and
``resilience`` under attack and error with seed 3, and under attack again
with ``--record-every 0.005``: a long-diameter input unlike the random
graphs, and at least 81 recorded rows, so their diameters take more than
one batch of 64 rows. The grid is 30x30 at the default ``--n`` and
isqrt(n) wide below 900 nodes, but never under 9x9, which gives those 81
rows. Every per-node table, and the summary beside it in ``analyze`` and
in a pipeline with every stage, reads the Brandes sweep, which on the
grid runs one product per level over dozens of levels; a summary-only
pipeline on the grid and on the ``--n`` BA graph reads the bit-parallel
forward sweep alone. The four edge lists are hashed too.

The last line is the ``analyze`` JSON of one more small edge list, whose
labels JSON must escape: ``"q"``, ``a\\b``, ``ü`` and the control
character U+0001. It comes after the others, so the lines before it read
as they did before that edge list was added, and the edge list itself is
not hashed.

Commands run through ``netsync.cli.main`` inside OUTDIR with relative
paths, so no output records where it was written. Two trees give equal
outputs when two runs print the same lines:

    PYTHONPATH=src python scripts/output_digests.py /tmp/a > a.txt
    PYTHONPATH=../other/src python scripts/output_digests.py /tmp/b > b.txt
    diff a.txt b.txt
"""

import argparse
import hashlib
import json
import math
import os
from pathlib import Path

from netsync.cli import main as netsync

GRAPHS = {
    "ba_large": ["ba", "--m", "3", "--seed", "7"],
    "er49": ["er", "--n", "49", "--edges", "351", "--seed", "3"],
    "ba49": ["ba", "--n", "49", "--m", "8", "--seed", "5"],
}


LABELS = '"q" a\\b\na\\b ü\nü \x01\n\x01 "q"\n"q" ü\nplain ü\n'


def grid_edges(side: int) -> str:
    """Edge list of a side x side grid, node r*side + c at row r, column c."""
    lines = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                lines.append(f"{v} {v + 1}")
            if r + 1 < side:
                lines.append(f"{v} {v + side}")
    return "\n".join(lines) + "\n"


def commands(n: int) -> list[list[str]]:
    argvs = [["generate", *spec, "--out", f"{name}.edges"] for name, spec in GRAPHS.items()]
    argvs[0][2:2] = ["--n", str(n)]
    for name in GRAPHS:
        e = ["--edge-list", f"{name}.edges"]
        argvs += [
            ["analyze", *e, "--out", f"{name}.analyze.json"],
            ["analyze", *e, "--format", "csv", "--out", f"{name}.analyze.csv"],
            ["resilience", *e, "--strategy", "attack", "--out", f"{name}.attack.csv"],
            ["resilience", *e, "--strategy", "error", "--seed", "3",
             "--out", f"{name}.error.csv"],
            ["resilience", *e, "--strategy", "error", "--seeds", "5",
             "--out", f"{name}.ensemble.csv"],
            ["fit", *e, "--compare-er", "--out", f"{name}.fit.json"],
            ["fit", *e, "--compare-er", "--comparison-out", f"{name}.fit_cmp.csv",
             "--out", f"{name}.fit_cmp.json"],
            ["sync", *e, "--spectral-only", "--out", f"{name}.spectral.json"],
        ]
    argvs += [
        ["sync", "--edge-list", "er49.edges", "--full", "--tmax", "2",
         "--out", "er49.sync_full.csv"],
        ["sync", "--edge-list", "er49.edges", "--tmax", "5", "--out", "er49.sync.csv"],
        ["sync", "--edge-list", "er49.edges", "--full", "--tmax", "10",
         "--out", "er49.sync_fixed_point.csv"],
        ["sync", "--edge-list", "ba_large.edges", "--out", "ba_large.sync.csv"],
        ["sync", "--edge-list", "er49.edges", "--dynamics", "logistic:0.5", "--state-dim", "2",
         "--full", "--tmax", "1", "--out", "er49.sync_logistic.csv"],
        ["sync", "--edge-list", "er49.edges", "--dynamics", "linear:-0.3", "--tmax", "2",
         "--out", "er49.sync_linear.csv"],
    ]
    grid = ["resilience", "--edge-list", "grid.edges", "--strategy"]
    argvs += [
        ["analyze", "--edge-list", "grid.edges", "--out", "grid.analyze.json"],
        [*grid, "attack", "--out", "grid.attack.csv"],
        [*grid, "error", "--seed", "3", "--out", "grid.error.csv"],
        [*grid, "attack", "--record-every", "0.005", "--out", "grid.attack_fine.csv"],
    ]
    return argvs


GENERATED = {
    "er49_edges": {"model": "er", "n": 49, "edges": 351, "seed": 3},
    "er49_m": {"model": "er", "n": 49, "m": 351, "seed": 3},
    "ba49_core": {"model": "ba", "n": 49, "m": 8, "seed": 5},
    "ba49_m0": {"model": "ba", "n": 49, "m": 8, "m0": 10, "seed": 5},
}


def pipeline_configs() -> dict[str, dict]:
    resilience = {"attack": {"strategy": "attack"},
                  "ensemble": {"strategy": "error", "seeds": 4, "seed": 1}}
    configs = {
        f"{name}.pipeline_{kind}": {
            "input": {"edge_list": f"{name}.edges"},
            "stages": "all",
            "resilience": res,
        }
        for name in ("er49", "ba49")
        for kind, res in resilience.items()
    }
    for name in ("grid", "ba_large"):
        configs[f"{name}.pipeline_summary"] = {
            "input": {"edge_list": f"{name}.edges"},
            "stages": ["summary"],
        }
    for name, spec in GENERATED.items():
        configs[f"{name}.pipeline_error"] = {
            "input": {"generate": spec},
            "stages": "all",
            "resilience": {"strategy": "error", "seed": 2},
        }
    return configs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("outdir", type=Path, help="directory for the outputs (created)")
    parser.add_argument("--n", type=int, default=1000, help="nodes of the large BA graph")
    args = parser.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.outdir)
    Path("grid.edges").write_text(grid_edges(min(30, max(9, math.isqrt(args.n)))))
    Path("labels.edges").write_text(LABELS, encoding="utf-8")
    argvs = commands(args.n)
    for stem, cfg in pipeline_configs().items():
        Path(f"{stem}.config.json").write_text(json.dumps(cfg))
        argvs.append(["pipeline", "--config", f"{stem}.config.json", "--deterministic",
                      "--out", f"{stem}.json"])
    argvs.append(["analyze", "--edge-list", "labels.edges", "--out", "labels.analyze.json"])
    for argv in argvs:
        if netsync(argv) != 0:
            raise SystemExit(f"netsync {' '.join(argv)} failed")
    hashed = [path for path in sorted(Path(".").iterdir())
              if not path.name.endswith(".config.json") and not path.name.startswith("labels.")]
    for path in [*hashed, Path("labels.analyze.json")]:
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")


if __name__ == "__main__":
    main()
