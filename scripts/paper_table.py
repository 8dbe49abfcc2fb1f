#!/usr/bin/env python3
"""The paper's published EEN values beside ER(49, 351, seed 3) and BA(49,
m=8, seed 5) in one fixed-width table on stdout; "—" marks a value the
paper did not publish. Every number is one that a netsync command writes:
per graph, a deterministic pipeline with every stage under attack, a
resilience pipeline with an error run at seed 0, and ``sync --tmax 10
--seed 0``. A collapse fraction is the first recorded removal fraction whose
largest component has fewer than n // 2 nodes. The decay rate is fitted to
the sync error between 1e-7 and 1e-13 of its start, beside c * |lambda2|
at the default c = 1.

    PYTHONPATH=src python scripts/paper_table.py
"""

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from netsync.cli import main as netsync
from netsync.fixture import EEN_REFERENCE
from netsync.synchronization import fit_decay_rate

GRAPHS = {
    "ER(49, 351)": {"model": "er", "n": 49, "edges": 351, "seed": 3},
    "BA(49, 8)": {"model": "ba", "n": 49, "m": 8, "seed": 5},
}
# table row -> EEN_REFERENCE key
PUBLISHED = {"n": "n", "m": "m", "APL": "average_path_length", "C": "global_clustering",
             "gamma": "power_law_gamma", "lambda2": "lambda2"}


def run(*argv: str) -> None:
    if netsync(list(argv)) != 0:
        raise SystemExit(f"netsync {' '.join(argv)} failed")


def pipeline(stem: str, spec: dict, stages, resilience: dict) -> dict:
    config = {"input": {"generate": spec}, "stages": stages, "resilience": resilience}
    Path(f"{stem}.config.json").write_text(json.dumps(config))
    run("pipeline", "--config", f"{stem}.config.json", "--deterministic", "--out", f"{stem}.json")
    return json.loads(Path(f"{stem}.json").read_text())


def collapse(trace: dict) -> float:
    half = trace["initial_n"] // 2
    return next(row["fraction_removed"] for row in trace["rows"] if row["lcc_size"] < half)


def column(stem: str, spec: dict) -> dict[str, object]:
    full = pipeline(f"{stem}_attack", spec, "all", {"strategy": "attack"})
    error = pipeline(f"{stem}_error", spec, ["resilience"], {"strategy": "error", "seed": 0})
    options = [arg for key, value in spec.items() if key != "model"
               for arg in (f"--{key}", str(value))]
    run("generate", spec["model"], *options, "--out", f"{stem}.edges")
    run("sync", "--edge-list", f"{stem}.edges", "--tmax", "10", "--seed", "0",
        "--out", f"{stem}.sync.csv")
    t, e = np.loadtxt(f"{stem}.sync.csv", delimiter=",", skiprows=1, unpack=True)
    window = [t[np.flatnonzero(e < share * e[0])[0]] for share in (1e-7, 1e-13)]
    summary, fit, spectral = full["summary"], full["power_law_fit"], full["spectral"]
    return {
        "n": summary["n"], "m": summary["m"],
        "largest degree": max(row["degree"] for row in full["node_stats"]),
        "APL": summary["average_path_length"], "diameter": summary["diameter"],
        "C": summary["global_clustering"],
        "gamma": fit["gamma"], "gamma k_min": fit["k_min"], "gamma n_tail": fit["n_tail"],
        "lambda2": spectral["lambda2"], "stable": spectral["stable"],
        "attack collapse": collapse(full["resilience"]),
        "error collapse": collapse(error["resilience"]),
        "decay rate": fit_decay_rate(t, e, *window),
        "c*|lambda2|": abs(spectral["lambda2"]),
    }


def main() -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        columns = [column(f"g{i}", spec) for i, spec in enumerate(GRAPHS.values())]
        os.chdir(home)
    een = {row: str(EEN_REFERENCE[key]) for row, key in PUBLISHED.items()}
    table = [["", "EEN (published)", *GRAPHS]]
    for row in columns[0]:
        cells = [f"{c[row]:.4f}" if type(c[row]) is float else str(c[row]) for c in columns]
        table.append([row, een.get(row, "—"), *cells])
    widths = [max(len(line[i]) for line in table) for i in range(len(table[0]))]
    for line in table:
        cells = [line[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(line[1:], widths[1:])]
        print("  ".join(cells).rstrip())


if __name__ == "__main__":
    main()
