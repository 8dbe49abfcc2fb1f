"""Self-test of the benchmark at tiny sizes; it takes seconds.

    python3 perfbench/selftest.py

Runs one round of every workload on tiny inputs and requires all its output
checks to pass. Then gives each kind of check a wrong value (a perturbed
centrality, lambda_2 or fit, a swapped removal, a slower decay, a faster
tail, a corrupted fixture) and requires the check to report it. Exits 0
when all of this holds. It is not part of the repository's test suite.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import run  # holds BLAS to one thread and puts the benchmark on sys.path

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def run_tiny(call, name: str, root):
    w = WORKLOADS[name](SEED, root / name, tiny=True)
    w.dir.mkdir(parents=True)
    w.write_inputs(call)
    codes = {op.key: call(op.argv) for op in w.ops()}
    failures = {k: v for k, v in w.check(codes).items() if v}
    return w, codes, failures


def expect_failure(label: str, messages: list[str], results: list[str]) -> None:
    results.append(("ok   " if messages else "MISS ") + label)


def main() -> int:
    cli = run.import_netsync()
    call = run.make_call(cli)
    root = run.BENCH / "_work" / f"selftest-{os.getpid()}"
    results: list[str] = []
    try:
        tiny = {}
        for name in WORKLOADS:
            w, codes, failures = run_tiny(call, name, root)
            ok = all(c == 0 for c in codes.values()) and not failures
            results.append(("ok   " if ok else "FAIL ") + f"{name}: tiny round, checks pass {failures or ''}")
            tiny[name] = w
        perturbations(tiny, call, root, results)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print("\n".join(results))
    bad = [r for r in results if not r.startswith("ok")]
    print(f"{len(results) - len(bad)}/{len(results)} self-test cases hold")
    return 1 if bad else 0


def perturbations(tiny: dict, call, root, results: list[str]) -> None:
    # analyze-ba: distances, closeness, eigenvector, betweenness, summary, fit
    w = tiny["analyze-ba"]
    ref = checks.Reference.from_edge_file(w.edges)
    report = json.loads(w.path("analyze.json").read_text())
    fit = json.loads(w.path("fit.json").read_text())
    sources = ref.order[:5]

    def node_stats_with(field: str, delta: float) -> list[str]:
        rows = copy.deepcopy(report["node_stats"])
        rows[3][field] += delta
        return checks.check_node_stats(ref, rows, sources, full_betweenness=False)

    expect_failure("closeness off by 1e-9", node_stats_with("closeness", 1e-9), results)
    expect_failure("eigenvector off by 1e-4", node_stats_with("eigenvector", 1e-4), results)
    expect_failure("betweenness off by 0.5 (sum identity)", node_stats_with("betweenness", 0.5), results)
    summary = dict(report["summary"], average_path_length=report["summary"]["average_path_length"] + 1e-9)
    expect_failure("average path length off by 1e-9", checks.check_summary(ref, summary), results)
    summary = dict(report["summary"], diameter=report["summary"]["diameter"] + 1)
    expect_failure("diameter off by 1", checks.check_summary(ref, summary), results)
    broken = checks.Reference.from_edge_file(w.edges)
    broken.dist[0, 1] = broken.dist[1, 0] = broken.dist[0, 1] + 1
    expect_failure(
        "distance matrix disagrees with networkx BFS",
        checks.check_node_stats(broken, report["node_stats"], [ref.order[0]], full_betweenness=False),
        results,
    )
    expect_failure("gamma off by 1e-8", checks.check_fit(ref.degrees(), dict(fit, gamma=fit["gamma"] * (1 + 1e-8))), results)
    expect_failure("k_min moved", checks.check_fit(ref.degrees(), dict(fit, k_min=fit["k_min"] + 1)), results)

    # resilience-ba: a swapped removal changes the recorded rows
    w = tiny["resilience-ba"]
    ref = checks.Reference.from_edge_file(w.edges)
    for strategy, seed in (("attack", None), ("error", w.error_seed)):
        order = checks.removal_order(ref, strategy, seed)
        expected = checks.replay(ref, order, w.record_every)
        swapped = list(order)
        swapped[0], swapped[-1] = swapped[-1], swapped[0]
        got = checks.replay(ref, swapped, w.record_every)
        expect_failure(f"{strategy}: first and last removal swapped", checks.check_trace(got, expected), results)
    grown = copy.deepcopy(expected)
    grown[2]["lcc_size"] = grown[1]["lcc_size"] + 1
    expect_failure("largest component grows", checks.check_trace(grown, grown), results)

    # sync-ba: lambda_1, lambda_2, and the error series
    w = tiny["sync-ba"]
    ref = checks.Reference.from_edge_file(w.edges)
    a = checks.algebraic_connectivity(ref)
    spec = json.loads(w.path("spectral.json").read_text())
    expect_failure("lambda2 off by 1e-6", checks.check_spectral(ref, dict(spec, lambda2=spec["lambda2"] * (1 + 1e-6)), a), results)
    expect_failure("lambda1 = 1e-3", checks.check_spectral(ref, dict(spec, lambda1=1e-3), a), results)
    rows = checks.read_csv(w.path("traj.csv"))
    slower = [dict(r, sync_error=repr(float(r["sync_error"]) * 2.718281828 ** (0.05 * float(r["t"])))) for r in rows]
    expect_failure(
        "error series decays 0.05 slower",
        checks.check_trajectory(ref, slower, w.seed, a, w.dt, w.t_max, tail_rate=True),
        results,
    )
    faster = [dict(r, sync_error=repr(float(r["sync_error"]) * 2.718281828 ** (-0.2 * a * float(r["t"])))) for r in rows]
    expect_failure(
        "tail decays 20% of |lambda2| faster than the spectrum gives",
        [m for m in checks.check_trajectory(ref, faster, w.seed, a, w.dt, w.t_max, tail_rate=True)
         if m.startswith("tail decay rate")],
        results,
    )
    expect_failure(
        "tail rate checked against a 20% larger lambda2",
        checks.check_trajectory(ref, rows, w.seed, a * 1.2, w.dt, w.t_max, tail_rate=True),
        results,
    )

    # paper-scale: report fields against networkx, ensemble rows, validate
    w = tiny["paper-scale"]
    for g in w.graphs:
        ref = checks.Reference.from_generated(w.n, w.path(f"g{g['i']}.edges"))
        report = json.loads(w.path(f"report{g['i']}.json").read_text())
        label = f"{g['model']}/{g['strategy']}"
        bumped = copy.deepcopy(report)
        bumped["node_stats"][0]["betweenness"] += 1e-6
        expect_failure(f"{label}: betweenness off by 1e-6", w.check_report(checks, g, ref, bumped), results)
        bumped = copy.deepcopy(report)
        bumped["summary"]["global_clustering"] += 1e-9
        expect_failure(f"{label}: clustering off by 1e-9", w.check_report(checks, g, ref, bumped), results)
        bumped = copy.deepcopy(report)
        bumped["spectral"]["lambda2"] *= 1 + 1e-6
        expect_failure(f"{label}: lambda2 off by 1e-6", w.check_report(checks, g, ref, bumped), results)
        bumped = copy.deepcopy(report)
        key = "lcc_size" if g["strategy"] == "attack" else "lcc_median"
        bumped["resilience"]["rows"][5][key] -= 1
        expect_failure(f"{label}: resilience row 5 {key} off by 1", w.check_report(checks, g, ref, bumped), results)
    fixture = root / "corrupt.csv"
    lines = (run.ROOT / "src" / "netsync" / "data" / "een_node_stats.csv").read_text().splitlines()
    head, first, rest = lines[0], lines[1].split(","), lines[2:]
    degree_col = head.split(",").index("degree")
    first[degree_col] = str(int(first[degree_col]) + 1)
    fixture.write_text("\n".join([head, ",".join(first), *rest]) + "\n")
    out = root / "validate.txt"
    code = call(["validate", "--fixture", str(fixture), "--out", str(out)])
    expect_failure("validate on a corrupted fixture", checks.check_validate(code, out.read_text()), results)


if __name__ == "__main__":
    sys.exit(main())
