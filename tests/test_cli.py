import argparse
import copy
import csv
import dataclasses
import functools
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from importlib import resources

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netsync.cli
from netsync.cli import build_parser, main
from netsync.edgelist import ingest_edge_list
from netsync.generators import ERParams, generate_er
from netsync.powerlaw import fit_mle


FIXTURE_HEADER = "country,code,degree,clustering,closeness,betweenness,eigenvector\n"


@pytest.fixture
def ba_file(tmp_path):
    path = tmp_path / "ba.edges"
    assert main(["generate", "ba", "--n", "120", "--m", "2", "--seed", "7",
                 "--out", str(path)]) == 0
    return path


def test_generate_ba_edge_count(ba_file):
    result = ingest_edge_list(ba_file)
    assert result.graph.n == 120
    assert result.graph.m == 3 + 2 * 117


def test_generate_er(tmp_path):
    path = tmp_path / "er.edges"
    assert main(["generate", "er", "--n", "49", "--edges", "351", "--seed", "3",
                 "--out", str(path)]) == 0
    assert ingest_edge_list(path).graph.m == 351


def test_generate_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.edges", tmp_path / "b.edges"
    main(["generate", "ba", "--n", "60", "--m", "2", "--seed", "5", "--out", str(p1)])
    main(["generate", "ba", "--n", "60", "--m", "2", "--seed", "5", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_analyze_json(ba_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", "--edge-list", str(ba_file), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["summary"]["n"] == 120
    assert len(data["node_stats"]) == 120
    row = data["node_stats"][0]
    assert {"label", "degree", "clustering", "closeness", "betweenness",
            "eigenvector"} <= set(row)


def path_edges(tmp_path, n):
    """The edge list of an n-node path, labelled 0 to n - 1 along it."""
    edges = tmp_path / f"path{n}.edges"
    edges.write_text("".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    return edges


def test_analyze_on_a_long_path(tmp_path):
    # power iteration closes the gap of a 500-node path too slowly, so the
    # eigenvector comes from ARPACK; the closed form is sin(pi k / (n + 1))
    # at the k-th node, rescaled to a maximum of 1
    n = 500
    out = tmp_path / "path.json"
    assert main(["analyze", "--edge-list", str(path_edges(tmp_path, n)), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["node_stats"]
    k = np.array([int(row["label"]) + 1 for row in rows])
    expected = np.sin(np.pi * k / (n + 1)) / np.sin(np.pi * (n // 2) / (n + 1))
    got = np.array([row["eigenvector"] for row in rows])
    assert np.abs(got - expected).max() < 1e-8


def test_pipeline_tables_equal_analyze(ba_file, tmp_path):
    # the pipeline's summary and per-node table are those of `analyze`
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": {"edge_list": str(ba_file)}, "stages": "all"}))
    report, analyzed = tmp_path / "report.json", tmp_path / "analyze.json"
    assert main(["pipeline", "--config", str(cfg), "--deterministic", "--out", str(report)]) == 0
    assert main(["analyze", "--edge-list", str(ba_file), "--out", str(analyzed)]) == 0
    report, analyzed = json.loads(report.read_text()), json.loads(analyzed.read_text())
    assert report["errors"] == {}
    for key in ("summary", "node_stats"):
        assert report[key] == analyzed[key], key


def test_analyze_csv_mirrors_reference_columns(ba_file, tmp_path):
    out = tmp_path / "stats.csv"
    assert main(["analyze", "--edge-list", str(ba_file), "--format", "csv",
                 "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "label,degree,clustering,closeness,betweenness,eigenvector"


def test_fit_subcommand(ba_file, tmp_path):
    out, inline = tmp_path / "fit.json", tmp_path / "inline.json"
    cmp_out = tmp_path / "cmp.csv"
    fit = ["fit", "--edge-list", str(ba_file), "--compare-er", "--seed", "1"]
    assert main([*fit, "--out", str(out), "--comparison-out", str(cmp_out)]) == 0
    assert main([*fit, "--out", str(inline)]) == 0
    data = json.loads(out.read_text())
    assert data["gamma"] > 1.0
    text = cmp_out.read_text()
    assert json.loads(inline.read_text()) == dict(data, comparison_csv=text)
    # one row per degree of either graph, P(k) by repr; a degree that only
    # one graph has leaves the other's cell empty (BA(120, 2) has no node of
    # degree 0 or 1, its size-matched random graph no hub)
    g = ingest_edge_list(ba_file).graph
    ref = generate_er(ERParams(n=g.n, m=g.m, seed=1))
    obs, exp = Counter(g.degrees()), Counter(ref.degrees())
    expected = [["k", "p_observed", "p_reference"]] + [
        [str(k), repr(obs[k] / g.n) if k in obs else "", repr(exp[k] / g.n) if k in exp else ""]
        for k in sorted(obs.keys() | exp.keys())
    ]
    rows = list(csv.reader(io.StringIO(text)))
    assert rows == expected
    assert any(row[1] == "" for row in rows) and any(row[2] == "" for row in rows)


def test_fit_leaves_the_fit_it_writes_unchanged(ba_file, tmp_path, monkeypatch):
    # the inline comparison goes into the payload, not into the frozen fit
    fits = []
    monkeypatch.setattr(netsync.cli, "fit_mle",
                        lambda degrees: fits.append(fit_mle(degrees)) or fits[-1])
    out = tmp_path / "fit.json"
    assert main(["fit", "--edge-list", str(ba_file), "--compare-er", "--out", str(out)]) == 0
    (fit,) = fits
    assert vars(fit) == dataclasses.asdict(fit_mle(ingest_edge_list(ba_file).graph.degrees()))
    data = json.loads(out.read_text())
    assert data.pop("comparison_csv").startswith("k,p_observed,p_reference\n")
    assert data == vars(fit)


def test_resilience_attack_csv(ba_file, tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["resilience", "--edge-list", str(ba_file), "--strategy",
                 "attack", "--record-every", "0.1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "fraction_removed,diameter,lcc_size,components"
    assert len(lines) > 2


def test_resilience_error_ensemble_csv(ba_file, tmp_path):
    out = tmp_path / "ens.csv"
    assert main(["resilience", "--edge-list", str(ba_file), "--strategy",
                 "error", "--seeds", "3", "--record-every", "0.2",
                 "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == (
        "fraction_removed,diameter_median,diameter_min,diameter_max,"
        "lcc_median,lcc_min,lcc_max,components_median,components_min,components_max"
    )


@pytest.mark.parametrize(
    "resilience",
    [{"strategy": "attack"},
     {"strategy": "error", "seed": 2},
     {"strategy": "error", "seed": 2, "seeds": 3}],
)
def test_resilience_rows_equal_pipeline_rows(ba_file, tmp_path, resilience):
    # the CLI and the pipeline reach the same removal sweep for one request
    every = 0.1
    argv = ["resilience", "--edge-list", str(ba_file), "--strategy", resilience["strategy"],
            "--record-every", str(every), "--out", str(tmp_path / "trace.csv")]
    for key in ("seed", "seeds"):
        if key in resilience:
            argv += [f"--{key}", str(resilience[key])]
    assert main(argv) == 0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"input": {"edge_list": str(ba_file)},
                                  "stages": ["resilience"],
                                  "resilience": dict(resilience, record_every=every)}))
    assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    with open(tmp_path / "trace.csv", newline="") as fh:
        cli_rows = list(csv.DictReader(fh))
    assert cli_rows == [{k: str(v) for k, v in row.items()}
                        for row in report["resilience"]["rows"]]


def test_sync_spectral_only(ba_file, tmp_path):
    out = tmp_path / "spectral.json"
    assert main(["sync", "--edge-list", str(ba_file), "--spectral-only",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["lambda1"] == pytest.approx(0.0, abs=1e-8)
    assert data["lambda2"] < 0
    assert data["stable"] is True
    assert data["zero_multiplicity"] == 1


def test_sync_trajectory_csv(ba_file, tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["sync", "--edge-list", str(ba_file), "--dynamics", "zero",
                 "--c", "1.0", "--dt", "0.05", "--tmax", "2.0", "--seed", "4",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,sync_error"
    assert len(lines) == 42  # header + 41 grid points


def test_sync_full_states(tmp_path):
    edge = tmp_path / "p2.edges"
    edge.write_text("a b\n")
    out = tmp_path / "traj.csv"
    assert main(["sync", "--edge-list", str(edge), "--dt", "0.1", "--tmax",
                 "1.0", "--full", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "t,sync_error,node0_s0,node1_s0"


def test_sync_bytes_equal_at_one_and_two_blas_threads(tmp_path, child_env):
    # on BA(1000): a seeded run to the default t_max, past its fixed point,
    # and the spectral report, above the size of a dense eigensolve; and
    # `analyze` on a 500-node path, whose eigenvector comes from ARPACK
    edges = tmp_path / "ba.edges"
    assert main(["generate", "ba", "--n", "1000", "--m", "3", "--seed", "7",
                 "--out", str(edges)]) == 0
    sync = ["sync", "--edge-list", str(edges)]
    for args in ([*sync, "--seed", "3"], [*sync, "--spectral-only"],
                 ["analyze", "--edge-list", str(path_edges(tmp_path, 500))]):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "netsync.cli", *args, "--out", str(out)],
                capture_output=True, text=True, timeout=120,
                env=dict(child_env, OPENBLAS_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], args


def test_one_parser_keeps_nothing_between_calls(ba_file, tmp_path):
    # the parser is built once per process; each call still starts from
    # the defaults
    assert build_parser() is build_parser()
    short, default = tmp_path / "short.csv", tmp_path / "default.csv"
    sync = ["sync", "--edge-list", str(ba_file)]
    assert main([*sync, "--tmax", "5", "--out", str(short)]) == 0
    assert main([*sync, "--out", str(default)]) == 0
    assert len(short.read_text().splitlines()) == 1 + 501
    assert len(default.read_text().splitlines()) == 1 + 5001  # --tmax 50

    res = ["resilience", "--edge-list", str(ba_file), "--strategy"]
    assert main([*res, "error", "--seed", "3", "--out", str(tmp_path / "error.csv")]) == 0
    assert main([*res, "attack", "--out", str(tmp_path / "attack.csv")]) == 0


# each changes the output of a default sync run
SYNC_OPTIONS = [["--c", "2"], ["--dt", "0.02"], ["--tmax", "10"], ["--state-dim", "2"],
                ["--dynamics", "linear:-0.5"], ["--seed", "1"], ["--full"]]


def subcommand_options(command):
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {s for action in subparsers.choices[command]._actions for s in action.option_strings}


@pytest.mark.parametrize("option", SYNC_OPTIONS, ids=[o[0] for o in SYNC_OPTIONS])
def test_every_sync_option_reaches_the_output(ba_file, tmp_path, option):
    # an option missing from SYNC_OPTIONS, or one that changes nothing, fails
    structural = {"-h", "--help", "--edge-list", "--out", "--spectral-only"}
    assert subcommand_options("sync") - structural == {o[0] for o in SYNC_OPTIONS}
    sync = ["sync", "--edge-list", str(ba_file)]
    default, changed = tmp_path / "default.out", tmp_path / "changed.out"
    assert main([*sync, "--out", str(default)]) == 0
    assert main([*sync, *option, "--out", str(changed)]) == 0
    assert changed.read_bytes() != default.read_bytes()


def test_validate_shipped_fixture(capsys):
    assert main(["validate"]) == 0
    captured = capsys.readouterr().out
    assert "[PASS] degree_sum" in captured
    assert "fixture valid" in captured


def test_validate_corrupted_fixture(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(FIXTURE_HEADER + "Italy,IT,38,0.38,0.0172,168.31,0.50\n")
    assert main(["validate", "--fixture", str(bad)]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_pipeline_subcommand(tmp_path):
    cfg = {
        "input": {"generate": {"model": "er", "n": 30, "edges": 60, "seed": 1}},
        "stages": ["summary", "spectral"],
        "deterministic": True,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["summary"]["n"] == 30
    assert "created_at" not in data["provenance"]


def test_path_count_overflow_is_one_line_numerical_error(tmp_path, child_env):
    # 650 layers of 3 nodes, consecutive layers joined completely, and one
    # end node at each side: 3**650 shortest paths overflow float64
    layers = [[f"L{i}_{j}" for j in range(3)] for i in range(650)]
    lines = [f"s {v}" for v in layers[0]]
    for left, right in zip(layers, layers[1:]):
        lines += [f"{u} {v}" for u in left for v in right]
    lines += [f"{u} t" for u in layers[-1]]
    edges = tmp_path / "layered.edges"
    edges.write_text("\n".join(lines) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "netsync.cli", "analyze", "--edge-list", str(edges)],
        capture_output=True, text=True, env=child_env, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "numerical error: shortest-path counts overflow float64\n"


def test_no_subcommand_imports_the_sparse_solvers(tmp_path, child_env):
    # either module costs about 7 MB of peak RSS; only a sparse spectral or
    # components path may import it, inside that path
    script = """
import json, sys
from netsync.cli import main
d = sys.argv[1]
edges = f"{d}/g.edges"
with open(f"{d}/cfg.json", "w") as fh:
    json.dump({"input": {"edge_list": edges}, "stages": "all"}, fh)
for argv in (["generate", "ba", "--n", "60", "--m", "2"],
             ["generate", "er", "--n", "60", "--edges", "120"],
             ["analyze", "--edge-list", edges], ["fit", "--edge-list", edges, "--compare-er"],
             ["resilience", "--edge-list", edges, "--strategy", "attack"],
             ["sync", "--edge-list", edges, "--tmax", "1"],
             ["sync", "--edge-list", edges, "--spectral-only"],
             ["validate"], ["pipeline", "--config", f"{d}/cfg.json"]):
    assert main([*argv, "--out", f"{d}/out" if argv[0] != "generate" else edges]) == 0, argv
print(sorted(m for m in ("scipy.sparse.linalg", "scipy.sparse.csgraph") if m in sys.modules))
"""
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, env=child_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestExitCodes:
    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["analyze", "--edge-list", str(tmp_path / "nope.edges")]) == 2

    def test_malformed_line_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("a b c\n")
        assert main(["analyze", "--edge-list", str(bad)]) == 2

    def test_self_loop_is_validation_failure(self, tmp_path):
        bad = tmp_path / "loop.edges"
        bad.write_text("a a\n")
        assert main(["analyze", "--edge-list", str(bad)]) == 1

    def test_degenerate_fit_is_numerical_error(self, tmp_path):
        k4 = tmp_path / "k4.edges"
        k4.write_text("a b\na c\na d\nb c\nb d\nc d\n")
        assert main(["fit", "--edge-list", str(k4)]) == 3

    @pytest.mark.parametrize(
        "solver, failure",
        [
            ("eigsh", lambda: scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])),
            ("splu", lambda: RuntimeError("Factor is exactly singular")),
        ],
        ids=["arpack-no-convergence", "singular-factor"],
    )
    def test_sparse_spectral_failure_is_numerical_error(self, tmp_path, capsys,
                                                        monkeypatch, solver, failure):
        edges = tmp_path / "ba300.edges"
        assert main(["generate", "ba", "--n", "300", "--m", "3", "--seed", "1",
                     "--out", str(edges)]) == 0

        def fail(*args, **kwargs):
            raise failure()

        monkeypatch.setattr(scipy.sparse.linalg, solver, fail)
        capsys.readouterr()
        assert main(["sync", "--edge-list", str(edges), "--spectral-only",
                     "--out", str(tmp_path / "spectral.json")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical error:")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_invalid_generator_params(self, tmp_path):
        assert main(["generate", "ba", "--n", "3", "--m", "5",
                     "--out", str(tmp_path / "x.edges")]) == 2

    def test_non_numeric_dynamics_parameter(self, ba_file, capsys):
        argv = ["sync", "--edge-list", str(ba_file), "--dynamics", "linear:abc"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "'abc'" in err

    @pytest.mark.parametrize(
        "args, named",
        [
            (["--dt", "nan"], "dt must be finite"),
            (["--tmax", "nan"], "t_max must be finite"),
            (["--tmax", "inf"], "t_max must be finite"),
            (["--c", "nan"], "c must be finite"),
            (["--tmax", "1e15"], "bytes"),
            (["--dt", "1e-300", "--tmax", "1"], "bytes"),
            (["--dt", "1e-3", "--tmax", "1e6", "--full"], "bytes"),
            (["--dt", "0.6", "--tmax", "1"], "got t_max=1.0, dt=0.6"),
            (["--dt", "0.7", "--tmax", "1"], "got t_max=1.0, dt=0.7"),
            (["--state-dim", "-1"], "state_dim"),
            (["--dynamics", "logistic(2"], "'logistic(2'"),
            (["--dynamics", "linear:0.5)))"], "'linear:0.5)))'"),
            (["--dynamics", "zero)"], "'zero)'"),
            (["--dynamics", "linear:nan"], "'linear:nan': parameter must be finite"),
        ],
        ids=["dt-nan", "tmax-nan", "tmax-inf", "c-nan", "tmax-1e15",
             "dt-1e-300", "full-states", "dt-overshoots-tmax", "dt-stops-short-of-tmax",
             "state-dim-negative", "dynamics-open-paren", "dynamics-close-parens", "dynamics-name-paren",
             "dynamics-nan"],
    )
    def test_bad_sync_numbers(self, ba_file, capsys, args, named):
        assert main(["sync", "--edge-list", str(ba_file), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and named in err

    @pytest.mark.parametrize("dt, tmax, code", [("0.01", "100", 2), ("0.0093", "93", 2),
                                                ("0.0092", "92", 0)])
    def test_step_size_refused_from_the_largest_degree(self, tmp_path, capsys, dt, tmax, code):
        """The star K1,300 has lambda_N = 301 = max degree + 1, so RK4 grows a
        decaying mode from dt 2.7853/301 = 0.009253 on. Unrefused, dt 0.0093
        exited 0 with an error series that grew to 6.6e90."""
        star = tmp_path / "star.edges"
        star.write_text("".join(f"0 {i}\n" for i in range(1, 301)))
        out = tmp_path / "sync.csv"
        argv = ["sync", "--edge-list", str(star), "--dt", dt, "--tmax", tmax, "--out", str(out)]
        assert main(argv) == code
        if code:
            err = capsys.readouterr().err
            assert err.startswith("input error:") and "dt must be at most" in err
            assert "= 0.00925347" in err
        else:
            assert float(out.read_text().splitlines()[-1].split(",")[1]) < 1e-12

    def test_sync_on_empty_graph(self, tmp_path, capsys):
        empty = tmp_path / "empty.edges"
        empty.write_text("")
        assert main(["sync", "--edge-list", str(empty)]) == 2
        assert "at least 1 node" in capsys.readouterr().err

    def test_ensemble_too_large_for_memory(self, ba_file, capsys):
        argv = ["resilience", "--edge-list", str(ba_file), "--strategy", "error",
                "--seeds", str(10**12)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: the rows of {10**12} error runs need")
        assert "bytes of physical memory" in err

    def test_resilience_needs_a_positive_seed_count(self, ba_file, capsys):
        for count in ("0", "-3"):
            argv = ["resilience", "--edge-list", str(ba_file), "--strategy",
                    "error", "--seeds", count]
            assert main(argv) == 2
            assert "--seeds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, named",
        [
            (["--seeds", "5"], "--seeds"),
            (["--seeds", "5", "--seed", "9"], "--seeds"),
            (["--seed", "9"], "--seed"),
            (["--seed", "0"], "--seed"),
        ],
        ids=["seeds", "seeds-and-seed", "seed", "seed-zero"],
    )
    def test_attack_takes_no_seed_setting(self, ba_file, tmp_path, capsys, args, named):
        # an attack is deterministic, so a seed setting would be ignored
        out = tmp_path / "attack.csv"
        argv = ["resilience", "--edge-list", str(ba_file), "--strategy", "attack", *args,
                "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"input error: {named}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "ba", "--n", "10", "--m", "2"],
            ["generate", "er", "--n", "10", "--edges", "5"],
            ["resilience", "--strategy", "error"],
            ["resilience", "--strategy", "error", "--seeds", "3"],
            ["sync", "--tmax", "1"],
            ["fit", "--compare-er"],
        ],
        ids=["generate-ba", "generate-er", "resilience-error", "resilience-ensemble",
             "sync", "fit-compare-er"],
    )
    def test_negative_seed_is_input_error(self, ba_file, tmp_path, capsys, argv):
        if argv[0] != "generate":
            argv = argv[:1] + ["--edge-list", str(ba_file)] + argv[1:]
        assert main(argv + ["--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "input error: seed must be a non-negative integer, got -1\n"
        )

    @pytest.mark.parametrize(
        "args, named",
        [
            (["--comparison-out", "cmp.csv", "--out", "fit.json"],
             "--comparison-out: needs --compare-er"),
            (["--compare-er", "--comparison-out", "same.csv", "--out", "same.csv"],
             "--comparison-out: same.csv is also --out"),
            (["--compare-er", "--comparison-out", "same.csv", "--out", "./sub/../same.csv"],
             "--comparison-out: same.csv is also --out"),
        ],
        ids=["without-compare-er", "same-as-out", "same-as-out-by-another-path"],
    )
    def test_comparison_out_ignored_or_overwritten(self, ba_file, tmp_path, monkeypatch,
                                                   capsys, args, named):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert main(["fit", "--edge-list", str(ba_file), *args]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {named}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ba.edges", "sub"]

    def test_non_utf8_edge_list_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "binary.edges"
        bad.write_bytes(b"\xff\xfea b\n")
        assert main(["analyze", "--edge-list", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {bad}: not UTF-8 text")

    def test_non_utf8_fixture_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "binary.csv"
        bad.write_bytes(b"\xffcountry,code\n")
        assert main(["validate", "--fixture", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {bad}: not UTF-8 text")

    @pytest.mark.parametrize(
        "text, named",
        [
            ("country,code\nItaly,IT\n", "missing column 'degree'"),
            (FIXTURE_HEADER + "Italy,IT,many,0.38,0.0172,168.31,0.50\n", ":2: invalid literal"),
            (FIXTURE_HEADER + "Italy,IT,38\n", ":2: float() argument"),
            ("0 1\n1 2\n", "missing column 'country', 'code', 'degree', 'clustering'"),
            ("", "missing column 'country', 'code', 'degree', 'clustering'"),
            (FIXTURE_HEADER + "Italy,IT,38,0.38,0.0172,168.31,1.00\n"
             + "Spain,ES," + "9" * 131_073 + ",0.5,0.01,1.0,0.5\n",
             ":3: field larger than field limit"),
            ("x" * 131_073 + "," + FIXTURE_HEADER, ":1: field larger than field limit"),
        ],
        ids=["missing-column", "bad-degree", "short-row", "edge-list", "empty",
             "overlong-field", "overlong-header"],
    )
    def test_malformed_fixture_is_input_error(self, tmp_path, capsys, text, named):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert main(["validate", "--fixture", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {bad}") and named in err


# (subcommand argv, an option it does not read): each is rejected by argparse
REMOVED_OPTIONS = [
    (argv, option)
    for argv, options in [
        (["generate", "ba", "--n", "10", "--m", "2"], ["--format", "--deterministic"]),
        (["generate", "er", "--n", "10", "--edges", "5"], ["--format", "--deterministic"]),
        (["analyze", "--edge-list", "x"], ["--seed", "--deterministic"]),
        (["fit", "--edge-list", "x"], ["--format", "--deterministic"]),
        (["resilience", "--edge-list", "x", "--strategy", "attack"],
         ["--format", "--deterministic"]),
        (["sync", "--edge-list", "x"], ["--format", "--deterministic", "--tol"]),
        (["validate"], ["--seed", "--format", "--deterministic"]),
        (["pipeline", "--config", "x"], ["--seed", "--format"]),
    ]
    for option in options
]


@pytest.mark.parametrize(
    "argv, option", REMOVED_OPTIONS,
    ids=[f"{' '.join(a[:2] if a[0] == 'generate' else a[:1])} {o}" for a, o in REMOVED_OPTIONS],
)
def test_unread_option_is_rejected(capsys, argv, option):
    value = {"--seed": ["1"], "--format": ["csv"], "--deterministic": [],
             "--tol": ["1e-3"]}[option]
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, *value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {' '.join([option, *value])}" in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def tiny_edge_lists(tmp_path_factory):
    """Edge lists of at most 12 nodes: a BA graph, K4 (no degree tail), one
    edge, a self-loop and an empty file."""
    root = tmp_path_factory.mktemp("tiny")
    texts = {"k4": "a b\na c\na d\nb c\nb d\nc d\n", "edge": "a b\n",
             "loop": "a a\n", "empty": ""}
    for name, text in texts.items():
        (root / f"{name}.edges").write_text(text)
    assert main(["generate", "ba", "--n", "12", "--m", "2", "--seed", "1",
                 "--out", str(root / "ba.edges")]) == 0
    return sorted(str(path) for path in root.glob("*.edges"))


# an integer too large for a float
HUGE = 10**400
# an integer whose products have more digits than Python converts to a string
LONG = 10**3000


def numbers(**valid):
    """argv for each named option: one of its valid values (space-separated),
    0, -1, nan, inf, a non-number or HUGE."""
    pairs = [
        st.tuples(st.just("--" + name.replace("_", "-")),
                  st.sampled_from([*good.split(), "0", "-1", "nan", "inf", "x", str(HUGE)]))
        for name, good in valid.items()
    ]
    return st.tuples(*pairs).map(lambda ps: [arg for pair in ps for arg in pair])


# --edge-list with one of tiny_edge_lists, named relative to their directory
EDGE_LIST = st.sampled_from(["ba.edges", "k4.edges", "edge.edges", "loop.edges",
                             "empty.edges"]).map(lambda name: ["--edge-list", name])
# argv of a subcommand with every number option drawn by numbers()
OPTION_ARGVS = st.one_of(
    st.tuples(st.just(["generate", "ba"]), numbers(n="30", m="2", m0="3", seed="1")),
    st.tuples(st.just(["generate", "er"]), numbers(n="30", edges="40", seed="1")),
    st.tuples(st.just(["analyze"]), EDGE_LIST,
              st.sampled_from([["--format", "json"], ["--format", "csv"]])),
    st.tuples(st.just(["fit"]), EDGE_LIST, st.sampled_from([[], ["--compare-er"]]),
              numbers(seed="1")),
    st.tuples(st.just(["resilience"]), EDGE_LIST,
              st.sampled_from([["--strategy", "attack"], ["--strategy", "error"]]),
              numbers(seeds="3", seed="1", record_every="0.25")),
    st.tuples(st.just(["sync"]), EDGE_LIST, st.sampled_from([[], ["--spectral-only"]]),
              numbers(c="1", dt="0.1 0.6", tmax="1", state_dim="2"),
              # linear:1e10 overflows at dt 0.1, t_max 1: a divergence, exit 3
              st.sampled_from(["zero", "linear:-0.3", "logistic:2", "linear:1e10",
                               "bogus", "linear:x"]).map(lambda d: ["--dynamics", d])),
).map(lambda parts: [arg for part in parts for arg in part])


@given(argv=OPTION_ARGVS)
@example(argv=["generate", "ba", "--n", str(HUGE), "--m", "3"])
@example(argv=["sync", "--edge-list", "k4.edges", "--state-dim", str(HUGE)])
@example(argv=["generate", "er", "--n", str(LONG), "--edges", "-1"])
@example(argv=["generate", "ba", "--n", str(2 * LONG), "--m", str(LONG)])
@settings(max_examples=60, deadline=None)
def test_every_option_value_gives_an_exit_code(tiny_edge_lists, argv):
    # every valid value is small: at most 3 seeds, t_max 1 at dt 0.1, 30 nodes
    cwd = os.getcwd()
    os.chdir(os.path.dirname(tiny_edge_lists[0]))
    try:
        code = main([*argv, "--out", "out"])
    except SystemExit as exc:  # argparse refuses a value it cannot parse
        code = exc.code
    finally:
        os.chdir(cwd)
    assert code in {0, 1, 2, 3}, argv


# a wrongly typed or out-of-range JSON value, tried in place of every config
# field; ABSENT leaves the key out
WRONG_JSON = [[], {}, "x", True, None, -1, math.nan, HUGE]
ABSENT = object()
# the valid values of each top-level config field: at most 30 nodes and 3
# seeds, and the edge lists of tiny_edge_lists, named relative to their
# directory, or a missing file
CONFIG_VALUES = {
    "input": [
        {"generate": {"model": "ba", "n": 30, "m": 2}},
        {"generate": {"model": "ba", "n": 30, "m": 2, "m0": 3, "seed": 1}},
        {"generate": {"model": "er", "n": 30, "edges": 40}},
        {"generate": {"model": "er", "n": 30, "m": 40, "seed": 2}},
        *({"edge_list": f"{name}.edges"} for name in ("ba", "k4", "loop", "empty", "none")),
    ],
    "stages": ["all", [], ["summary", "centralities"], ["fit", "spectral"],
               ["resilience", "summary"]],
    "deterministic": [True, False],
    "resilience": [{}, {"strategy": "attack", "record_every": 1},
                   {"strategy": "error", "seeds": 3, "seed": 2, "record_every": 0.25}],
}


def key_paths(obj, prefix=()):
    """The key path of every field of a JSON object, nested ones included."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


@st.composite
def configs(draw):
    """A valid config with at most one field, at any depth, set to a value
    of WRONG_JSON or left out."""
    config = copy.deepcopy({key: draw(st.sampled_from(values))
                            for key, values in CONFIG_VALUES.items()})
    path = draw(st.none() | st.sampled_from(list(key_paths(config))))
    if path is not None:
        *outer, key = path
        obj = functools.reduce(dict.__getitem__, outer, config)
        value = draw(st.sampled_from([*WRONG_JSON, ABSENT]))
        if value is ABSENT:
            del obj[key]
        else:
            obj[key] = value
    return config


@given(config=configs(), flag=st.booleans())
@example(config={"input": {"generate": {"model": []}}}, flag=False)
@example(config={"input": {"generate": {"model": "ba", "n": HUGE, "m": 2}}}, flag=False)
@example(config={"input": {"generate": {"model": "er", "n": LONG, "edges": -1}}}, flag=False)
@settings(max_examples=60, deadline=None)
def test_every_config_gives_an_exit_code(tiny_edge_lists, config, flag):
    cwd = os.getcwd()
    os.chdir(os.path.dirname(tiny_edge_lists[0]))
    try:
        with open("cfg.json", "w") as fh:
            json.dump(config, fh)
        argv = ["pipeline", "--config", "cfg.json", "--out", "report.json"]
        code = main(argv + (["--deterministic"] if flag else []))
    finally:
        os.chdir(cwd)
    assert code in {0, 1, 2, 3}, config


def test_deeply_nested_config_is_one_line_input_error(tmp_path, capsys, child_env):
    # json.loads meets Python's recursion limit long before this depth
    config = tmp_path / "deep.json"
    config.write_text("[" * 100_000 + "]" * 100_000)
    argv = ["pipeline", "--config", str(config)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"input error: --config: {config} nests too deeply to read\n"
    proc = subprocess.run([sys.executable, "-m", "netsync.cli", *argv],
                          capture_output=True, text=True, env=child_env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)


HUGE_ARGVS = {
    "generate-ba": (["generate", "ba", "--n", str(HUGE), "--m", "3"], "bytes"),
    "generate-er": (["generate", "er", "--n", str(HUGE), "--edges", "3"], "bytes"),
    "config-ba": ({"model": "ba", "n": HUGE, "m": 3}, "bytes"),
    "config-er": ({"model": "er", "n": HUGE, "edges": 3}, "bytes"),
    "resilience-seeds": (["resilience", "--edge-list", "k4.edges", "--strategy", "error",
                          "--seeds", str(HUGE)], "bytes"),
    "sync-state-dim": (["sync", "--edge-list", "k4.edges", "--state-dim", str(HUGE)], "bytes"),
    "sync-state-dim-empty": (["sync", "--edge-list", "empty.edges", "--state-dim", str(HUGE)],
                             "at least 1 node"),
    # the edge bound n(n-1)/2 and the BA edge count, shown to 6 digits
    "generate-er-digits": (["generate", "er", "--n", str(LONG), "--edges", "-1"],
                           "outside [0, 5e+5999]"),
    "generate-ba-digits": (["generate", "ba", "--n", str(2 * LONG), "--m", str(LONG)],
                           "with 1.5e+6000 edges need"),
    "config-er-digits": ({"model": "er", "n": LONG, "edges": -1}, "outside [0, 5e+5999]"),
}


@pytest.mark.parametrize("argv, named", HUGE_ARGVS.values(), ids=HUGE_ARGVS)
def test_integer_too_large_for_a_float_is_one_line_input_error(tiny_edge_lists, tmp_path,
                                                                 capsys, argv, named):
    if isinstance(argv, dict):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"input": {"generate": argv}}))
        argv = ["pipeline", "--config", str(config)]
    cwd = os.getcwd()
    os.chdir(os.path.dirname(tiny_edge_lists[0]))
    try:
        code = main([*argv, "--out", str(tmp_path / "out")])
    finally:
        os.chdir(cwd)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("input error:") and err.count("\n") == 1
    assert named in err and "Traceback" not in err


PACKAGED_FIXTURE = (resources.files("netsync") / "data" / "een_node_stats.csv").read_text()
# a cell value tried in a fixture; the last is over csv's field size limit
CELLS = ["", "x", "-1", "0", "nan", "inf", "1e309", "2.5", '"', '"a,b"', "\x00", "9" * 131_073]


@st.composite
def fixture_texts(draw):
    """The packaged fixture with up to three cells, rows or header names
    changed, dropped, copied, cut short or extended."""
    rows = [line.split(",") for line in PACKAGED_FIXTURE.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        if not rows:
            break
        r = draw(st.integers(0, len(rows) - 1))  # row 0 is the header
        change = draw(st.sampled_from(["cell", "drop", "copy", "cut", "extend"]))
        if change == "cell":
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(st.sampled_from(CELLS))
        elif change == "drop":
            del rows[r]
        elif change == "copy":
            rows.insert(r, list(rows[r]))
        elif change == "cut":
            rows[r] = rows[r][: draw(st.integers(0, len(rows[r]) - 1))] or [""]
        else:
            rows[r].append(draw(st.sampled_from(CELLS)))
    return "".join(",".join(row) + "\n" for row in rows)


@given(text=fixture_texts())
@example(text=PACKAGED_FIXTURE.replace("Italy,IT,38,", "Italy,IT," + "9" * 131_073 + ","))
@settings(max_examples=60, deadline=None)
def test_every_fixture_text_gives_an_exit_code(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fixture.csv"
    path.write_text(text)
    code = main(["validate", "--fixture", str(path),
                 "--out", str(tmp_path_factory.getbasetemp() / "validate.txt")])
    assert code in {0, 1, 2, 3}


class TestPipelineConfigErrors:
    """Every malformed config is an input error (exit 2) naming its field."""

    GOOD = {
        "input": {"generate": {"model": "er", "n": 20, "edges": 40, "seed": 1}},
        "stages": ["resilience"],
    }

    def run(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code = main(["pipeline", "--config", str(path),
                     "--out", str(tmp_path / "report.json")])
        return code, capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, '{"input": ')
        assert code == 2 and "--config" in err

    def test_top_level_not_an_object(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, "[]")
        assert code == 2 and "config: expected a JSON object" in err

    @pytest.mark.parametrize(
        "resilience, field",
        [
            ({"strategy": "error", "seeds": "x"}, "resilience.seeds"),
            ({"strategy": "error", "seeds": 2.5}, "resilience.seeds"),
            ({"strategy": "error", "seed": "x"}, "resilience.seed"),
            ({"strategy": "error", "seed": 1.5}, "resilience.seed"),
            ({"record_every": 0}, "resilience.record_every"),
            ({"record_every": 1.5}, "resilience.record_every"),
            ({"record_every": -0.1}, "resilience.record_every"),
            ({"record_every": "often"}, "resilience.record_every"),
            ({"strategy": "error", "seed": -1}, "resilience.seed"),
            ({"strategy": "error", "sedes": 10}, "resilience.sedes"),
            ({"strategy": "attack", "edges": 10}, "resilience.edges"),
            ({"strategy": "attack", "seeds": 5}, "resilience.seeds"),
            ({"strategy": "attack", "seed": 9}, "resilience.seed"),
            ({"strategy": "attack", "seeds": 5, "seed": 9}, "resilience.seeds"),
            ({"seed": 0}, "resilience.seed"),
        ],
    )
    def test_bad_resilience_field(self, tmp_path, capsys, resilience, field):
        cfg = dict(self.GOOD, resilience=resilience)
        code, err = self.run(tmp_path, capsys, json.dumps(cfg))
        assert code == 2 and f"{field}:" in err

    @pytest.mark.parametrize(
        "generate, field",
        [
            ({"model": "ba", "n": "abc", "m": 2}, "input.generate.n"),
            ({"model": "ba", "n": 20, "m": 2.5}, "input.generate.m"),
            ({"model": "ba", "n": 20, "m": True}, "input.generate.m"),
            ({"model": "ba", "n": 20, "m": 2, "m0": "3"}, "input.generate.m0"),
            ({"model": "er", "n": 20, "edges": [40]}, "input.generate.edges"),
            ({"model": "er", "n": 20, "edges": 40, "seed": 1.5}, "input.generate.seed"),
            ({"model": "er", "n": 20, "edges": 40, "seed": False}, "input.generate.seed"),
            ({"model": "er", "n": 20, "edges": 40, "seed": -1}, "input.generate.seed"),
            ({"model": "er", "n": 20, "edges": 40, "sede": 3}, "input.generate.sede"),
            ({"model": "er", "n": 20, "edges": 40, "m": 40}, "input.generate.m"),
            ({"model": "er", "n": 20, "m": 40, "m0": 3}, "input.generate.m0"),
            ({"model": "ba", "n": 20, "m": 2, "edges": 40}, "input.generate.edges"),
            ({"model": []}, "input.generate.model"),
            ({"model": {}}, "input.generate.model"),
        ],
    )
    def test_bad_generator_field(self, tmp_path, capsys, generate, field):
        cfg = dict(self.GOOD, input={"generate": generate})
        code, err = self.run(tmp_path, capsys, json.dumps(cfg))
        assert code == 2 and f"{field}:" in err

    @pytest.mark.parametrize(
        "stages, message",
        [
            (["summary", "summary"], "stages[1]: duplicate stage 'summary'"),
            (["resilience", "summary", "resilience"], "stages[2]: duplicate stage 'resilience'"),
            (["summary", "sumary"], "stages[1]: unknown stage 'sumary'"),
            ("summary", "stages: expected 'all' or a list"),
        ],
        ids=["duplicate", "duplicate-apart", "unknown", "not-a-list"],
    )
    def test_bad_stages(self, tmp_path, capsys, stages, message):
        cfg = dict(self.GOOD, stages=stages)
        code, err = self.run(tmp_path, capsys, json.dumps(cfg))
        assert code == 2 and message in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("edge_list", [None, True, [], 3],
                             ids=["null", "true", "list", "number"])
    def test_edge_list_must_be_a_string(self, tmp_path, capsys, edge_list):
        cfg = dict(self.GOOD, input={"edge_list": edge_list})
        code, err = self.run(tmp_path, capsys, json.dumps(cfg))
        assert code == 2 and "input.edge_list:" in err
        assert not (tmp_path / "report.json").exists()

    def test_unknown_input_field(self, tmp_path, capsys):
        cfg = dict(self.GOOD, input={**self.GOOD["input"], "edgelist": "g.edges"})
        code, err = self.run(tmp_path, capsys, json.dumps(cfg))
        assert code == 2 and "input.edgelist: unknown config field" in err

    def test_generated_graph_too_large_for_memory(self, tmp_path, capsys):
        cfg = dict(self.GOOD, input={"generate": {"model": "ba", "n": 10**12, "m": 3}})
        code, err = self.run(tmp_path, capsys, json.dumps(cfg))
        assert code == 2 and "bytes of physical memory" in err

    def test_ensemble_too_large_for_memory_fails_its_stage(self, tmp_path, capsys):
        cfg = dict(self.GOOD, resilience={"strategy": "error", "seeds": 10**12})
        code, err = self.run(tmp_path, capsys, json.dumps(cfg))
        report = json.loads((tmp_path / "report.json").read_text())
        assert code == 0 and "resilience" not in report
        assert report["errors"]["resilience"].startswith(f"the rows of {10**12} error runs need")

    def test_deterministic_must_be_boolean(self, tmp_path, capsys):
        cfg = dict(self.GOOD, deterministic="false")
        code, err = self.run(tmp_path, capsys, json.dumps(cfg))
        assert code == 2 and "deterministic:" in err

    def test_good_config_runs(self, tmp_path, capsys):
        cfg = dict(self.GOOD, resilience={"strategy": "error", "seeds": 2,
                                          "seed": 4, "record_every": 1})
        code, err = self.run(tmp_path, capsys, json.dumps(cfg))
        assert code == 0 and err == ""
