import io
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netsync.cli
import netsync.metrics
import netsync.report
from netsync.edgelist import serialize_edge_list
from netsync.errors import InputError, NumericalError
from netsync.generators import ERParams, generate_er
from netsync.graph import Graph
from netsync.metrics import summarize
from netsync.report import (
    ALL_STAGES,
    PipelineConfig,
    report_to_json,
    run_pipeline,
    to_json,
    trajectory_csv,
)
from netsync.synchronization import SyncConfig, simulate

from oracles import indented_json, report_to_dict


def er_config(**overrides):
    raw = {
        "input": {"generate": {"model": "er", "n": 49, "edges": 351, "seed": 3}},
        "stages": "all",
        "deterministic": True,
    }
    raw.update(overrides)
    return PipelineConfig.from_dict(raw)


class TestConfigParsing:
    def test_all_stages_expanded(self):
        cfg = er_config()
        assert cfg.stages == list(ALL_STAGES)

    def test_unknown_stage_has_field_path(self):
        with pytest.raises(InputError, match=r"stages\[1\]"):
            er_config(stages=["summary", "bogus"])

    def test_input_requires_exactly_one_source(self):
        with pytest.raises(InputError, match="exactly one"):
            PipelineConfig.from_dict(
                {"input": {"edge_list": "x", "generate": {"model": "er"}}}
            )

    def test_unknown_model(self):
        with pytest.raises(InputError, match="input.generate.model"):
            PipelineConfig.from_dict(
                {"input": {"generate": {"model": "ws", "n": 5}}}
            )

    def test_unknown_top_level_field(self):
        with pytest.raises(InputError, match="bogus"):
            PipelineConfig.from_dict({"input": {"edge_list": "x"}, "bogus": 1})

    def test_bad_strategy(self):
        with pytest.raises(InputError, match="resilience.strategy"):
            er_config(resilience={"strategy": "nuke"})

    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_deterministic_must_be_boolean(self, value):
        with pytest.raises(InputError, match="deterministic"):
            er_config(deterministic=value)

    def test_missing_generator_field(self):
        with pytest.raises(InputError, match="input.generate"):
            PipelineConfig.from_dict(
                {"input": {"generate": {"model": "ba", "n": 10}}}
            )


class TestPipeline:
    def test_er_case_study_scale_full_report(self):
        report = run_pipeline(er_config())
        assert not report.errors
        assert report.summary.n == 49 and report.summary.m == 351
        assert report.node_stats is not None and len(report.node_stats) == 49
        assert report.power_law_fit is not None and report.power_law_fit.gamma > 1
        assert report.spectral is not None
        assert report.spectral.lambda1 == pytest.approx(0.0, abs=1e-8)
        assert report.resilience is not None
        # regression baselines for this seeded desk-scale run
        assert report.summary.average_path_length == pytest.approx(
            1.704931972789116, rel=1e-12
        )
        assert report.summary.diameter == 3
        assert report.summary.global_clustering == pytest.approx(
            0.27454566680367555, rel=1e-12
        )
        assert report.spectral.lambda2 == pytest.approx(
            -7.139600116251912, rel=1e-9
        )

    def test_empty_stage_list_gives_provenance_only(self):
        cfg = er_config(stages=[])
        report = run_pipeline(cfg)
        data = report_to_dict(report)
        assert set(data) == {"provenance", "errors"}
        assert data["provenance"]["input"]["generator"]["m"] == 351

    def test_k4_closed_forms_embedded_and_fit_failure_recorded(self, tmp_path):
        k4 = Graph(4, list(itertools.combinations(range(4), 2)))
        path = tmp_path / "k4.edges"
        path.write_text(serialize_edge_list(k4))
        cfg = PipelineConfig.from_dict(
            {"input": {"edge_list": str(path)}, "stages": "all"}
        )
        report = run_pipeline(cfg)
        assert report.summary.average_path_length == 1.0
        assert report.summary.global_clustering == 1.0
        assert report.summary.diameter == 1
        # all degrees equal: the fit stage fails but the later stages ran
        assert "fit" in report.errors
        assert report.spectral is not None
        assert report.resilience is not None

    def test_round_trip_json(self):
        report = run_pipeline(er_config())
        data = report_to_dict(report)
        assert json.loads(report_to_json(report)) == data

    def test_deterministic_repetition_byte_identical(self):
        a = report_to_json(run_pipeline(er_config()))
        b = report_to_json(run_pipeline(er_config()))
        assert a == b

    def test_thread_count_does_not_change_output(self):
        # the report has no thread or worker setting; two fresh configs and
        # runs still give the same bytes
        assert report_to_json(run_pipeline(er_config())) == report_to_json(
            run_pipeline(er_config())
        )

    def test_timestamp_present_without_deterministic_flag(self):
        cfg = er_config(deterministic=False, stages=[])
        report = run_pipeline(cfg)
        assert "created_at" in report.provenance

    def test_error_strategy_ensemble(self):
        cfg = er_config(
            stages=["resilience"],
            resilience={"strategy": "error", "seeds": 3, "record_every": 0.1},
        )
        report = run_pipeline(cfg)
        data = report_to_dict(report)
        assert data["resilience"]["kind"] == "ensemble"
        assert data["resilience"]["seeds"] == [0, 1, 2]

    def test_overflow_costs_only_centralities(self, monkeypatch):
        def overflowing(g):
            raise NumericalError("shortest-path counts overflow float64")

        monkeypatch.setattr(netsync.metrics, "_brandes", overflowing)
        report = run_pipeline(er_config(stages=["summary", "centralities"]))
        assert report.errors == {"centralities": "shortest-path counts overflow float64"}
        assert report.node_stats is None
        assert report.summary == summarize(generate_er(ERParams(n=49, m=351, seed=3)))

    def test_eigenvector_failure_costs_only_centralities(self, monkeypatch):
        # the Brandes sweep ran and its summary is lost with the table; a
        # staged summary comes from the forward sweep instead
        def failing(g, largest):
            raise NumericalError("eigenvector residual above tolerance")

        monkeypatch.setattr(netsync.metrics, "_eigenvector", failing)
        report = run_pipeline(er_config())
        assert report.errors == {"centralities": "eigenvector residual above tolerance"}
        assert report.node_stats is None
        assert report.summary == summarize(generate_er(ERParams(n=49, m=351, seed=3)))
        assert report.spectral is not None and report.resilience is not None


SUMMARY_KEYS = {
    "n", "m", "average_path_length", "diameter", "global_clustering",
    "degree_distribution", "unreachable_pair_fraction", "connected", "component_count",
}
NODE_KEYS = {"node", "label", "degree", "clustering", "closeness", "betweenness", "eigenvector"}
FIT_KEYS = {"gamma", "k_min", "ks_stat", "n_tail", "dropped_zeros"}
SPECTRAL_KEYS = {
    "lambda1", "lambda2", "gap", "stable", "zero_multiplicity", "closeness_threshold",
}
TRACE_ROW_KEYS = {"fraction_removed", "diameter", "lcc_size", "components"}
ENSEMBLE_ROW_KEYS = {"fraction_removed"} | {
    f"{q}_{s}" for q in ("diameter", "lcc", "components") for s in ("median", "min", "max")
}


class TestReportSchema:
    """The report's keys are the result dataclasses' fields: adding a field
    changes the report, so the key sets are fixed here."""

    def test_single_trace_report(self):
        data = report_to_dict(run_pipeline(er_config()))
        assert set(data) == {
            "provenance", "errors", "summary", "node_stats", "power_law_fit",
            "spectral", "resilience",
        }
        assert set(data["summary"]) == SUMMARY_KEYS
        assert list(data["summary"]["degree_distribution"]) == [
            str(k) for k in sorted(int(k) for k in data["summary"]["degree_distribution"])
        ]
        for row in data["node_stats"]:
            assert set(row) == NODE_KEYS
            assert {type(row[k]) for k in ("clustering", "betweenness", "eigenvector")} == {float}
        assert set(data["power_law_fit"]) == FIT_KEYS
        assert set(data["spectral"]) == SPECTRAL_KEYS
        res = data["resilience"]
        assert set(res) == {"kind", "strategy", "seed", "initial_n", "rows"}
        assert (res["kind"], res["strategy"], res["seed"]) == ("single", "attack", None)
        assert all(set(row) == TRACE_ROW_KEYS for row in res["rows"])

    def test_ensemble_report(self):
        cfg = er_config(
            stages=["resilience"],
            resilience={"strategy": "error", "seeds": 2, "record_every": 0.25},
        )
        res = report_to_dict(run_pipeline(cfg))["resilience"]
        assert set(res) == {"kind", "strategy", "seeds", "initial_n", "rows"}
        assert (res["kind"], res["strategy"]) == ("ensemble", "error")
        assert all(set(row) == ENSEMBLE_ROW_KEYS for row in res["rows"])
        for row in res["rows"]:
            assert all(type(v) is (float if k.endswith(("_median", "removed")) else int)
                       for k, v in row.items())


def test_one_sweep_of_every_source(monkeypatch, tmp_path):
    # each sweep of every source, each clustering count and each components
    # pass of `metrics` is counted: a per-node table, and a summary beside
    # it, read one Brandes sweep; a summary alone reads the forward sweep
    calls = Counter()
    for name in ("_brandes", "_forward_sweep", "local_clustering", "connected_components"):
        def counting(g, name=name, real=getattr(netsync.metrics, name)):
            calls[name] += 1
            return real(g)

        monkeypatch.setattr(netsync.metrics, name, counting)
    once = {"local_clustering": 1, "connected_components": 1}
    for stages, sweep in (("all", "_brandes"), (["summary"], "_forward_sweep"),
                          (["centralities"], "_brandes"),
                          (["centralities", "fit", "summary"], "_brandes")):
        calls.clear()
        run_pipeline(er_config(stages=stages))
        assert calls == {sweep: 1, **once}, stages

    edges = tmp_path / "er.edges"
    edges.write_text(serialize_edge_list(generate_er(ERParams(n=49, m=351, seed=3))))
    for fmt in ("json", "csv"):
        calls.clear()
        out = tmp_path / f"analyze.{fmt}"
        argv = ["analyze", "--edge-list", str(edges), "--format", fmt, "--out", str(out)]
        assert netsync.cli.main(argv) == 0
        assert calls == {"_brandes": 1, **once}, fmt


@dataclass
class Pair:
    first: Any
    second: Any


@dataclass
class Empty:
    pass


ESCAPED = ['"q"', "a\\b", "ü", "\x01", "\u2028", "\ud7ff\U0001f600"]
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324]
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from(ESCAPED), st.sampled_from(SPECIAL_FLOATS),
    st.floats().map(np.float64),
)
KEYS = st.one_of(st.text(), st.integers(), st.booleans(), st.sampled_from(ESCAPED))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
        st.builds(Pair, inner, inner),
        st.just(Empty()),
    ),
    max_leaves=20,
)


@given(VALUES)
@settings(max_examples=300, deadline=None)
def test_to_json_equals_the_indented_json_oracle(value):
    assert to_json(value) == indented_json(value)


def test_to_json_on_empty_containers_at_every_depth():
    for value in ([], {}, (), Empty(), [[]], {"a": {}}, Pair([], {}), [[[], {}], [Empty()]],
                  {"x": [1, []], "y": Pair(2.5, ())}, [np.float64(-0.0), 1]):
        assert to_json(value) == indented_json(value)


CLI_REPORTS = {
    "analyze": ["analyze"],
    "fit_inline": ["fit", "--compare-er"],
    "spectral": ["sync", "--spectral-only"],
}


@pytest.mark.parametrize("kind", sorted(CLI_REPORTS))
def test_cli_reports_equal_the_indented_json_oracle(kind, monkeypatch, tmp_path):
    edges = tmp_path / "g.edges"
    edges.write_text(serialize_edge_list(generate_er(ERParams(n=49, m=351, seed=3))))
    argv = [*CLI_REPORTS[kind], "--edge-list", str(edges), "--out"]
    assert netsync.cli.main([*argv, str(tmp_path / "got.json")]) == 0
    monkeypatch.setattr(netsync.cli, "to_json", indented_json)
    assert netsync.cli.main([*argv, str(tmp_path / "want.json")]) == 0
    got, want = (tmp_path / "got.json").read_text(), (tmp_path / "want.json").read_text()
    assert got == want
    if kind == "fit_inline":
        assert "comparison_csv" in json.loads(got)


def overflowing(g):
    raise NumericalError("shortest-path counts overflow float64")


PIPELINE_REPORTS = {
    "attack": {},
    "ensemble": {"resilience": {"strategy": "error", "seeds": 3, "seed": 1}},
    "failed_stage": {"stages": ["summary", "centralities", "spectral"]},
    "timestamped": {"deterministic": False},
}


@pytest.mark.parametrize("kind", sorted(PIPELINE_REPORTS))
def test_pipeline_reports_equal_the_indented_json_oracle(kind, monkeypatch):
    if kind == "failed_stage":
        monkeypatch.setattr(netsync.metrics, "_brandes", overflowing)
    report = run_pipeline(er_config(**PIPELINE_REPORTS[kind]))
    assert report_to_json(report) == indented_json(report_to_dict(report))
    assert bool(report.errors) == (kind == "failed_stage")


class TestTrajectoryCsv:
    def test_full_needs_kept_states(self):
        g = Graph(3, [(0, 1), (1, 2)])
        cfg = SyncConfig(dt=0.1, t_max=1.0)
        x0 = [[1.0], [0.0], [-1.0]]
        out = io.StringIO()
        trajectory_csv(simulate(g, cfg, x0, keep_states=True), out, full=True)
        lines = out.getvalue().splitlines()
        assert lines[0] == "t,sync_error,node0_s0,node1_s0,node2_s0"
        assert len(lines) == 12
        with pytest.raises(InputError, match="keep_states"):
            trajectory_csv(simulate(g, cfg, x0), io.StringIO(), full=True)
