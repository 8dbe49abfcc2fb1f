"""Pipeline orchestration and report emission.

A pipeline run ingests or generates a graph, executes the requested stages
in a fixed order (summary -> centralities -> fit -> spectral -> resilience),
and embeds each stage's output in a single report. A failing stage is
recorded under ``errors`` without aborting the stages that do not depend
on it. Reports serialize to JSON with sorted keys so that a seeded run is
byte-identical across repetitions; timestamps are omitted when the
deterministic flag is set.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from typing import Any

from .edgelist import ingest_edge_list
from .errors import InputError, ToolkitError
from .generators import BAParams, ERParams, generate_ba, generate_er
from .graph import Graph
from .metrics import GraphSummary, NodeStats, node_stats, summarize
from .powerlaw import PowerLawFit, fit_mle
from .resilience import (
    EnsembleTrace,
    RandomError,
    ResilienceTrace,
    TargetedAttack,
    run_error_ensemble,
    run_resilience,
)
from .synchronization import SpectralReport, SyncTrajectory, spectral_stability

SCHEMA_VERSION = 1
ALL_STAGES = ("summary", "centralities", "fit", "spectral", "resilience")


@dataclass
class PipelineConfig:
    edge_list: str | None = None
    generate: dict[str, Any] | None = None
    stages: list[str] = field(default_factory=list)
    deterministic: bool = False
    resilience_strategy: str = "attack"
    resilience_seeds: int = 1
    resilience_seed: int = 0
    resilience_record_every: float = 0.02

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "PipelineConfig":
        cfg = cls()
        if not isinstance(raw, dict):
            raise InputError(
                f"config: expected a JSON object, got {type(raw).__name__}"
            )
        known = {"input", "stages", "deterministic", "resilience"}
        for key in raw:
            if key not in known:
                raise InputError(f"{key}: unknown config field")

        inp = raw.get("input")
        if not isinstance(inp, dict):
            raise InputError("input: required object with 'edge_list' or 'generate'")
        if ("edge_list" in inp) == ("generate" in inp):
            raise InputError("input: exactly one of 'edge_list' or 'generate'")
        if "edge_list" in inp:
            cfg.edge_list = str(inp["edge_list"])
        else:
            gen = inp["generate"]
            if not isinstance(gen, dict) or "model" not in gen:
                raise InputError("input.generate.model: required ('ba' or 'er')")
            if gen["model"] not in ("ba", "er"):
                raise InputError(
                    f"input.generate.model: expected 'ba' or 'er', got {gen['model']!r}"
                )
            # the er model takes its edge count as "edges" or, failing that, "m"
            er_edges = gen["model"] == "er" and ("edges" in gen or "m" not in gen)
            for key in ("n", "edges" if er_edges else "m"):
                _integer(gen, "input.generate", key)
            for key in ("m0", "seed"):
                _integer(gen, "input.generate", key, default=0)
            cfg.generate = dict(gen)

        stages = raw.get("stages", "all")
        if stages == "all":
            cfg.stages = list(ALL_STAGES)
        elif isinstance(stages, list):
            for pos, name in enumerate(stages):
                if name not in ALL_STAGES:
                    raise InputError(f"stages[{pos}]: unknown stage {name!r}")
            cfg.stages = list(stages)
        else:
            raise InputError("stages: expected 'all' or a list of stage names")

        deterministic = raw.get("deterministic", False)
        if not isinstance(deterministic, bool):
            raise InputError(f"deterministic: expected a boolean, got {deterministic!r}")
        cfg.deterministic = deterministic

        res = raw.get("resilience", {})
        if not isinstance(res, dict):
            raise InputError("resilience: expected an object")
        cfg.resilience_strategy = res.get("strategy", "attack")
        if cfg.resilience_strategy not in ("attack", "error"):
            raise InputError(
                f"resilience.strategy: expected 'attack' or 'error', "
                f"got {cfg.resilience_strategy!r}"
            )
        cfg.resilience_seeds = _integer(res, "resilience", "seeds", 1)
        if cfg.resilience_seeds < 1:
            raise InputError("resilience.seeds: must be >= 1")
        cfg.resilience_seed = _integer(res, "resilience", "seed", 0)
        every = res.get("record_every", 0.02)
        if isinstance(every, bool) or not isinstance(every, (int, float)):
            raise InputError(f"resilience.record_every: expected a number, got {every!r}")
        if not (0.0 < every <= 1.0):
            raise InputError(f"resilience.record_every: must be in (0, 1], got {every}")
        cfg.resilience_record_every = float(every)
        return cfg


def _integer(obj: dict[str, Any], path: str, key: str, default: int | None = None) -> int:
    """``<path>.<key>``, which must be an integer; an absent key takes
    ``default``, and is an error when there is none."""
    if key not in obj and default is None:
        raise InputError(f"{path}.{key}: required")
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{path}.{key}: expected an integer, got {value!r}")
    return value


@dataclass
class AnalysisReport:
    provenance: dict[str, Any]
    summary: GraphSummary | None = None
    node_stats: list[NodeStats] | None = None
    fit: PowerLawFit | None = None
    spectral: SpectralReport | None = None
    resilience: ResilienceTrace | EnsembleTrace | None = None
    errors: dict[str, str] = field(default_factory=dict)


def _resolve_graph(cfg: PipelineConfig) -> tuple[Graph, dict[str, Any]]:
    if cfg.edge_list is not None:
        result = ingest_edge_list(cfg.edge_list)
        descriptor = {
            "edge_list": cfg.edge_list,
            "duplicates_collapsed": result.duplicate_count,
        }
        return result.graph, descriptor
    gen, model = cfg.generate, cfg.generate["model"]
    seed = gen.get("seed", 0)
    if model == "ba":
        graph = generate_ba(BAParams(n=gen["n"], m=gen["m"], m0=gen.get("m0"), seed=seed))
    else:
        edges = gen["edges"] if "edges" in gen else gen["m"]
        graph = generate_er(ERParams(n=gen["n"], m=edges, seed=seed))
    descriptor = {"generator": {"model": model, "seed": seed, "n": graph.n, "m": graph.m}}
    return graph, descriptor


def run_pipeline(cfg: PipelineConfig) -> AnalysisReport:
    from . import __version__

    graph, input_descriptor = _resolve_graph(cfg)
    provenance: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "input": input_descriptor,
        "stages": list(cfg.stages),
    }
    if not cfg.deterministic:
        provenance["created_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    report = AnalysisReport(provenance=provenance)

    for stage in cfg.stages:
        try:
            if stage == "summary":
                report.summary = summarize(graph)
            elif stage == "centralities":
                report.node_stats = node_stats(graph)
            elif stage == "fit":
                report.fit = fit_mle(graph.degrees())
            elif stage == "spectral":
                report.spectral = spectral_stability(graph)
            elif stage == "resilience":
                if cfg.resilience_strategy == "attack":
                    report.resilience = run_resilience(
                        graph, TargetedAttack(), cfg.resilience_record_every
                    )
                elif cfg.resilience_seeds == 1:
                    report.resilience = run_resilience(
                        graph,
                        RandomError(seed=cfg.resilience_seed),
                        cfg.resilience_record_every,
                    )
                else:
                    seeds = [cfg.resilience_seed + i for i in range(cfg.resilience_seeds)]
                    report.resilience = run_error_ensemble(
                        graph, seeds, cfg.resilience_record_every
                    )
        except ToolkitError as exc:
            report.errors[stage] = str(exc)
    return report


# -- serialization --------------------------------------------------------------


def _summary_dict(s: GraphSummary) -> dict[str, Any]:
    return {
        "n": s.n,
        "m": s.m,
        "average_path_length": s.average_path_length,
        "diameter": s.diameter,
        "global_clustering": s.global_clustering,
        "degree_distribution": {str(k): p for k, p in s.degree_distribution.items()},
        "unreachable_pair_fraction": s.unreachable_pair_fraction,
        "connected": s.connected,
        "component_count": s.component_count,
    }


def _node_stats_dicts(rows: list[NodeStats]) -> list[dict[str, Any]]:
    return [
        {
            "node": r.node,
            "label": r.label,
            "degree": r.degree,
            "clustering": r.clustering,
            "closeness": r.closeness,
            "betweenness": r.betweenness,
            "eigenvector": r.eigenvector,
        }
        for r in rows
    ]


def _fit_dict(fit: PowerLawFit) -> dict[str, Any]:
    return {
        "gamma": fit.gamma,
        "k_min": fit.k_min,
        "ks_stat": fit.ks_stat,
        "n_tail": fit.n_tail,
        "dropped_zeros": fit.dropped_zeros,
    }


def _spectral_dict(rep: SpectralReport) -> dict[str, Any]:
    return {
        "lambda1": rep.lambda1,
        "lambda2": rep.lambda2,
        "gap": rep.gap,
        "stable": rep.stable,
        "zero_multiplicity": rep.zero_multiplicity,
        "closeness_threshold": rep.closeness_threshold,
    }


def _resilience_dict(tr: ResilienceTrace | EnsembleTrace) -> dict[str, Any]:
    if isinstance(tr, ResilienceTrace):
        return {
            "kind": "single",
            "strategy": tr.strategy,
            "seed": tr.seed,
            "initial_n": tr.initial_n,
            "rows": [
                {
                    "fraction_removed": row.fraction_removed,
                    "diameter": row.diameter,
                    "lcc_size": row.lcc_size,
                    "components": row.components,
                }
                for row in tr.rows
            ],
        }
    return {
        "kind": "ensemble",
        "strategy": "error",
        "seeds": tr.seeds,
        "initial_n": tr.initial_n,
        "rows": [
            {
                "fraction_removed": tr.fractions[i],
                "diameter_median": tr.diameter_median[i],
                "diameter_min": tr.diameter_min[i],
                "diameter_max": tr.diameter_max[i],
                "lcc_median": tr.lcc_median[i],
                "lcc_min": tr.lcc_min[i],
                "lcc_max": tr.lcc_max[i],
                "components_median": tr.components_median[i],
                "components_min": tr.components_min[i],
                "components_max": tr.components_max[i],
            }
            for i in range(len(tr.fractions))
        ],
    }


def report_to_dict(report: AnalysisReport) -> dict[str, Any]:
    out: dict[str, Any] = {"provenance": report.provenance, "errors": report.errors}
    if report.summary is not None:
        out["summary"] = _summary_dict(report.summary)
    if report.node_stats is not None:
        out["node_stats"] = _node_stats_dicts(report.node_stats)
    if report.fit is not None:
        out["power_law_fit"] = _fit_dict(report.fit)
    if report.spectral is not None:
        out["spectral"] = _spectral_dict(report.spectral)
    if report.resilience is not None:
        out["resilience"] = _resilience_dict(report.resilience)
    return out


def report_to_json(report: AnalysisReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


# -- CSV emitters ----------------------------------------------------------------


def node_stats_csv(rows: list[NodeStats]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["label", "degree", "clustering", "closeness", "betweenness", "eigenvector"]
    )
    for r in rows:
        writer.writerow(
            [
                r.label,
                r.degree,
                repr(r.clustering),
                "" if r.closeness is None else repr(r.closeness),
                repr(r.betweenness),
                repr(r.eigenvector),
            ]
        )
    return buf.getvalue()


def trace_csv(tr: ResilienceTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["fraction_removed", "diameter", "lcc_size", "components"])
    for row in tr.rows:
        writer.writerow(
            [repr(row.fraction_removed), row.diameter, row.lcc_size, row.components]
        )
    return buf.getvalue()


def ensemble_csv(tr: EnsembleTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "fraction_removed",
            "diameter_median",
            "diameter_min",
            "diameter_max",
            "lcc_median",
            "lcc_min",
            "lcc_max",
            "components_median",
            "components_min",
            "components_max",
        ]
    )
    for i in range(len(tr.fractions)):
        writer.writerow(
            [
                repr(tr.fractions[i]),
                repr(tr.diameter_median[i]),
                tr.diameter_min[i],
                tr.diameter_max[i],
                repr(tr.lcc_median[i]),
                tr.lcc_min[i],
                tr.lcc_max[i],
                repr(tr.components_median[i]),
                tr.components_min[i],
                tr.components_max[i],
            ]
        )
    return buf.getvalue()


def trajectory_csv(traj: SyncTrajectory, full: bool = False) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["t", "sync_error"]
    _, n_nodes, dim = traj.states.shape
    if full:
        if len(traj.states) != len(traj.times):
            raise InputError("per-node states were not kept (simulate keep_states=True)")
        header += [f"node{i}_s{d}" for i in range(n_nodes) for d in range(dim)]
    writer.writerow(header)
    for idx, t in enumerate(traj.times):
        row = [repr(float(t)), repr(float(traj.sync_error[idx]))]
        if full:
            row += [repr(float(v)) for v in traj.states[idx].reshape(-1)]
        writer.writerow(row)
    return buf.getvalue()


def comparison_csv(observed, reference) -> str:
    """Paired degree-distribution points; blank cells where a k value is
    absent from one of the two point sets."""
    obs = dict(observed)
    ref = dict(reference)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "p_observed", "p_reference"])
    for k in sorted(set(obs) | set(ref)):
        writer.writerow(
            [
                k,
                repr(obs[k]) if k in obs else "",
                repr(ref[k]) if k in ref else "",
            ]
        )
    return buf.getvalue()
