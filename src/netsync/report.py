"""Pipeline orchestration and report emission.

A pipeline run ingests or generates a graph, executes the requested stages
(summary, centralities, fit, spectral, resilience) in the order the config
lists them, and embeds each stage's output in a single report, which does
not depend on that order. A failing stage is recorded under ``errors``
without aborting the others. One ``metrics.analyze`` gives the per-node
table and the summary beside it; a summary alone comes from
``metrics.summarize``, with the same bits.

Result dataclasses serialize themselves: ``to_json`` writes one field by
field, so each report key is the name of the field that holds its data,
and ``rows_csv`` writes a list of them one field per column, which gives
every CSV table but the streamed sync trajectory (``trajectory_csv``).
Reports serialize to JSON with sorted keys and an indent of 2 so that a
seeded run is byte-identical across repetitions; timestamps are omitted
when the deterministic flag is set. ``to_json`` writes the bytes that
``json.dumps(..., sort_keys=True, indent=2)`` gives for the result's
fields, with mapping keys as strings and tuples as lists, in one walk of
the result, handing each container of JSON scalars whole to Python's C
encoder.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import time
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Sequence, TextIO

from .edgelist import ingest_edge_list
from .errors import InputError, ToolkitError
from .generators import BAParams, ERParams, generate_ba, generate_er
from .graph import Graph
from .metrics import GraphSummary, NodeStats, analyze, summarize
from .powerlaw import PowerLawFit, fit_mle
from .resilience import (
    EnsembleTrace,
    RandomError,
    RemovalStrategy,
    ResilienceTrace,
    TargetedAttack,
    run_removals,
)
from .synchronization import SpectralReport, SyncTrajectory, spectral_stability

SCHEMA_VERSION = 1
ALL_STAGES = ("summary", "centralities", "fit", "spectral", "resilience")
_GENERATOR_KEYS = {
    "ba": ("model", "n", "m", "m0", "seed"),
    "er": ("model", "n", "edges", "m", "seed"),
}


@dataclass
class PipelineConfig:
    edge_list: str | None = None
    generate: BAParams | ERParams | None = None
    stages: list[str] = field(default_factory=list)
    deterministic: bool = False
    resilience: RemovalStrategy = TargetedAttack()
    resilience_seeds: int = 1
    resilience_record_every: float = 0.02

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "PipelineConfig":
        cfg = cls()
        if not isinstance(raw, dict):
            raise InputError(
                f"config: expected a JSON object, got {type(raw).__name__}"
            )
        _known_keys(raw, "", ("input", "stages", "deterministic", "resilience"))

        inp = raw.get("input")
        if not isinstance(inp, dict):
            raise InputError("input: required object with 'edge_list' or 'generate'")
        _known_keys(inp, "input.", ("edge_list", "generate"))
        if ("edge_list" in inp) == ("generate" in inp):
            raise InputError("input: exactly one of 'edge_list' or 'generate'")
        if "edge_list" in inp:
            if not isinstance(inp["edge_list"], str):
                raise InputError(f"input.edge_list: expected a path, got {inp['edge_list']!r}")
            cfg.edge_list = inp["edge_list"]
        else:
            cfg.generate = _generator_params(inp["generate"])

        stages = raw.get("stages", "all")
        if stages == "all":
            cfg.stages = list(ALL_STAGES)
        elif isinstance(stages, list):
            for pos, name in enumerate(stages):
                if name not in ALL_STAGES:
                    raise InputError(f"stages[{pos}]: unknown stage {name!r}")
                if name in stages[:pos]:
                    raise InputError(f"stages[{pos}]: duplicate stage {name!r}")
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
        _known_keys(res, "resilience.", ("strategy", "seeds", "seed", "record_every"))
        strategy = res.get("strategy", "attack")
        if strategy not in ("attack", "error"):
            raise InputError(
                f"resilience.strategy: expected 'attack' or 'error', got {strategy!r}"
            )
        cfg.resilience_seeds = _integer(res, "resilience", "seeds", 1, minimum=1)
        seed = _integer(res, "resilience", "seed", 0, minimum=0)
        seeded = [f"resilience.{key}" for key in ("seeds", "seed") if key in res]
        if strategy == "attack" and seeded:
            raise InputError(f"{seeded[0]}: an attack is deterministic and takes no seed setting")
        cfg.resilience = TargetedAttack() if strategy == "attack" else RandomError(seed)
        every = res.get("record_every", 0.02)
        if isinstance(every, bool) or not isinstance(every, (int, float)):
            raise InputError(f"resilience.record_every: expected a number, got {every!r}")
        if not (0.0 < every <= 1.0):
            raise InputError(f"resilience.record_every: must be in (0, 1], got {every}")
        cfg.resilience_record_every = float(every)
        return cfg


def _known_keys(obj: dict[str, Any], prefix: str, keys: Sequence[str]) -> None:
    """Reject a key of ``obj`` that nothing reads, named ``<prefix><key>``."""
    for key in obj:
        if key not in keys:
            raise InputError(f"{prefix}{key}: unknown config field")


def _generator_params(gen: Any) -> BAParams | ERParams:
    """``input.generate`` as a generator request, seed 0 by default. ER
    takes its edge count as "edges" or as "m", never both."""
    path = "input.generate"
    if not isinstance(gen, dict) or "model" not in gen:
        raise InputError(f"{path}.model: required ('ba' or 'er')")
    model = gen["model"]
    if not isinstance(model, str) or model not in _GENERATOR_KEYS:
        raise InputError(f"{path}.model: expected 'ba' or 'er', got {model!r}")
    _known_keys(gen, f"{path}.", _GENERATOR_KEYS[model])
    if "edges" in gen and "m" in gen:
        raise InputError(f"{path}.m: the edge count is given as 'edges' already")
    n = _integer(gen, path, "n")
    if model == "er":
        edges = _integer(gen, path, "m" if "m" in gen else "edges")
        return ERParams(n=n, m=edges, seed=_integer(gen, path, "seed", 0, minimum=0))
    m = _integer(gen, path, "m")
    m0 = _integer(gen, path, "m0") if "m0" in gen else None
    return BAParams(n=n, m=m, m0=m0, seed=_integer(gen, path, "seed", 0, minimum=0))


def _integer(obj: dict[str, Any], path: str, key: str, default=None, minimum=None) -> int:
    """``<path>.<key>``, which must be an integer, at least ``minimum`` when
    one is given; an absent key takes ``default``, and is an error when
    there is none."""
    if key not in obj and default is None:
        raise InputError(f"{path}.{key}: required")
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{path}.{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InputError(f"{path}.{key}: must be >= {minimum}, got {value}")
    return value


@dataclass
class AnalysisReport:
    provenance: dict[str, Any]
    summary: GraphSummary | None = None
    node_stats: list[NodeStats] | None = None
    power_law_fit: PowerLawFit | None = None
    spectral: SpectralReport | None = None
    resilience: ResilienceTrace | EnsembleTrace | None = None
    errors: dict[str, str] = field(default_factory=dict)


def read_input(path: str) -> tuple[Graph, dict[str, Any]]:
    """The graph of an edge-list file and the ``input`` record of a report
    on it."""
    result = ingest_edge_list(path)
    return result.graph, {"edge_list": path, "duplicates_collapsed": result.duplicate_count}


def _resolve_graph(cfg: PipelineConfig) -> tuple[Graph, dict[str, Any]]:
    if cfg.edge_list is not None:
        return read_input(cfg.edge_list)
    model = "ba" if isinstance(cfg.generate, BAParams) else "er"
    graph = (generate_ba if model == "ba" else generate_er)(cfg.generate)
    descriptor = {"model": model, "seed": cfg.generate.seed, "n": graph.n, "m": graph.m}
    return graph, {"generator": descriptor}


def run_pipeline(cfg: PipelineConfig) -> AnalysisReport:
    """The report of the stages of ``cfg``. A staged ``centralities`` runs
    ``analyze`` once, first, and a staged ``summary`` takes its summary.
    If it fails (say, its path counts overflow), the error is recorded
    under ``centralities`` and the summary comes from ``summarize``, whose
    forward sweep counts no paths."""
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
    summary = None
    if "centralities" in cfg.stages:
        try:
            summary, report.node_stats = analyze(graph)
        except ToolkitError as exc:
            report.errors["centralities"] = str(exc)

    for stage in cfg.stages:
        try:
            if stage == "summary":
                report.summary = summarize(graph) if summary is None else summary
            elif stage == "fit":
                report.power_law_fit = fit_mle(graph.degrees())
            elif stage == "spectral":
                report.spectral = spectral_stability(graph)
            elif stage == "resilience":
                report.resilience = run_removals(
                    graph, cfg.resilience, cfg.resilience_seeds, cfg.resilience_record_every
                )
        except ToolkitError as exc:
            report.errors[stage] = str(exc)
    return report


# -- serialization --------------------------------------------------------------


_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


@functools.cache
def _encoder(depth: int) -> Callable[[Any], str]:
    """The C encoder of a container at ``depth``: its items each on a line
    of their own, indented one level deeper, which is the form that
    ``indent=2`` gives without the newlines after its opening bracket and
    before its closing one."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (depth + 1), ": ")).encode


def _write(obj: Any, depth: int, out: list[str]) -> None:
    """Append ``obj`` at ``depth`` as ``to_json`` writes it to ``out``."""
    encode = _encoder(depth)
    if is_dataclass(obj):
        obj = {name: getattr(obj, name) for name in _field_names(type(obj))}
    elif isinstance(obj, dict):
        obj = {str(k): v for k, v in obj.items()}
    elif not isinstance(obj, (list, tuple)):
        out.append(encode(obj))
        return
    is_dict = isinstance(obj, dict)
    if not obj:
        out.append("{}" if is_dict else "[]")
        return
    inner = "\n" + "  " * (depth + 1)
    if all(type(v) in _SCALARS for v in (obj.values() if is_dict else obj)):
        text = encode(obj)
        out += (text[0], inner, text[1:-1], inner[:-2], text[-1])
        return
    items = ([(encode(k) + ": ", obj[k]) for k in sorted(obj)] if is_dict
             else [("", v) for v in obj])
    out.append("{" if is_dict else "[")
    for i, (key, value) in enumerate(items):
        out += ("," + inner if i else inner, key)
        _write(value, depth + 1, out)
    out += (inner[:-2], "}" if is_dict else "]")


def to_json(obj: Any) -> str:
    """``obj`` as JSON with sorted keys and an indent of 2, the form of
    every report, in one walk of ``obj``: a dataclass is written as a
    mapping of its fields, mapping keys as strings, tuples as lists. A
    non-empty container whose values are all of a JSON scalar type goes
    whole to Python's C encoder, which ``json.dumps`` does not use when
    given an indent."""
    out: list[str] = []
    _write(obj, 0, out)
    out.append("\n")
    return "".join(out)


def report_to_json(report: AnalysisReport) -> str:
    """``to_json`` of ``report`` without the stages that did not run."""
    return to_json({name: value for name in _field_names(AnalysisReport)
                    if (value := getattr(report, name)) is not None})


# -- CSV emitters ----------------------------------------------------------------


def rows_csv(rows: Sequence[Any], columns: Sequence[str] | None = None) -> str:
    """One line per dataclass row, one column per name in ``columns``
    (default: the fields of the first row). csv writes a float with repr
    and None as an empty cell."""
    if columns is None:
        columns = [f.name for f in fields(rows[0])]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([getattr(row, c) for c in columns] for row in rows)
    return buf.getvalue()


def trajectory_csv(traj: SyncTrajectory, out: TextIO, full: bool = False) -> None:
    """Write t and sync_error per time step to ``out``, with every node's
    state after them when ``full``; rows are written as they are made."""
    header = ["t", "sync_error"]
    _, n_nodes, dim = traj.states.shape
    if full:
        if len(traj.states) != len(traj.times):
            raise InputError("per-node states were not kept (simulate keep_states=True)")
        header += [f"node{i}_s{d}" for i in range(n_nodes) for d in range(dim)]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    rows = zip(traj.times.tolist(), traj.sync_error.tolist())
    if full:
        flat = traj.states.reshape(len(traj.states), -1)
        rows = ((t, err, *state.tolist()) for (t, err), state in zip(rows, flat))
    writer.writerows(rows)
