"""Command-line interface.

Subcommands: generate, analyze, fit, resilience, sync, validate, pipeline.
Exit codes: 0 success, 1 validation failure, 2 input error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .edgelist import ingest_edge_list, serialize_edge_list
from .errors import InputError, NumericalError, ValidationError
from .fixture import load_fixture, validate_fixture
from .generators import BAParams, ERParams, generate_ba, generate_er, rng_from_seed
from .metrics import node_stats, summarize
from .powerlaw import distribution_comparison, fit_mle
from .report import (
    PipelineConfig,
    read_input,
    report_to_json,
    rows_csv,
    run_pipeline,
    to_json,
    to_plain,
    trajectory_csv,
)
from .resilience import RandomError, TargetedAttack, run_removals
from .synchronization import SyncConfig, simulate, spectral_stability


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: ``parse_args`` keeps no state between
    calls, and every call gets a new namespace filled with the defaults."""
    parser = argparse.ArgumentParser(
        prog="netsync",
        description="Complex-network toolkit: generation, metrics, power-law "
        "fitting, resilience sweeps, and synchronization analysis.",
    )
    parser.add_argument("--version", action="version", version=f"netsync {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="synthesize a graph")
    gen_sub = p_gen.add_subparsers(dest="model", required=True)
    p_ba = gen_sub.add_parser("ba", help="preferential-attachment scale-free graph")
    p_ba.add_argument("--n", type=int, required=True)
    p_ba.add_argument("--m", type=int, required=True, help="edges per new node")
    p_ba.add_argument("--m0", type=int, default=None, help="seed core size (default m+1)")
    p_er = gen_sub.add_parser("er", help="uniform random graph with exact edge count")
    p_er.add_argument("--n", type=int, required=True)
    p_er.add_argument("--edges", type=int, required=True)

    p_an = sub.add_parser("analyze", help="summary + per-node centralities")
    p_an.add_argument("--edge-list", required=True)
    p_an.add_argument("--format", choices=["json", "csv"], default="json")

    p_fit = sub.add_parser("fit", help="power-law fit of the degree sequence")
    p_fit.add_argument("--edge-list", required=True)
    p_fit.add_argument(
        "--compare-er",
        action="store_true",
        help="also emit degree-distribution points against a size-matched random graph",
    )
    p_fit.add_argument("--comparison-out", help="CSV path for the comparison points")

    p_res = sub.add_parser("resilience", help="node-removal sweep")
    p_res.add_argument("--edge-list", required=True)
    p_res.add_argument("--strategy", choices=["error", "attack"], required=True)
    p_res.add_argument("--seeds", type=int, default=1, help="ensemble size for error runs")
    p_res.add_argument("--seed", type=int, default=None, help="first error seed (default 0)")
    p_res.add_argument("--record-every", type=float, default=0.02)

    p_sync = sub.add_parser("sync", help="spectral stability / coupled simulation")
    p_sync.add_argument("--edge-list", required=True)
    p_sync.add_argument("--spectral-only", action="store_true")
    p_sync.add_argument("--dynamics", default="zero", help="zero | linear:A | logistic:R")
    p_sync.add_argument("--c", type=float, default=1.0)
    p_sync.add_argument("--dt", type=float, default=0.01)
    p_sync.add_argument("--tmax", type=float, default=50.0)
    p_sync.add_argument("--state-dim", type=int, default=1)
    p_sync.add_argument("--full", action="store_true", help="include per-node states")

    p_val = sub.add_parser("validate", help="consistency checks of the reference fixture")
    p_val.add_argument("--fixture", help="CSV path (default: packaged EEN statistics)")

    p_pipe = sub.add_parser("pipeline", help="run configured stages, emit one report")
    p_pipe.add_argument("--config", required=True, help="JSON config path")
    p_pipe.add_argument(
        "--deterministic",
        action="store_true",
        help="omit timestamps so repeated runs are byte-identical",
    )

    # each subcommand takes only the options it reads
    for p in (p_ba, p_er, p_fit, p_sync):
        p.add_argument("--seed", type=int, default=0, help="RNG seed (PCG64)")
    for p in (p_ba, p_er, p_an, p_fit, p_res, p_sync, p_val, p_pipe):
        p.add_argument("--out", help="output path (default: stdout)")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.model == "ba":
        graph = generate_ba(BAParams(n=args.n, m=args.m, m0=args.m0, seed=args.seed))
    else:
        graph = generate_er(ERParams(n=args.n, m=args.edges, seed=args.seed))
    _emit(serialize_edge_list(graph), args.out)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    g, record = read_input(args.edge_list)
    if args.format == "csv":
        columns = ["label", "degree", "clustering", "closeness", "betweenness", "eigenvector"]
        _emit(rows_csv(node_stats(g), columns), args.out)
        return 0
    payload = {"summary": summarize(g), "node_stats": node_stats(g), "input": record}
    _emit(to_json(payload), args.out)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    if args.comparison_out:
        if not args.compare_er:
            raise InputError("--comparison-out: needs --compare-er, which makes the points")
        if args.out and Path(args.out).resolve() == Path(args.comparison_out).resolve():
            raise InputError(f"--comparison-out: {args.comparison_out} is also --out")
    g = ingest_edge_list(args.edge_list).graph
    payload = to_plain(fit_mle(g.degrees()))
    if args.compare_er:
        reference = generate_er(ERParams(n=g.n, m=g.m, seed=args.seed))
        csv_text = rows_csv(distribution_comparison(g, reference))
        if args.comparison_out:
            _emit(csv_text, args.comparison_out)
        else:
            payload["comparison_csv"] = csv_text
    _emit(to_json(payload), args.out)
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise InputError(f"--seeds: must be >= 1, got {args.seeds}")
    if args.strategy == "attack" and (args.seeds != 1 or args.seed is not None):
        named = "--seeds" if args.seeds != 1 else "--seed"
        raise InputError(f"{named}: an attack is deterministic and takes no seed setting")
    result = ingest_edge_list(args.edge_list)
    strategy = TargetedAttack() if args.strategy == "attack" else RandomError(args.seed or 0)
    trace = run_removals(result.graph, strategy, args.seeds, args.record_every)
    _emit(rows_csv(trace.rows), args.out)
    return 0


def _cmd_sync(args: argparse.Namespace) -> int:
    result = ingest_edge_list(args.edge_list)
    if args.spectral_only:
        _emit(to_json(spectral_stability(result.graph)), args.out)
        return 0
    cfg = SyncConfig(
        c=args.c,
        dt=args.dt,
        t_max=args.tmax,
        state_dim=args.state_dim,
        dynamics=args.dynamics,
    )
    cfg.validate(result.graph.n, keep_states=args.full)
    x0 = rng_from_seed(args.seed).standard_normal((result.graph.n, args.state_dim))
    traj = simulate(result.graph, cfg, x0, keep_states=args.full)
    if args.out:
        with open(args.out, "w") as fh:
            trajectory_csv(traj, fh, full=args.full)
    else:
        trajectory_csv(traj, sys.stdout, full=args.full)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    rows = load_fixture(args.fixture)
    validation = validate_fixture(rows)
    lines = []
    for check in validation.checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"[{status}] {check.name}: {check.detail}")
    lines.append(
        f"fixture {'valid' if validation.passed else 'INVALID'} "
        f"({sum(c.passed for c in validation.checks)}/{len(validation.checks)} checks)"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if validation.passed else 1


def _cmd_pipeline(args: argparse.Namespace) -> int:
    try:
        raw = json.loads(Path(args.config).read_text())
    except ValueError as exc:
        raise InputError(f"--config: {args.config} is not valid JSON: {exc}") from None
    cfg = PipelineConfig.from_dict(raw)
    if args.deterministic:
        cfg.deterministic = True
    report = run_pipeline(cfg)
    _emit(report_to_json(report), args.out)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "fit": _cmd_fit,
    "resilience": _cmd_resilience,
    "sync": _cmd_sync,
    "validate": _cmd_validate,
    "pipeline": _cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
