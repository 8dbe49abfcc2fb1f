"""Run one benchmark workload against netsync and print its metrics.

    python3 perfbench/run.py --workload analyze-ba --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; netsync is imported from its
``src/``. The process is the only load: BLAS and OpenMP are held to one
thread before numpy is imported. After set-up, whole rounds of the
workload's netsync calls run through ``netsync.cli.main`` until
``--seconds`` have passed; their outputs are then checked apart from the
program. With ``--trace 1`` every layer's functions are wrapped and the
per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics. Details go to perfbench/results/.
"""

from __future__ import annotations

import os
import time

T0 = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Op, PaperScale, Workload  # noqa: E402

SETUP_REPEATS = 3

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_netsync():
    """netsync from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "netsync" / "__init__.py").is_file():
        raise SystemExit(f"error: no netsync package under {src}")
    sys.path.insert(0, str(src))
    import netsync.cli

    if Path(netsync.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"error: netsync imported from {netsync.cli.__file__}, not {src}")
    return netsync.cli


def make_call(cli):
    def call(argv: list[str]) -> int:
        """One netsync command line in this process; any escape is a failure."""
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the program's fault, counted as a failed operation
            traceback.print_exc()
            return -1

    return call


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes() if p.is_file() else b"<missing>")
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    cli = import_netsync()
    t_imports = time.perf_counter() - T0
    call = make_call(cli)
    workdir = BENCH / "_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, call, workdir, t_imports)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def parts_of(name: str, seed: int, workdir: Path, tiny: bool = False) -> list[Workload]:
    """The workload, and with every workload but paper-scale one paper-size
    case per round (a five-stage pipeline with an attack sweep, a short sync
    and a validate at N=49), so that every layer has a measured time on every
    workload. It costs about 1% of a round."""
    parts = [WORKLOADS[name](seed, workdir / name, tiny=tiny)]
    if name != PaperScale.name:
        parts.append(PaperScale(seed, workdir / "probe", tiny=tiny, count=1))
    for part in parts:
        part.dir.mkdir(parents=True, exist_ok=True)
    return parts


def run(args: argparse.Namespace, call, workdir: Path, t_imports: float) -> int:
    parts = parts_of(args.workload, args.seed, workdir)
    warm = parts_of(args.workload, args.seed, workdir / "warmup", tiny=True)

    # set-up, repeated: inputs through `netsync generate`, then one tiny round
    # that loads every code path the timed rounds use
    setup_reps = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        for part in parts + warm:
            part.write_inputs(call)
        for part in warm:
            for op in part.ops():
                if call(op.argv) != 0:
                    raise SystemExit(f"error: warm-up call {part.name}/{op.key} failed")
        setup_reps.append(time.perf_counter() - t)
    setup_s = t_imports + median(setup_reps)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    ops = [
        Op(f"{part.name}/{op.key}", op.argv, op.outputs) for part in parts for op in part.ops()
    ]
    first: dict[str, tuple[int, str]] = {}
    bad_instances: dict[str, int] = {op.key: 0 for op in ops}
    op_wall: dict[str, list[float]] = {op.key: [] for op in ops}
    round_wall: list[float] = []
    round_layers: list[dict] = []
    t_phase = time.perf_counter()
    while not round_wall or time.perf_counter() - t_phase < args.seconds:
        wall = 0.0
        for op in ops:
            t = time.perf_counter()
            code = call(op.argv)
            op_wall[op.key].append(time.perf_counter() - t)
            wall += op_wall[op.key][-1]
            seen = (code, digest(op.outputs))
            first.setdefault(op.key, seen)
            if code != 0 or seen != first[op.key]:
                bad_instances[op.key] += 1
        round_wall.append(wall)
        if tracer:
            round_layers.append(tracer.take())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer:
        tracer.uninstall()

    rounds = len(round_wall)
    timed_s = time.perf_counter() - t_phase
    failures: dict[str, list[str]] = {}
    for part in parts:
        prefix = f"{part.name}/"
        codes = {key[len(prefix):]: code for key, (code, _) in first.items() if key.startswith(prefix)}
        try:
            found = part.check(codes)
        except Exception:  # an output too broken to read
            found = {key: [traceback.format_exc(limit=3)] for key in codes}
        failures.update({prefix + key: msgs for key, msgs in found.items()})
    checks_s = time.perf_counter() - t_phase - timed_s
    failed = 0
    for op in ops:
        if failures.get(op.key) or first[op.key][0] != 0:
            failed += rounds  # a wrong output is wrong in every round that wrote it
        else:
            failed += bad_instances[op.key]
    for key, msgs in failures.items():
        for msg in msgs:
            print(f"check failed [{key}]: {msg}", file=sys.stderr)

    if tracer:
        values = layer_metrics(round_layers, round_wall)
        missing = tracer.missing_metrics()
        metrics = {
            name: {"value": 0.0 if name in missing else values[name], "unit": unit}
            for name, (unit, _, _) in PER_LAYER.items()
        }
        if tracer.missing:
            print(f"missing functions: {', '.join(tracer.missing)}", file=sys.stderr)
            print(f"missing per-layer metrics: {', '.join(missing)}", file=sys.stderr)
    else:
        values = {"wall_s": median(round_wall), "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    result = {
        "correct": not any(failures.values()),
        "attempted": len(ops) * rounds,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "rounds": rounds,
        "round_wall_s": round_wall,
        "op_wall_s": op_wall,
        "setup": {"imports_s": t_imports, "repeats_s": setup_reps},
        "timed_s": timed_s,
        "checks_s": checks_s,
        "failures": failures,
        "missing": tracer.missing if tracer else [],
        "layers_per_round": round_layers,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
