"""The benchmark's four workloads.

A workload writes its inputs at set-up (edge lists through ``netsync
generate``, pipeline configs as JSON), names the netsync calls that make up
one round, and checks the outputs of those calls with ``checks``, which
shares no code with netsync. Every input is a function of the workload seed.

``tiny`` shrinks every input to at most 150 nodes; the benchmark warms up on
it and the self-test runs each workload on it in seconds.

``checks``, and networkx with it, is imported only inside ``check``, after the
timed rounds, so that it counts in neither ``setup_s`` nor ``peak_rss_mb``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

Call = Callable[[list[str]], int]


@dataclass
class Op:
    """One netsync command line and the files it writes."""

    key: str
    argv: list[str]
    outputs: list[Path] = field(default_factory=list)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.rng = np.random.default_rng(seed)

    def path(self, name: str) -> Path:
        return self.dir / name

    def generate(self, call: Call, model: str, n: int, size: int, seed: int, out: Path) -> None:
        flag = "--m" if model == "ba" else "--edges"
        argv = ["generate", model, "--n", str(n), flag, str(size), "--seed", str(seed)]
        if call(argv + ["--out", str(out)]) != 0:
            raise RuntimeError(f"netsync {' '.join(argv)} failed at set-up")

    def write_inputs(self, call: Call) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, exit_codes: dict[str, int]) -> dict[str, list[str]]:
        """Failure messages per op key, from the files the last round wrote."""
        raise NotImplementedError


class AnalyzeBA(Workload):
    """`analyze` (JSON) and `fit --compare-er` on a BA graph of 2000 nodes."""

    name = "analyze-ba"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.n = 150 if tiny else 2000
        self.edges = self.path("ba.edges")

    def write_inputs(self, call):
        self.generate(call, "ba", self.n, 3, self.seed, self.edges)

    def ops(self):
        e = str(self.edges)
        analyze, fit, cmp_csv = self.path("analyze.json"), self.path("fit.json"), self.path("cmp.csv")
        return [
            Op("analyze", ["analyze", "--edge-list", e, "--out", str(analyze)], [analyze]),
            Op(
                "fit",
                ["fit", "--edge-list", e, "--compare-er", "--seed", str(self.seed),
                 "--comparison-out", str(cmp_csv), "--out", str(fit)],
                [fit, cmp_csv],
            ),
        ]

    def check(self, exit_codes):
        import checks

        ref = checks.Reference.from_edge_file(self.edges)
        sources = list(self.rng.choice(ref.order, size=min(20, ref.n), replace=False))
        report = json.loads(self.path("analyze.json").read_text())
        fit = json.loads(self.path("fit.json").read_text())
        return {
            "analyze": checks.check_summary(ref, report["summary"])
            + checks.check_node_stats(ref, report["node_stats"], sources, full_betweenness=False),
            "fit": checks.check_fit(ref.degrees(), fit)
            + checks.check_comparison(ref, checks.read_csv(self.path("cmp.csv"))),
        }


class ResilienceBA(Workload):
    """An attack sweep and an error sweep on a BA graph of 1000 nodes."""

    name = "resilience-ba"
    record_every = 0.02

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.n = 120 if tiny else 1000
        self.edges = self.path("ba.edges")
        self.error_seed = seed + 1

    def write_inputs(self, call):
        self.generate(call, "ba", self.n, 3, self.seed, self.edges)

    def ops(self):
        e = str(self.edges)
        common = ["--record-every", str(self.record_every)]
        return [
            Op(
                "attack",
                ["resilience", "--edge-list", e, "--strategy", "attack", *common,
                 "--out", str(self.path("attack.csv"))],
                [self.path("attack.csv")],
            ),
            Op(
                "error",
                ["resilience", "--edge-list", e, "--strategy", "error", *common,
                 "--seed", str(self.error_seed), "--out", str(self.path("error.csv"))],
                [self.path("error.csv")],
            ),
        ]

    def check(self, exit_codes):
        import checks

        ref = checks.Reference.from_edge_file(self.edges)
        out = {}
        for key, seed in (("attack", None), ("error", self.error_seed)):
            rows = checks.trace_rows_from_csv(checks.read_csv(self.path(f"{key}.csv")))
            # diameters of the unbroken graph and of three seeded rows
            sample = {0, *(int(i) for i in self.rng.integers(1, len(rows), size=3))}
            order = checks.removal_order(ref, key, seed)
            expected = checks.replay(ref, order, self.record_every, sample)
            out[key] = checks.check_trace(rows, expected)
        return out


class SyncBA(Workload):
    """`sync --spectral-only` and a zero-dynamics `sync` to t=50 on a BA graph
    of 1000 nodes."""

    name = "sync-ba"
    dt, t_max = 0.01, 50.0

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.n = 100 if tiny else 1000
        self.t_max = 20.0 if tiny else self.t_max
        self.edges = self.path("ba.edges")

    def write_inputs(self, call):
        self.generate(call, "ba", self.n, 3, self.seed, self.edges)

    def ops(self):
        e = str(self.edges)
        spectral, traj = self.path("spectral.json"), self.path("traj.csv")
        return [
            Op("spectral", ["sync", "--edge-list", e, "--spectral-only", "--out", str(spectral)], [spectral]),
            Op(
                "simulate",
                ["sync", "--edge-list", e, "--dynamics", "zero", "--seed", str(self.seed),
                 "--tmax", str(self.t_max), "--out", str(traj)],
                [traj],
            ),
        ]

    def check(self, exit_codes):
        import checks

        ref = checks.Reference.from_edge_file(self.edges)
        a = checks.algebraic_connectivity(ref)
        spec = json.loads(self.path("spectral.json").read_text())
        rows = checks.read_csv(self.path("traj.csv"))
        return {
            "spectral": checks.check_spectral(ref, spec, a),
            "simulate": checks.check_trajectory(ref, rows, self.seed, a, self.dt, self.t_max, tail_rate=True),
        }


class PaperScale(Workload):
    """Five-stage pipelines on ER and BA graphs the size of the paper's EEN
    case (N=49, M=351), a short `sync` on each, and one `validate`.

    The graphs alternate ER(49, 351) and BA(49, m=8, 356 edges); each model
    gets an error ensemble of three seeds on half its graphs and an attack on
    the other half.
    """

    name = "paper-scale"
    n, er_edges, ba_m = 49, 351, 8
    ensemble_seeds = 3
    dt, t_max = 0.01, 5.0

    def __init__(self, seed, workdir, tiny=False, count=None):
        super().__init__(seed, workdir)
        count = count or (4 if tiny else 16)
        self.graphs = []
        for i, graph_seed in enumerate(self.rng.integers(0, 2**31, size=count)):
            self.graphs.append(
                {
                    "i": i,
                    "model": "er" if i % 2 == 0 else "ba",
                    "strategy": "error" if i % 4 in (1, 2) else "attack",
                    "seed": int(graph_seed),
                }
            )

    def config(self, g: dict) -> dict:
        gen = {"model": g["model"], "n": self.n, "seed": g["seed"]}
        gen.update({"edges": self.er_edges} if g["model"] == "er" else {"m": self.ba_m})
        res = {"strategy": g["strategy"], "record_every": 0.02}
        if g["strategy"] == "error":
            res.update(seeds=self.ensemble_seeds, seed=g["seed"] + 1)
        return {"input": {"generate": gen}, "stages": "all", "deterministic": True, "resilience": res}

    def write_inputs(self, call):
        for g in self.graphs:
            size = self.er_edges if g["model"] == "er" else self.ba_m
            self.generate(call, g["model"], self.n, size, g["seed"], self.path(f"g{g['i']}.edges"))
            self.path(f"g{g['i']}.json").write_text(json.dumps(self.config(g), sort_keys=True))

    def ops(self):
        out = []
        for g in self.graphs:
            i = g["i"]
            rep, traj = self.path(f"report{i}.json"), self.path(f"traj{i}.csv")
            out.append(
                Op(f"pipeline{i}",
                   ["pipeline", "--config", str(self.path(f"g{i}.json")), "--deterministic", "--out", str(rep)],
                   [rep])
            )
            out.append(
                Op(f"sync{i}",
                   ["sync", "--edge-list", str(self.path(f"g{i}.edges")), "--seed", str(g["seed"]),
                    "--tmax", str(self.t_max), "--out", str(traj)],
                   [traj])
            )
        val = self.path("validate.txt")
        out.append(Op("validate", ["validate", "--out", str(val)], [val]))
        return out

    def check(self, exit_codes):
        import checks

        out = {}
        for g in self.graphs:
            i = g["i"]
            edges = self.path(f"g{i}.edges")
            report = json.loads(self.path(f"report{i}.json").read_text())
            out[f"pipeline{i}"] = self.check_report(checks, g, checks.Reference.from_generated(self.n, edges), report)
            ingested = checks.Reference.from_edge_file(edges)
            rows = checks.read_csv(self.path(f"traj{i}.csv"))
            a = checks.algebraic_connectivity(ingested)
            out[f"sync{i}"] = checks.check_trajectory(
                ingested, rows, g["seed"], a, self.dt, self.t_max, tail_rate=False
            )
        out["validate"] = checks.check_validate(
            exit_codes["validate"], self.path("validate.txt").read_text()
        )
        return out

    def check_report(self, checks, g: dict, ref, report: dict) -> list[str]:
        bad = []
        gen = report["provenance"]["input"]["generator"]
        if (gen["model"], gen["n"], gen["m"], gen["seed"]) != (g["model"], ref.n, ref.m, g["seed"]):
            bad.append(f"generator provenance {gen} does not match the set-up edge list")
        if report["errors"]:
            bad.append(f"stage errors: {report['errors']}")
        a = checks.algebraic_connectivity(ref)
        bad += checks.check_summary(ref, report["summary"])
        bad += checks.check_node_stats(ref, report["node_stats"], ref.order, full_betweenness=True)
        bad += checks.check_fit(ref.degrees(), report["power_law_fit"])
        bad += checks.check_spectral(ref, report["spectral"], a)
        res = report["resilience"]
        if g["strategy"] == "attack":
            expected = checks.replay(ref, checks.removal_order(ref, "attack", None), 0.02)
            bad += checks.check_trace(res["rows"], expected)
        else:
            seeds = [g["seed"] + 1 + k for k in range(self.ensemble_seeds)]
            traces = [checks.replay(ref, checks.removal_order(ref, "error", s), 0.02) for s in seeds]
            if res["seeds"] != seeds:
                bad.append(f"ensemble seeds {res['seeds']}; expected {seeds}")
            bad += checks.check_trace(res["rows"], checks.ensemble_rows(traces))
        return bad


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (AnalyzeBA, ResilienceBA, SyncBA, PaperScale)
}
