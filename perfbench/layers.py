"""Per-layer tracing of netsync from outside the package.

Each layer is a group of netsync's public functions. Installing the tracer
replaces every one of them, in every ``netsync`` module namespace that holds
it, with a wrapper that records a span. A span's self time is its duration
minus the durations of the wrapped calls made inside it, so the self times of
all layers add up to the traced wall time of the calls made through
``netsync.cli.main``. Nothing under ``src/`` is edited.

A function that a later refactor removes is reported as missing; the layer
keeps the numbers of its remaining functions.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from statistics import median

# layer -> the functions whose self time and calls it sums, each named in the
# module that defines it; "Class.method" names a method.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "edgelist.ingest": [
        ("netsync.edgelist", "ingest_edge_list"),
        ("netsync.edgelist", "parse_edge_list"),
    ],
    "graph.construct": [("netsync.graph", "Graph.__init__")],
    "graph.remove_node": [("netsync.graph", "Graph.remove_node")],
    "graph.components": [("netsync.graph", "connected_components")],
    "graph.induced_subgraph": [("netsync.graph", "induced_subgraph")],
    "generators.generate": [
        ("netsync.generators", "generate_ba"),
        ("netsync.generators", "generate_er"),
    ],
    "metrics.apsp": [("netsync.metrics", "all_pairs_distances")],
    "metrics.summarize": [
        ("netsync.metrics", "summarize"),
        ("netsync.metrics", "average_path_length"),
        ("netsync.metrics", "diameter"),
        ("netsync.metrics", "degree_distribution"),
    ],
    "metrics.closeness": [
        ("netsync.metrics", "closeness_vector"),
        ("netsync.metrics", "closeness_centrality"),
        ("netsync.metrics", "shortest_path_lengths"),
    ],
    "metrics.betweenness": [("netsync.metrics", "betweenness_centrality")],
    "metrics.eigenvector": [("netsync.metrics", "eigenvector_centrality")],
    "metrics.clustering": [
        ("netsync.metrics", "local_clustering"),
        ("netsync.metrics", "global_clustering"),
    ],
    "metrics.node_stats": [("netsync.metrics", "node_stats")],
    "powerlaw.fit": [
        ("netsync.powerlaw", "fit_mle"),
        ("netsync.powerlaw", "distribution_comparison"),
    ],
    "resilience.sweep": [
        ("netsync.resilience", "run_resilience"),
        ("netsync.resilience", "run_error_ensemble"),
    ],
    "synchronization.coupling": [("netsync.synchronization", "coupling_matrix")],
    "synchronization.spectral": [("netsync.synchronization", "spectral_stability")],
    "synchronization.simulate": [("netsync.synchronization", "simulate")],
    "report.pipeline": [("netsync.report", "run_pipeline")],
    "report.serialize": [
        ("netsync.report", name)
        for name in (
            "report_to_json",
            "report_to_dict",
            "_summary_dict",
            "_node_stats_dicts",
            "_resilience_dict",
            "node_stats_csv",
            "trace_csv",
            "ensemble_csv",
            "trajectory_csv",
            "comparison_csv",
        )
    ],
    "fixture.validate": [
        ("netsync.fixture", "load_fixture"),
        ("netsync.fixture", "validate_fixture"),
    ],
    "cli.self": [("netsync.cli", "main")],
}

# per-layer metric -> (unit, better, layer it reads); the order is the report's
PER_LAYER: dict[str, tuple[str, str, str | None]] = {
    "edgelist.ingest_s": ("s", "lower", "edgelist.ingest"),
    "graph.construct_s": ("s", "lower", "graph.construct"),
    "graph.construct_calls": ("count", "lower", "graph.construct"),
    "graph.remove_node_s": ("s", "lower", "graph.remove_node"),
    "graph.remove_node_calls": ("count", "lower", "graph.remove_node"),
    "graph.components_s": ("s", "lower", "graph.components"),
    "graph.components_calls": ("count", "lower", "graph.components"),
    "graph.induced_subgraph_s": ("s", "lower", "graph.induced_subgraph"),
    "generators.generate_s": ("s", "lower", "generators.generate"),
    "metrics.apsp_s": ("s", "lower", "metrics.apsp"),
    "metrics.apsp_calls": ("count", "lower", "metrics.apsp"),
    "metrics.summarize_s": ("s", "lower", "metrics.summarize"),
    "metrics.closeness_s": ("s", "lower", "metrics.closeness"),
    "metrics.betweenness_s": ("s", "lower", "metrics.betweenness"),
    "metrics.eigenvector_s": ("s", "lower", "metrics.eigenvector"),
    "metrics.clustering_s": ("s", "lower", "metrics.clustering"),
    "metrics.node_stats_s": ("s", "lower", "metrics.node_stats"),
    "powerlaw.fit_s": ("s", "lower", "powerlaw.fit"),
    "resilience.sweep_s": ("s", "lower", "resilience.sweep"),
    "resilience.rows": ("count", "higher", "resilience.sweep"),
    "synchronization.coupling_s": ("s", "lower", "synchronization.coupling"),
    "synchronization.spectral_s": ("s", "lower", "synchronization.spectral"),
    "synchronization.simulate_s": ("s", "lower", "synchronization.simulate"),
    "synchronization.rk4_steps_per_s": ("1/s", "higher", "synchronization.simulate"),
    "synchronization.states_mb": ("MB", "lower", "synchronization.simulate"),
    "report.pipeline_s": ("s", "lower", "report.pipeline"),
    "report.serialize_s": ("s", "lower", "report.serialize"),
    "fixture.validate_s": ("s", "lower", "fixture.validate"),
    "cli.self_s": ("s", "lower", "cli.self"),
    # traced wall time of a round; minus the untraced wall_s it is the overhead
    "trace.wall_s": ("s", "lower", None),
}


class Tracer:
    """Span recorder over the functions named in LAYERS.

    ``install`` patches, ``uninstall`` restores; ``take`` returns the totals
    accumulated since the last ``take`` and starts new ones.
    """

    def __init__(self) -> None:
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []  # [start, child_time] per open span
        self._reset()

    def _reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.rows = 0
        self.rk4_steps = 0
        self.states_bytes = 0

    def take(self) -> dict:
        out = {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "rows": self.rows,
            "rk4_steps": self.rk4_steps,
            "states_bytes": self.states_bytes,
        }
        self._reset()
        return out

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                self.self_s[layer] += duration - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
            self._observe(layer, result)
            return result

        return wrapper

    def _observe(self, layer: str, result) -> None:
        # an ensemble has no rows of its own: its single runs are counted
        if layer == "resilience.sweep" and hasattr(result, "rows"):
            self.rows += len(result.rows)
        elif layer == "synchronization.simulate" and hasattr(result, "states"):
            self.rk4_steps += len(result.times) - 1
            self.states_bytes = max(self.states_bytes, result.states.nbytes)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "netsync" or k.startswith("netsync.")]
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                module = sys.modules.get(module_name)
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None or not callable(original):
                    self.missing.append(f"{module_name}.{qualname}")
                    continue
                wrapper = self._wrap(layer, original)
                if owner_name:
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def missing_metrics(self) -> list[str]:
        """Per-layer metrics none of whose functions exist any more."""
        gone = set(self.missing)
        dead = {
            layer
            for layer, targets in LAYERS.items()
            if all(f"{m}.{q}" in gone for m, q in targets)
        }
        return [name for name, (_, _, layer) in PER_LAYER.items() if layer in dead]


def layer_metrics(rounds: list[dict], wall_s: list[float]) -> dict[str, float]:
    """Per-round medians of the traced totals, keyed by PER_LAYER names."""
    out: dict[str, float] = {}
    for name, (_, _, layer) in PER_LAYER.items():
        if name == "trace.wall_s":
            values = wall_s
        elif name == "resilience.rows":
            values = [r["rows"] for r in rounds]
        elif name == "synchronization.rk4_steps_per_s":
            values = [
                r["rk4_steps"] / r["self_s"][layer]
                if r["self_s"].get(layer)
                else 0.0
                for r in rounds
            ]
        elif name == "synchronization.states_mb":
            values = [r["states_bytes"] / 1e6 for r in rounds]
        elif name.endswith("_calls"):
            values = [r["calls"].get(layer, 0) for r in rounds]
        else:
            values = [r["self_s"].get(layer, 0.0) for r in rounds]
        out[name] = float(median(values))
    return out
