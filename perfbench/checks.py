"""Output checks made apart from netsync.

Every reference value here comes from the benchmark's own reading of the
input edge list, computed with networkx, scipy.sparse.csgraph and numpy; no
netsync code runs. Each check returns a list of failure messages, empty when
the program's output agrees.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import networkx as nx
import numpy as np
from scipy.sparse.csgraph import shortest_path
from scipy.special import zeta


def read_edge_file(path: Path) -> tuple[list[str], list[tuple[str, str]]]:
    """Labels in first-appearance order (netsync's id order) and edges."""
    labels: dict[str, None] = {}
    edges = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        u, v = line.replace(",", " ").split()
        labels.setdefault(u)
        labels.setdefault(v)
        edges.append((u, v))
    return list(labels), edges


def read_csv(path: Path) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(Path(path).read_text())))


def _close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


class Reference:
    """Independent facts about one graph, with nodes kept in the order of
    netsync's ids so that ties broken by the smallest id can be replayed."""

    def __init__(self, order: list[str], edges: list[tuple[str, str]]):
        self.order = list(order)
        self.position = {v: i for i, v in enumerate(self.order)}
        self.graph = nx.Graph()
        self.graph.add_nodes_from(self.order)
        self.graph.add_edges_from(edges)
        self.n = self.graph.number_of_nodes()
        self.m = self.graph.number_of_edges()
        self._dist = None

    @classmethod
    def from_edge_file(cls, path: Path) -> "Reference":
        return cls(*read_edge_file(path))

    @classmethod
    def from_generated(cls, n: int, path: Path) -> "Reference":
        """A graph that netsync generates itself: ids are the integer labels,
        and nodes left without edges still count."""
        _, edges = read_edge_file(path)
        return cls([str(i) for i in range(n)], edges)

    @property
    def dist(self) -> np.ndarray:
        """Dense hop-count matrix in id order (np.inf where unreachable)."""
        if self._dist is None:
            adj = nx.to_scipy_sparse_array(self.graph, nodelist=self.order, format="csr")
            self._dist = shortest_path(adj, unweighted=True, directed=False)
        return self._dist

    def degrees(self) -> list[int]:
        return [self.graph.degree(v) for v in self.order]

    def largest_component(self, graph: nx.Graph | None = None) -> set[str]:
        """Largest component; among equal sizes, the one holding the smallest id."""
        comps = list(nx.connected_components(self.graph if graph is None else graph))
        if not comps:
            return set()
        return max(comps, key=lambda c: (len(c), -min(self.position[v] for v in c)))


# -- distances, summary and centralities ------------------------------------------


def check_summary(ref: Reference, summary: dict) -> list[str]:
    bad = []
    g, n, d = ref.graph, ref.n, ref.dist
    if summary["n"] != n or summary["m"] != ref.m:
        bad.append(f"summary n, m = {summary['n']}, {summary['m']}; expected {n}, {ref.m}")
    comps = nx.number_connected_components(g)
    if summary["component_count"] != comps or summary["connected"] != (comps == 1):
        bad.append(f"summary components {summary['component_count']}; expected {comps}")
    clustering = sum(nx.clustering(g).values()) / n
    if not _close(summary["global_clustering"], clustering, rel=1e-12):
        bad.append(f"global clustering {summary['global_clustering']}; expected {clustering}")
    counts: dict[int, int] = {}
    for k in ref.degrees():
        counts[k] = counts.get(k, 0) + 1
    dist_expected = {str(k): c / n for k, c in sorted(counts.items())}
    if summary["degree_distribution"] != dist_expected:
        bad.append("degree distribution differs from the degree counts")
    upper = np.triu(np.isfinite(d), k=1)
    pairs = int(upper.sum())
    apl = float(d[upper].sum()) / pairs
    if not _close(summary["average_path_length"], apl, rel=1e-12):
        bad.append(f"average path length {summary['average_path_length']}; expected {apl}")
    unreachable = 1.0 - pairs / (n * (n - 1) / 2)
    if not _close(summary["unreachable_pair_fraction"], unreachable, rel=1e-12):
        bad.append(f"unreachable fraction {summary['unreachable_pair_fraction']}; expected {unreachable}")
    lcc = sorted(ref.position[v] for v in ref.largest_component())
    diameter = int(d[np.ix_(lcc, lcc)].max())
    if summary["diameter"] != diameter:
        bad.append(f"diameter {summary['diameter']}; expected {diameter}")
    return bad


def check_node_stats(
    ref: Reference, rows: list[dict], sources: list[str], full_betweenness: bool
) -> list[str]:
    """Degree, clustering, closeness and eigenvector centrality of every node.

    Distances from ``sources`` are also found by networkx BFS and compared with
    the csgraph matrix the closeness reference uses. Betweenness is compared
    node by node with networkx when ``full_betweenness``; otherwise through
    the identity sum_v b(v) = sum over reachable pairs s<t of (d(s, t) - 1).
    """
    bad = []
    g, d = ref.graph, ref.dist
    by_label = {r["label"]: r for r in rows}
    if sorted(by_label) != sorted(ref.order) or len(rows) != ref.n:
        return [f"node_stats has {len(rows)} rows for labels other than the {ref.n} nodes"]
    for s in sources:
        bfs = nx.single_source_shortest_path_length(g, s)
        row = d[ref.position[s]]
        expected = np.full(ref.n, np.inf)
        for v, dv in bfs.items():
            expected[ref.position[v]] = dv
        if not np.array_equal(row, expected):
            bad.append(f"BFS distances from {s} differ from the distance matrix")
    clustering = nx.clustering(g)
    sums = np.where(np.isfinite(d), d, 0.0).sum(axis=1)
    eigen = _eigenvector_reference(ref)
    for v in ref.order:
        r, i = by_label[v], ref.position[v]
        if r["degree"] != g.degree(v):
            bad.append(f"degree of {v}: {r['degree']}; expected {g.degree(v)}")
        if not _close(r["clustering"], clustering[v], rel=1e-12):
            bad.append(f"clustering of {v}: {r['clustering']}; expected {clustering[v]}")
        closeness = None if sums[i] == 0 else 1.0 / sums[i]
        if (r["closeness"] is None) != (closeness is None) or (
            closeness is not None and not _close(r["closeness"], closeness, rel=1e-12)
        ):
            bad.append(f"closeness of {v}: {r['closeness']}; expected {closeness}")
        if not _close(r["eigenvector"], eigen[v], rel=0.0, abs_tol=1e-6):
            bad.append(f"eigenvector of {v}: {r['eigenvector']}; expected {eigen[v]}")
    if full_betweenness:
        between = nx.betweenness_centrality(g, normalized=False)
        for v in ref.order:
            if not _close(by_label[v]["betweenness"], between[v], rel=1e-9, abs_tol=1e-9):
                bad.append(
                    f"betweenness of {v}: {by_label[v]['betweenness']}; expected {between[v]}"
                )
    else:
        upper = np.triu(np.isfinite(d), k=1)
        interior = float((d[upper] - 1.0).sum())
        total = math.fsum(r["betweenness"] for r in rows)
        if not _close(total, interior, rel=1e-9):
            bad.append(f"betweenness sums to {total}; sum of d(s,t)-1 is {interior}")
    return bad[:20]


def _eigenvector_reference(ref: Reference) -> dict[str, float]:
    """networkx's principal eigenvector on the largest component, rescaled to a
    maximum of 1; nodes outside that component score 0."""
    out = {v: 0.0 for v in ref.order}
    lcc = ref.largest_component()
    if len(lcc) < 2:
        return out
    vec = nx.eigenvector_centrality_numpy(ref.graph.subgraph(lcc))
    top = max(abs(x) for x in vec.values())
    out.update({v: abs(x) / top for v, x in vec.items()})
    return out


# -- power-law fit -------------------------------------------------------------------


def check_fit(degrees: list[int], fit: dict) -> list[str]:
    """gamma from the closed form at the reported k_min, and the reported KS
    distance as the smallest over all candidate cutoffs."""
    bad = []
    k = np.sort(np.asarray([x for x in degrees if x > 0], dtype=np.int64))
    if fit["dropped_zeros"] != len(degrees) - k.size:
        bad.append(f"dropped_zeros {fit['dropped_zeros']}; expected {len(degrees) - k.size}")
    k_min = fit["k_min"]
    tail = k[k >= k_min]
    if fit["n_tail"] != tail.size:
        bad.append(f"n_tail {fit['n_tail']}; expected {tail.size}")
    gamma = 1.0 + tail.size / math.fsum(math.log(x / (k_min - 0.5)) for x in tail)
    if not _close(fit["gamma"], gamma, rel=1e-10):
        bad.append(f"gamma {fit['gamma']}; closed form at k_min={k_min} gives {gamma}")
    ks = {int(c): _ks_distance(k, int(c)) for c in np.unique(k)[:-1]}
    if k_min not in ks or not _close(fit["ks_stat"], ks[k_min], rel=1e-9):
        bad.append(f"ks_stat {fit['ks_stat']} at k_min={k_min}; expected {ks.get(k_min)}")
    elif fit["ks_stat"] > min(ks.values()) + 1e-12:
        best = min(ks, key=ks.get)
        bad.append(f"k_min={k_min} is not the KS minimum (k_min={best}: {ks[best]})")
    return bad


def _ks_distance(k: np.ndarray, k0: int) -> float:
    tail = k[k >= k0]
    gamma = 1.0 + tail.size / np.log(tail / (k0 - 0.5)).sum()
    grid = np.arange(k0, int(k[-1]) + 1)
    empirical = np.searchsorted(tail, grid, side="right") / tail.size
    fitted = 1.0 - zeta(gamma, grid + 1) / zeta(gamma, k0)
    return float(np.abs(empirical - fitted).max())


def check_comparison(ref: Reference, rows: list[dict[str, str]]) -> list[str]:
    """Degree-distribution points against a size-matched random graph: the
    observed column is this graph's distribution; the reference column is a
    distribution with the same mean degree 2m/n."""
    bad = []
    counts: dict[int, int] = {}
    for k in ref.degrees():
        counts[k] = counts.get(k, 0) + 1
    observed = {int(r["k"]): float(r["p_observed"]) for r in rows if r["p_observed"]}
    reference = {int(r["k"]): float(r["p_reference"]) for r in rows if r["p_reference"]}
    if observed != {k: c / ref.n for k, c in counts.items()}:
        bad.append("p_observed differs from the degree counts")
    if not _close(math.fsum(reference.values()), 1.0, rel=1e-12):
        bad.append("p_reference does not sum to 1")
    mean = math.fsum(k * p for k, p in reference.items())
    if not _close(mean, 2.0 * ref.m / ref.n, rel=1e-12):
        bad.append(f"reference mean degree {mean}; expected {2.0 * ref.m / ref.n}")
    return bad


# -- synchronization -------------------------------------------------------------------


def algebraic_connectivity(ref: Reference) -> float:
    if not nx.is_connected(ref.graph):
        return 0.0
    return float(nx.algebraic_connectivity(ref.graph, method="tracemin_lu", tol=1e-12))


def check_spectral(ref: Reference, spec: dict, a: float) -> list[str]:
    """lambda_1 = 0, lambda_2 = -(algebraic connectivity ``a``), and the
    derived gap, zero multiplicity, threshold and stability flag."""
    bad = []
    scale = max(1, max(ref.degrees()))
    if abs(spec["lambda1"]) > 1e-9 * scale:
        bad.append(f"lambda1 {spec['lambda1']} is not 0")
    if not _close(spec["lambda2"], -a, rel=1e-9, abs_tol=1e-9 * scale):
        bad.append(f"lambda2 {spec['lambda2']}; expected {-a}")
    if not _close(spec["gap"], spec["lambda1"] - spec["lambda2"], rel=1e-15):
        bad.append("gap is not lambda1 - lambda2")
    comps = nx.number_connected_components(ref.graph)
    if spec["zero_multiplicity"] != comps:
        bad.append(f"zero multiplicity {spec['zero_multiplicity']}; expected {comps}")
    threshold = 0.1 * max(1.0, 2.0 * ref.m / ref.n)
    if not _close(spec["closeness_threshold"], threshold, rel=1e-12):
        bad.append(f"closeness threshold {spec['closeness_threshold']}; expected {threshold}")
    if spec["stable"] != (comps == 1 and a >= threshold):
        bad.append(f"stable={spec['stable']} with gap {a} and threshold {threshold}")
    return bad


def check_trajectory(
    ref: Reference,
    rows: list[dict[str, str]],
    seed: int,
    a: float,
    dt: float,
    t_max: float,
    tail_rate: bool,
    c: float = 1.0,
) -> list[str]:
    """A zero-dynamics run: the time grid, the error of the seeded start state,
    and the error series against the exact solution x(t) = exp(-c L t) x0
    from an eigendecomposition of the Laplacian L.

    RK4 at the default step differs from the exact solution in the fast modes
    only, and those have died out by t = 1, so the comparison starts there and
    stops where the error nears rounding noise.

    With ``tail_rate``, the decay rate fitted to the error tail is checked
    against the spectrum: the slowest mode of L must be lambda_2 = ``a``, and
    the rate must be within 10% of the rate at which the exact solution decays
    over the same stretch. That rate is |lambda_2| * c once the lambda_2 mode
    dominates; when eigenvalues just above lambda_2 carry more of the start
    state, it stays higher until after the error has reached rounding noise
    (on one 1000-node BA graph, lambda_2..lambda_5 = 1.237, 1.285, 1.316,
    1.324 gave a tail rate of 1.365, in the exact solution and in netsync).
    """
    steps = int(round(t_max / dt))
    times = np.array([float(r["t"]) for r in rows])
    err = np.array([float(r["sync_error"]) for r in rows])
    if times.size != steps + 1 or not np.array_equal(times, np.arange(steps + 1) * dt):
        return [f"{times.size} time points, expected {steps + 1} at spacing {dt}"]
    bad = []
    x0 = np.random.Generator(np.random.PCG64(seed)).standard_normal((ref.n, 1))
    dev0 = x0 - x0.mean(axis=0)
    if not _close(err[0], float(np.abs(dev0).max()), rel=1e-12):
        bad.append(f"initial sync error {err[0]}; the seeded start state gives {np.abs(dev0).max()}")
    lap = nx.laplacian_matrix(ref.graph, nodelist=ref.order).toarray().astype(float)
    w, v = np.linalg.eigh(lap)
    coeff = v.T @ dev0[:, 0]
    window = (times >= 1.0) & (err > 1e-8 * err[0])
    tail = np.zeros_like(window)
    if tail_rate:
        # the later half of the stretch before the error nears rounding noise
        t_end = times[np.nonzero(err > 1e-9 * err[0])[0][-1]]
        tail = (times >= t_end / 2) & (times <= t_end)
    exact = np.zeros(times.size)
    for i in np.nonzero(window | tail)[0]:
        exact[i] = np.abs(v @ (coeff * np.exp(-c * w * times[i]))).max()
    worst = float(np.max(np.abs(err[window] / exact[window] - 1.0), initial=0.0))
    if window.sum() < 10 or worst > 1e-4:
        bad.append(f"sync error departs from the exact solution by {worst:.3g} (relative)")
    if tail_rate:
        rate = -np.polyfit(times[tail], np.log(err[tail]), deg=1)[0]
        spectral = -np.polyfit(times[tail], np.log(exact[tail]), deg=1)[0]
        if not _close(w[1], a, rel=1e-9, abs_tol=1e-9 * max(1.0, w[-1])):
            bad.append(f"slowest mode of L is {w[1]:.6g}; |lambda2| is {a:.6g}")
        if abs(rate / spectral - 1.0) > 0.10:
            bad.append(f"tail decay rate {rate:.4g}; the spectrum gives {spectral:.4g} over the same stretch")
    return bad


# -- resilience -------------------------------------------------------------------


def removal_order(ref: Reference, strategy: str, seed: int | None) -> list[str]:
    """The ids a sweep removes, in order, found independently of netsync.

    Attack removes the highest current degree, ties to the smallest id. Error
    draws an index into the surviving ids, in id order, with PCG64(seed).
    """
    g = ref.graph
    survivors = list(ref.order)
    degree = dict(g.degree())
    gone: set[str] = set()
    rng = np.random.Generator(np.random.PCG64(seed)) if strategy == "error" else None
    out = []
    for _ in range(ref.n - 1):
        if strategy == "attack":
            target = max(survivors, key=degree.__getitem__)
        else:
            target = survivors[int(rng.integers(0, len(survivors)))]
        survivors.remove(target)
        gone.add(target)
        for v in g.neighbors(target):
            if v not in gone:
                degree[v] -= 1
        out.append(target)
    return out


def replay(
    ref: Reference,
    order: list[str],
    record_every: float,
    diameter_rows: set[int] | None = None,
) -> list[dict]:
    """Remove ``order`` one node at a time and record the rows netsync's sweep
    records: fraction removed, largest-component size, component count, and
    the diameter of the largest component where ``diameter_rows`` asks for it
    (every row when None)."""
    g = ref.graph.copy()
    n0 = ref.n
    stride = max(1, round(record_every * n0))
    rows = [_row(ref, g, 0.0, diameter_rows is None or 0 in diameter_rows)]
    for removed, target in enumerate(order, start=1):
        g.remove_node(target)
        if removed % stride == 0 or removed == n0 - 1:
            want = diameter_rows is None or len(rows) in diameter_rows
            rows.append(_row(ref, g, removed / n0, want))
    return rows


def _row(ref: Reference, g: nx.Graph, fraction: float, with_diameter: bool) -> dict:
    comps = list(nx.connected_components(g))
    lcc = ref.largest_component(g)
    row = {"fraction_removed": fraction, "lcc_size": len(lcc), "components": len(comps)}
    if with_diameter:
        row["diameter"] = nx.diameter(g.subgraph(lcc), usebounds=True) if len(lcc) >= 2 else 0
    return row


def check_trace(rows: list[dict], expected: list[dict]) -> list[str]:
    """Every recorded row against the replay; the largest component never grows."""
    bad = []
    if len(rows) != len(expected):
        return [f"{len(rows)} rows recorded; the replay records {len(expected)}"]
    for i, (got, want) in enumerate(zip(rows, expected)):
        for key, value in want.items():
            if got[key] != value:
                bad.append(f"row {i} {key}: {got[key]}; replay gives {value}")
        for key in ("lcc_size", "lcc_median", "lcc_min", "lcc_max"):
            if i and key in got and got[key] > rows[i - 1][key]:
                bad.append(f"row {i}: {key} grew")
    return bad[:20]


def trace_rows_from_csv(rows: list[dict[str, str]]) -> list[dict]:
    return [
        {
            "fraction_removed": float(r["fraction_removed"]),
            "diameter": int(r["diameter"]),
            "lcc_size": int(r["lcc_size"]),
            "components": int(r["components"]),
        }
        for r in rows
    ]


def ensemble_rows(traces: list[list[dict]]) -> list[dict]:
    """Per-row median, min and max over replayed error runs."""
    out = []
    for i, first in enumerate(traces[0]):
        row = {"fraction_removed": first["fraction_removed"]}
        for key, prefix in (("diameter", "diameter"), ("lcc_size", "lcc"), ("components", "components")):
            values = [t[i][key] for t in traces]
            row[f"{prefix}_median"] = float(np.median(values))
            row[f"{prefix}_min"] = min(values)
            row[f"{prefix}_max"] = max(values)
        out.append(row)
    return out


def check_validate(exit_code: int, text: str) -> list[str]:
    last = text.strip().splitlines()[-1] if text.strip() else ""
    if exit_code != 0 or not last.startswith("fixture valid"):
        return [f"validate exited {exit_code}: {last!r}"]
    return []
