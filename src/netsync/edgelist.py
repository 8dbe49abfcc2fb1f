"""Edge-list text ingestion and serialization.

Format: one edge per line, two whitespace- or comma-separated node labels;
lines starting with '#' (and blank lines) are ignored. Labels are mapped to
dense integer ids in first-appearance order; the graph keeps them as
``Graph.labels``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, ValidationError
from .graph import Graph


@dataclass
class IngestResult:
    graph: Graph
    duplicate_count: int


def _split_tokens(line: str) -> list[str]:
    if "," in line:
        return [tok.strip() for tok in line.split(",") if tok.strip()]
    return line.split()


def parse_edge_list(text: str, source: str = "<string>") -> IngestResult:
    """Parse edge-list text into a simple graph.

    Duplicate pairs (in either orientation) are collapsed and counted;
    self-pairs are rejected with their line numbers.
    """
    labels: list[str] = []
    id_of: dict[str, int] = {}
    edges: set[tuple[int, int]] = set()
    duplicates = 0
    self_loop_lines: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = _split_tokens(line)
        if len(tokens) != 2:
            raise ParseError(
                f"{source}:{lineno}: expected two node labels, got {len(tokens)}: {raw!r}",
                line=lineno,
            )
        ids = []
        for tok in tokens:
            if tok not in id_of:
                id_of[tok] = len(labels)
                labels.append(tok)
            ids.append(id_of[tok])
        u, v = ids
        if u == v:
            self_loop_lines.append(lineno)
            continue
        key = (u, v) if u < v else (v, u)
        if key in edges:
            duplicates += 1
        else:
            edges.add(key)

    if self_loop_lines:
        shown = ", ".join(str(n) for n in self_loop_lines)
        raise ValidationError(
            f"{source}: self-loop edge(s) on line(s) {shown}"
        )

    graph = Graph(len(labels), edges, labels=labels)
    return IngestResult(graph, duplicates)


def ingest_edge_list(path: str | Path) -> IngestResult:
    path = Path(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_edge_list(text, source=str(path))


def serialize_edge_list(g: Graph) -> str:
    buf = io.StringIO()
    for u, v in g.edges():
        buf.write(f"{g.label_of(u)} {g.label_of(v)}\n")
    return buf.getvalue()
