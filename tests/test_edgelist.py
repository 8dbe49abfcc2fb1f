import pytest

from netsync.edgelist import (
    ingest_edge_list,
    parse_edge_list,
    serialize_edge_list,
)
from netsync.errors import ParseError, ValidationError
from netsync.generators import ERParams, generate_er


def test_duplicates_collapsed_and_counted():
    result = parse_edge_list("A B\nB A\nA B\n")
    assert result.graph.n == 2
    assert result.graph.m == 1
    assert result.duplicate_count == 2


def test_empty_file_warns():
    result = parse_edge_list("")
    assert result.graph.n == 0


def test_labels_first_appearance_order():
    result = parse_edge_list("C A\nA B\n")
    assert result.graph.labels == ["C", "A", "B"]


def test_comments_and_blank_lines_ignored():
    result = parse_edge_list("# header\n\nA B\n  # trailing comment line\nB C\n")
    assert result.graph.m == 2


def test_comma_separated():
    result = parse_edge_list("A, B\nB, C\n")
    assert result.graph.m == 2


def test_malformed_line_reports_number():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("A B\nA B C\n")
    assert exc.value.line == 2


def test_self_loop_rejected_with_line():
    with pytest.raises(ValidationError, match="line.* 2"):
        parse_edge_list("A B\nC C\n")


def test_round_trip(tmp_path):
    g = generate_er(ERParams(n=20, m=40, seed=5))
    path = tmp_path / "g.edges"
    path.write_text(serialize_edge_list(g))
    back = ingest_edge_list(path)
    original = {frozenset((g.label_of(u), g.label_of(v))) for u, v in g.edges()}
    reparsed = {
        frozenset((back.graph.label_of(u), back.graph.label_of(v)))
        for u, v in back.graph.edges()
    }
    assert reparsed == original
    assert back.graph.m == g.m
    assert back.duplicate_count == 0


def test_serialize_uses_labels():
    result = parse_edge_list("IT UK\nUK DE\n")
    text = serialize_edge_list(result.graph)
    assert "IT UK" in text and "UK DE" in text
