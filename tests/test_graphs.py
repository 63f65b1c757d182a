from __future__ import annotations

import io

import pytest

from unicover import graphs
from unicover import GraphFormatError, SimpleGraph, read_graph, to_dot, write_graph


def test_simple_graph_normalizes_and_sorts():
    g = SimpleGraph(4, [(2, 0), (3, 1), (0, 1)])
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert g.adj[0] == (1, 2)
    assert g.degree_sequence() == (2, 2, 1, 1)


@pytest.mark.parametrize("edges", [[(0, 0)], [(0, 1), (1, 0)], [(0, 5)], [(-1, 0)]])
def test_simple_graph_rejects_bad_edges(edges):
    with pytest.raises(ValueError):
        SimpleGraph(3, edges)


def test_simple_graph_rejects_a_negative_count():
    with pytest.raises(ValueError, match="vertex count must be >= 0"):
        SimpleGraph(-1)


def test_simple_graph_reads_its_labels_as_integers():
    for graph, text in ((SimpleGraph(True, []), "n=1\n"), (SimpleGraph(2, [(True, 0)]), "n=2\n0 1\n")):
        buf = io.StringIO()
        write_graph(graph, buf)
        assert buf.getvalue() == text
        assert read_graph(buf.getvalue().splitlines()) == graph
        assert type(graph.n) is int and all(type(v) is int for ws in graph.adj for v in ws)
    for n, edges in ((2.0, []), (2, [(0.0, 1.0)]), (2, [(0, 1.0)])):
        with pytest.raises(TypeError):
            SimpleGraph(n, edges)


def test_simple_graph_repr_lists_its_edges():
    assert repr(SimpleGraph(3, [(2, 0)])) == "SimpleGraph(n=3, edges=[(0, 2)])"


def test_simple_graph_equality_and_hash():
    a = SimpleGraph(3, [(0, 1)])
    b = SimpleGraph(3, [(1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != SimpleGraph(4, [(0, 1)])


def test_graph_file_roundtrip():
    g = SimpleGraph(5, [(0, 3), (1, 2)])
    buf = io.StringIO()
    write_graph(g, buf)
    assert buf.getvalue() == "n=5\n0 3\n1 2\n"
    assert read_graph(buf.getvalue().splitlines()) == g


def test_read_graph_allows_comments_and_blanks():
    text = "# a graph\n\nn=3\n# the only edge\n0 2\n"
    assert read_graph(text.splitlines()) == SimpleGraph(3, [(0, 2)])


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 1\n", "header"),
        ("n=x\n", "bad vertex count"),
        ("n=-2\n", ">= 0"),
        ("n=2\n0\n", "expected 'u v'"),
        ("n=2\n0 a\n", "non-integer"),
        ("n=2\n0 0\n", "loop"),
        ("n=2\n0 3\n", "out of range"),
        ("n=2\n0 1\n1 0\n", "parallel"),
        ("", "header"),
        ("n=5_0\n", "line 1: bad vertex count"),
        ("n=+3\n", "line 1: bad vertex count"),
        ("n=\u0663\n", "line 1: bad vertex count"),
        ("n=20\n# edges\n1_0 2\n", "line 3: non-integer"),
    ],
)
def test_read_graph_rejects_malformed(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        read_graph(text.splitlines())


def test_dot_output_declares_all_vertices():
    dot = to_dot(SimpleGraph(3, [(0, 2)]))
    assert dot.splitlines() == ["graph G {", "  0;", "  1;", "  2;", "  0 -- 2;", "}"]


def test_read_graph_builds_one_graph(monkeypatch):
    built = []

    class CountingGraph(SimpleGraph):
        # Every construction, validating or trusted, indexes the graph once.
        def _index(self, *args):
            built.append(1)
            super()._index(*args)

    monkeypatch.setattr(graphs, "SimpleGraph", CountingGraph)
    text = "n=6\n" + "".join(f"{i} {i + 1}\n" for i in range(5)) + "0 5\n"
    graph = read_graph(text.splitlines())
    assert len(built) == 1
    assert graph.edges == ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5))


def test_read_graph_names_the_repeated_line():
    with pytest.raises(GraphFormatError, match="line 4: parallel edge \\(0, 1\\)"):
        read_graph("n=3\n0 1\n1 2\n1 0\n".splitlines())


def test_read_graph_bounds_the_header_before_building(monkeypatch):
    built = []

    class CountingGraph(SimpleGraph):
        # Every construction, validating or trusted, indexes the graph once.
        def _index(self, *args):
            built.append(1)
            super()._index(*args)

    monkeypatch.setattr(graphs, "SimpleGraph", CountingGraph)
    monkeypatch.setattr(graphs, "MAX_VERTICES", 5)
    assert read_graph("n=5\n0 4\n".splitlines()).n == 5
    with pytest.raises(GraphFormatError, match="line 2: vertex count 6 exceeds the limit of 5"):
        read_graph("# big\nn=6\n0 1\n".splitlines())
    assert len(built) == 1
