"""The exit-code contract on near-valid and garbage input.

Every command ends in 0 or 1 (a verdict) or 2 (bad input), with at most one
line on stderr; 3 and a traceback are bugs.  Inputs start from the balls
and the edge list of a small graph, then get one edit: a tree word with a
character dropped, doubled or swapped, a graph file with a bad header, a
repeated edge or an out-of-range end, or raw bytes in place of either file.
Depths above 6 are left to the memory-capped test in test_verify.py.
Where `check` reaches a verdict on at most 5 trees, brute force over every
graph on that many vertices must agree with it.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import unicover
from unicover.cli import _read_lines, main
from unicover.oracle import exists_realization_bruteforce
from unicover.trees import depth as tree_depth


@st.composite
def graphs(draw) -> unicover.SimpleGraph:
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return unicover.SimpleGraph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@st.composite
def tree_files(draw, graph: unicover.SimpleGraph) -> bytes:
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        return draw(st.binary(max_size=40))
    radius = draw(st.integers(min_value=0, max_value=3))
    words = [unicover.canonical_code(b) for b in unicover.neighborhood_collection(graph, radius)]
    if words and draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=len(words) - 1))
        word = words[i]
        j = draw(st.integers(min_value=0, max_value=len(word) - 1))
        edit = draw(st.sampled_from(("drop", "double", "swap")))
        if edit == "drop":
            word = word[:j] + word[j + 1 :]
        elif edit == "double":
            word = word[:j] + word[j] + word[j:]
        else:
            k = draw(st.integers(min_value=0, max_value=len(word) - 1))
            chars = list(word)
            chars[j], chars[k] = chars[k], chars[j]
            word = "".join(chars)
        words[i] = word
    return "".join(w + "\n" for w in words).encode()


@st.composite
def graph_files(draw, graph: unicover.SimpleGraph) -> bytes:
    edit = draw(st.sampled_from(("none", "header", "repeat", "range", "bytes")))
    if edit == "bytes":
        return draw(st.binary(max_size=40))
    header = f"n={graph.n}"
    lines = [f"{u} {v}" for u, v in graph.edges]
    if edit == "header":
        header = draw(st.sampled_from(("", "n=", "n=-1", "n=x", "m=3", "n=99999999999", "n=2 2", "3")))
    elif edit == "repeat" and lines:
        lines.append(draw(st.sampled_from(lines)))
    elif edit == "range":
        lines.append(f"{draw(st.integers(min_value=-2, max_value=graph.n + 2))} {graph.n}")
    return "".join(line + "\n" for line in [header, *lines]).encode()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), graph=graphs(), depth=st.one_of(st.none(), st.integers(min_value=-2, max_value=6)))
def test_every_command_exits_0_1_or_2_with_one_line_at_most(data, graph, depth):
    with tempfile.TemporaryDirectory() as work:
        trees, graph_file = Path(work, "t.txt"), Path(work, "g.txt")
        trees.write_bytes(data.draw(tree_files(graph)))
        graph_file.write_bytes(data.draw(graph_files(graph)))
        flag = [] if depth is None else [f"--depth={depth}"]
        for argv in (
            ["check", str(trees), *flag],
            ["check", "--explain", str(trees), *flag],
            ["realize", str(trees), *flag],
            ["realize", "--verify", str(trees), *flag],
            ["neighborhoods", str(graph_file), f"--depth={0 if depth is None else depth}"],
            ["verify", str(graph_file), str(trees), *flag],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, err.getvalue())
            assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
            assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue(), argv
            if argv[:2] == ["check", str(trees)] and code in (0, 1):
                collection = unicover.read_collection(_read_lines(str(trees)))
                if len(collection) <= 5:
                    h = depth if depth is not None else max(1, max(map(tree_depth, collection), default=0))
                    assert (code == 0) == (exists_realization_bruteforce(collection, h) is not None), argv
