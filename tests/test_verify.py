"""`unicover verify`: canonical lines matched by their code, and unfolding that stops early.

With `--depth H` the balls are unfolded before the trees are loaded, and a
line that spells a ball's canonical code is looked up rather than parsed.
They are unfolded no deeper than the longest tree line can spell, and
only after the tree lines are counted; comment lines and the whitespace
around a tree count toward neither.
`reference.verify_by_parsing` parses every line first and unfolds at H;
both must give the same exit code, stdout and stderr on every input.
"""

from __future__ import annotations

import io
import random

import pytest

import child
import unicover
from reference import verify_by_parsing
from treegen import random_graph
from unicover import cli, trees
from unicover.cli import main

LOOKUP = cli.cmd_verify


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def graph_text(graph: unicover.SimpleGraph) -> str:
    buf = io.StringIO()
    unicover.write_graph(graph, buf)
    return buf.getvalue()


def spelled_backwards(tree: unicover.RootedTree) -> str:
    """The tree's word with every child list reversed: not canonical where two children differ."""
    return "(" + "".join(spelled_backwards(c) for c in reversed(tree.children)) + ")"


def chain(length: int) -> str:
    return "(" * length + ")" * length


def path_balls(n: int) -> list[str]:
    """Balls of the path on n vertices at any radius of at least n - 1."""
    return ["(" + "".join(chain(a) for a in sorted((v, n - 1 - v)) if a) + ")" for v in range(n)]


def variants(balls: list[unicover.RootedTree], h: int) -> dict[str, list[str]]:
    """Tree files, as lists of lines, built from the canonical balls of one graph at radius h."""
    codes = [unicover.canonical_code(b) for b in balls]
    i, j = next((i, j) for i in range(len(codes)) for j in range(i) if codes[i] != codes[j])
    k = next(k for k, b in enumerate(balls) if spelled_backwards(b) != codes[k])
    swapped = list(codes)
    swapped[i], swapped[j] = codes[j], codes[i]
    return {
        "canonical": codes,
        "swapped": swapped,
        "non-canonical": codes[:k] + [spelled_backwards(balls[k])] + codes[k + 1 :],
        "another vertex's ball": codes[:i] + [codes[j]] + codes[i + 1 :],
        "padded, comments, blanks": ["# balls", ""] + [f" \t{c}  " for c in codes[:-1]] + ["", "#", codes[-1]],
        "too few": codes[:-1],
        "too many": codes + codes[:1],
        "malformed after canonical": codes[:-1] + ["(()"],
        "deeper than h": codes[:-1] + [chain(h + 2)],
        "empty": [],
    }


def both(capsys, monkeypatch, argv: list[str], stdin: str | None = None) -> list[tuple[int, str, str]]:
    """Outcome of `verify` as it is, then as `verify_by_parsing`; `stdin` is fed fresh to each."""
    outcomes = []
    for command in (LOOKUP, verify_by_parsing):
        monkeypatch.setattr(cli, "cmd_verify", command)
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin.encode()), encoding="utf-8"))
        outcomes.append(run(capsys, "verify", *argv))
    return outcomes


@pytest.mark.parametrize(
    "graph, h, depths",
    [
        # Balls on a graph with cycles grow exponentially with the radius, so it stays small.
        (random_graph(random.Random(5), 9, 0.35), 2, ("4",)),
        # A path, a star and an isolated vertex: the balls stop growing at radius 5.
        (unicover.SimpleGraph(11, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (6, 8), (6, 9)]), 6, ("1000",)),
        # One cycle with pendant paths: the balls grow at every radius, but only
        # linearly, so the parsing reference can still unfold far past the lines' depth.
        (
            unicover.SimpleGraph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (5, 6), (2, 7), (7, 8)]),
            3,
            ("40", "300"),
        ),
    ],
    ids=["cycles", "forest", "unicyclic"],
)
def test_lookup_gives_the_outcome_of_parsing_every_line(graph, h, depths, tmp_path, capsys, monkeypatch):
    g = write(tmp_path / "g.txt", graph_text(graph))
    seen = set()
    for name, lines in variants(unicover.neighborhood_collection(graph, h), h).items():
        text = "".join(line + "\n" for line in lines)
        t = write(tmp_path / "t.txt", text)
        for depth in (None, "0", "-3", str(h - 1), str(h), str(h + 1), *depths):
            flag = [] if depth is None else ["--depth", depth]
            for argv, stdin in (([g, t], None), ([g, "-"], text), (["-", t], graph_text(graph))):
                got, want = both(capsys, monkeypatch, argv + flag, stdin)
                assert got == want, (name, depth, argv)
                seen.add(got[0])
    assert seen == {0, 1, 2}


def test_canonical_lines_with_a_depth_are_not_parsed(tmp_path, capsys, monkeypatch):
    graph = random_graph(random.Random(6), 12, 0.3)
    balls = unicover.neighborhood_collection(graph, 3)
    codes = [unicover.canonical_code(b) for b in balls]
    g = write(tmp_path / "g.txt", graph_text(graph))
    t = write(tmp_path / "t.txt", "# balls at radius 3\n" + "".join(f"  {c}\n\n" for c in codes))
    parsed = []
    parse = trees.Forest.parse
    monkeypatch.setattr(trees.Forest, "parse", lambda self, text: parsed.append(text) or parse(self, text))
    assert run(capsys, "verify", g, t, "--depth", "3")[0] == 0
    assert parsed == []
    # Without --depth the radius comes from the trees, so each distinct line is parsed.
    assert run(capsys, "verify", g, t)[0] == 0
    assert sorted(parsed) == sorted(set(codes))
    # With it, only a line that is not a ball's canonical code is parsed.
    parsed.clear()
    k = next(k for k, b in enumerate(balls) if spelled_backwards(b) != codes[k])
    codes[k] = spelled_backwards(balls[k])
    t = write(tmp_path / "t.txt", "".join(c + "\n" for c in codes))
    assert run(capsys, "verify", g, t, "--depth", "3")[0] == 0
    assert parsed == [codes[k]]


@pytest.mark.parametrize("n", [2, 5], ids=["K2", "path5"])
def test_unfolding_stops_once_the_balls_stop_growing(n, tmp_path, capsys, monkeypatch):
    # Each level costs one node call per directed edge; all 99,999 levels
    # would be 2·10⁵ calls on K2 and 8·10⁵ on the path.
    calls = []
    node = trees.Forest.node
    monkeypatch.setattr(trees.Forest, "node", lambda self, kids: calls.append(1) or node(self, kids))
    g = write(tmp_path / "g.txt", f"n={n}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1)))
    want = "".join(ball + "\n" for ball in path_balls(n))
    assert run(capsys, "neighborhoods", g, "--depth", "100000") == (0, want, "")
    assert len(calls) < 100
    calls.clear()
    t = write(tmp_path / "t.txt", want)
    assert run(capsys, "verify", g, t, "--depth", "100000") == (0, "", f"ok: all {n} vertices match at depth 100000\n")
    assert len(calls) < 100


def branching_balls(tmp_path) -> tuple[str, list[str]]:
    """The graph file of a graph whose balls grow exponentially with the radius, and its depth-2 balls."""
    graph = random_graph(random.Random(5), 9, 0.35)
    codes = [unicover.canonical_code(b) for b in unicover.neighborhood_collection(graph, 2)]
    return write(tmp_path / "g.txt", graph_text(graph)), codes


def capped_verify(*argv: str) -> tuple[int, str, str]:
    """`unicover verify *argv` in a child whose address space is capped at 800 MB."""
    pytest.importorskip("resource")
    entry = "import sys; from unicover.cli import main; sys.exit(main(sys.argv[1:]))"
    return child.run("-c", entry, "verify", *argv, cap=800 * 2**20, text=True)


def test_a_huge_depth_on_a_branching_graph_still_reports_the_bad_line(tmp_path):
    # Unfolding this graph at --depth 1000 would exhaust any memory; the lines are at most 2 levels deep.
    g, codes = branching_balls(tmp_path)
    t = write(tmp_path / "t.txt", "".join(c + "\n" for c in codes[:-1]) + "(()\n")
    want = "error: line 9: unbalanced '(': tree text ends too early\n"
    assert capped_verify(g, t, "--depth", "1000") == (2, "", want)


@pytest.mark.parametrize(
    "edit",
    [lambda lines: ["#" * 200, *lines], lambda lines: [" " * 200 + lines[0], *lines[1:]]],
    ids=["200-character-comment", "200-leading-spaces"],
)
def test_comments_and_padding_do_not_deepen_the_unfold(tmp_path, edit):
    # Only tree text counts toward the longest line L: at L // 2 = 100 these balls would exhaust the cap.
    g, codes = branching_balls(tmp_path)
    t = write(tmp_path / "t.txt", "".join(line + "\n" for line in edit(codes)))
    assert capped_verify(g, t, "--depth", "1000") == (1, "", "mismatch at vertex 0\n")


def test_the_tree_count_is_checked_before_unfolding(tmp_path, capsys, monkeypatch):
    graph = random_graph(random.Random(6), 12, 0.3)
    codes = [unicover.canonical_code(b) for b in unicover.neighborhood_collection(graph, 3)]
    g = write(tmp_path / "g.txt", graph_text(graph))
    calls = []
    ball_ids = cli.ball_ids
    monkeypatch.setattr(cli, "ball_ids", lambda *args: calls.append(1) or ball_ids(*args))
    t = write(tmp_path / "t.txt", "".join(c + "\n" for c in codes[:-1]))
    assert run(capsys, "verify", g, t, "--depth", "3") == (2, "", "error: 11 trees for a graph on 12 vertices\n")
    assert calls == []
    # A malformed line is still reported first, by its number.
    t = write(tmp_path / "t.txt", "".join(c + "\n" for c in codes[:-2]) + "(()\n")
    want = "error: line 11: unbalanced '(': tree text ends too early\n"
    assert run(capsys, "verify", g, t, "--depth", "3") == (2, "", want)
    assert calls == []
