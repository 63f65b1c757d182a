"""The exit-code contract on near-valid and garbage input.

Every command ends in 0 or 1 (a verdict) or 2 (bad input), with at most one
line on stderr; 3 and a traceback are bugs.  Inputs start from the balls
and the edge list of a small graph, then get one edit: a tree word with a
character dropped, doubled or swapped, a graph file with a bad header, a
repeated edge or an out-of-range end, or raw bytes in place of either file.
Depths above 6 are left to the memory-capped test in test_verify.py.
Where `check` reaches a verdict on at most 6 trees, brute force over every
graph on that many vertices must agree with it.  Three fixed inputs join
them: tree words deeper than the recursion limit, a long comment line or
padded lines, which must not count as tree text, and `n=` headers at and
past `MAX_VERTICES`.  A standard stream closed at start-up is bad input too,
`--help` text that stdout cannot take is a failed write like any result,
and a diagnostic that stderr cannot take leaves the exit code as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unicover
from treegen import random_graph
from unicover import cli
from unicover.cli import _read_lines, main
from unicover.graphs import MAX_VERTICES
from unicover.oracle import exists_realization_bruteforce
from unicover.trees import depth as tree_depth

SRC = str(Path(__file__).resolve().parents[1] / "src")


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


def exit_code(argv: list[str]) -> int:
    """`main(argv)`'s exit code, once it is known to keep the contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue(), argv
    return code


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
            code = exit_code(argv)
            if argv[:2] == ["check", str(trees)] and code in (0, 1):
                collection = unicover.read_collection(_read_lines(str(trees)))
                if len(collection) <= 6:
                    h = depth if depth is not None else max(1, max(map(tree_depth, collection), default=0))
                    assert (code == 0) == (exists_realization_bruteforce(collection, h) is not None), argv


def tree_command_codes(trees: Path, graph: Path, depth: int | None) -> list[int]:
    """Exit codes of `check`, `check --explain`, `realize`, `realize --verify` and `verify` on these files."""
    flag = [] if depth is None else [f"--depth={depth}"]
    return [
        exit_code([*argv, *flag])
        for argv in (
            ["check", str(trees)],
            ["check", "--explain", str(trees)],
            ["realize", str(trees)],
            ["realize", "--verify", str(trees)],
            ["verify", str(graph), str(trees)],
        )
    ]


ARM = "(" * 3000 + ")" * 3000  # a path of 3,000 nodes, three times Python's default recursion limit


@pytest.mark.parametrize(
    "word, count, graph_text, want",
    [
        # One arm at each root: no graph has these balls.
        pytest.param("(" + ARM + ")", 2, "n=2\n0 1\n", {None: 1, 1: 2, 3000: 1, 5000: 1}, id="one-arm"),
        # Two arms: the triangle's balls at depth 3,000, which end too soon for depth 5,000.
        pytest.param(
            "(" + ARM + ARM + ")", 3, "n=3\n0 1\n0 2\n1 2\n", {None: 0, 1: 2, 3000: 0, 5000: 1}, id="two-arms"
        ),
    ],
)
@pytest.mark.parametrize("depth", [None, 1, 3000, 5000])
def test_words_past_the_recursion_limit(tmp_path, word, count, graph_text, want, depth):
    trees, graph = tmp_path / "t.txt", tmp_path / "g.txt"
    trees.write_text((word + "\n") * count)
    graph.write_text(graph_text)
    assert tree_command_codes(trees, graph, depth) == [want[depth]] * 5


@pytest.mark.parametrize(
    "edit",
    [
        lambda words: ["#" * 2000, *words],
        lambda words: [" " * 1000 + w + "\t" * 1000 for w in words],
    ],
    ids=["2000-character-comment", "padded-lines"],
)
@pytest.mark.parametrize("depth, want", [(None, 0), (3, 1), (1000, 1)])
def test_comments_and_padding_are_not_tree_text(tmp_path, monkeypatch, edit, depth, want):
    # The depth-2 balls of a graph whose balls grow exponentially with the radius.
    graph = random_graph(random.Random(5), 9, 0.35)
    words = [unicover.canonical_code(b) for b in unicover.neighborhood_collection(graph, 2)]
    trees, graph_file = tmp_path / "t.txt", tmp_path / "g.txt"
    trees.write_text("".join(line + "\n" for line in edit(words)))
    with graph_file.open("w") as out:
        unicover.write_graph(graph, out)
    ball_ids, longest = cli.ball_ids, max(map(len, words))

    def bounded(forest, g, radius):
        # A radius past what the words can spell would exhaust memory here, so it exits 3 at once instead.
        assert radius <= longest // 2, f"unfolding to radius {radius}"
        return ball_ids(forest, g, radius)

    monkeypatch.setattr(cli, "ball_ids", bounded)
    assert tree_command_codes(trees, graph_file, depth) == [want] * 5


@pytest.mark.parametrize(
    "graph_text, commands",
    [
        # Accepted, and verify then finds one tree too few; neighborhoods would write 10^6 balls.
        pytest.param(f"n={MAX_VERTICES}\n", ["verify"], id="at-limit"),
        pytest.param(f"n={MAX_VERTICES}\n0 {MAX_VERTICES}\n", ["neighborhoods", "verify"], id="edge-past-limit"),
        pytest.param(f"n={MAX_VERTICES + 1}\n", ["neighborhoods", "verify"], id="past-limit"),
        pytest.param("n=" + "9" * 30 + "\n", ["neighborhoods", "verify"], id="30-digits"),
    ],
)
def test_counts_at_and_past_the_vertex_limit(tmp_path, graph_text, commands):
    trees, graph = tmp_path / "t.txt", tmp_path / "g.txt"
    trees.write_text("()\n")
    graph.write_text(graph_text)
    argv = {"neighborhoods": ["neighborhoods", str(graph), "--depth=1"], "verify": ["verify", str(graph), str(trees)]}
    assert [exit_code(argv[c]) for c in commands] == [2] * len(commands)


def _env(unbuffered: bool) -> dict[str, str]:
    """This process's environment with `src` first on PYTHONPATH, and stdout unbuffered if asked."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "redirected, code, err",
    [
        pytest.param("check - <&-", 2, "error: cannot read stdin: Bad file descriptor\n", id="closed-stdin"),
        pytest.param(
            "neighborhoods g.txt --depth 1 >&-",
            2,
            "error: cannot write stdout: Bad file descriptor\n",
            id="closed-stdout",
        ),
        pytest.param("verify g.txt t.txt 2>/dev/full", 0, "", id="full-stderr-on-a-match"),
        pytest.param("check bad.txt 2>/dev/full", 2, "", id="full-stderr-on-bad-input"),
        pytest.param("--help >/dev/full", 2, "error: cannot write stdout: No space left on device\n", id="full-help"),
        pytest.param(
            "check --help >/dev/full",
            2,
            "error: cannot write stdout: No space left on device\n",
            id="full-command-help",
        ),
        pytest.param("--help >&-", 2, "error: cannot write stdout: Bad file descriptor\n", id="closed-help"),
    ],
)
def test_a_closed_or_full_standard_stream_keeps_the_contract(tmp_path, redirected, code, err, unbuffered):
    if "/dev/full" in redirected and not os.path.exists("/dev/full"):
        pytest.skip("this system has no /dev/full")
    (tmp_path / "g.txt").write_text("n=2\n0 1\n")
    (tmp_path / "t.txt").write_text("(())\n(())\n")
    (tmp_path / "bad.txt").write_text("(()\n")
    proc = subprocess.run(
        ["sh", "-c", f'exec "$0" -m unicover.cli {redirected}', sys.executable],
        cwd=tmp_path,
        env=_env(unbuffered),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", [None, "check"])
def test_help_that_stdout_takes_is_argparse_text_and_exits_0(monkeypatch, command, unbuffered):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to this width
    parser = cli.build_parser()
    if command is not None:
        parser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[command]
    argv = [command, "--help"] if command else ["--help"]
    proc = subprocess.run(
        [sys.executable, "-m", "unicover.cli", *argv],
        env=_env(unbuffered),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, parser.format_help(), "")
