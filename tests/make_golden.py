"""Write the golden corpus of CLI outputs that test_golden.py replays.

Usage: PYTHONPATH=src python tests/make_golden.py [OUT]

Each case is a small random graph (n <= 6, depth 1-3) with its
`neighborhoods` output, and a tree collection (the harvest with every child
list shuffled in the text, or an `oracle.mutate_collection` mutant of it)
with its `check --explain` and `realize` outputs, and the `verify` outcome of
the graph against that collection.  Inputs and outputs are
stored together, so the test needs nothing from this script.  Regenerate
only when an output is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from unicover import RootedTree, SimpleGraph, mutate_collection, read_collection, write_graph
from unicover.cli import main

SEED = 20261018
CASES = 100
DEFAULT_OUT = Path(__file__).with_name("golden_cli.json")


def run_cli(argv: list[str], paths: dict[str, Path]) -> dict:
    """Run `argv` with GRAPH/TREES replaced by `paths`; record the symbolic argv."""
    real = [str(paths[a]) if a in paths else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(real)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def shuffled_text(tree: RootedTree, rng: random.Random) -> str:
    kids = [shuffled_text(c, rng) for c in tree.children]
    rng.shuffle(kids)
    return "(" + "".join(kids) + ")"


def make_case(rng: random.Random, work: Path) -> dict:
    n = rng.randint(1, 6)
    depth = rng.randint(1, 3)
    p = rng.choice((0.3, 0.5, 0.7))
    graph = SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
    buf = io.StringIO()
    write_graph(graph, buf)
    paths = {"GRAPH": work / "g.txt", "TREES": work / "t.txt"}
    paths["GRAPH"].write_text(buf.getvalue(), encoding="utf-8")
    unfold = run_cli(["neighborhoods", "GRAPH", "--depth", str(depth)], paths)

    trees = read_collection(unfold["stdout"].splitlines())
    kind = rng.choice(("harvest", "mutant"))
    if kind == "mutant":
        for _ in range(rng.randint(1, 2)):
            trees = mutate_collection(trees, rng)
    trees_text = "".join(shuffled_text(t, rng) + "\n" for t in trees)
    paths["TREES"].write_text(trees_text, encoding="utf-8")
    depth_args = ["--depth", str(depth)] if rng.random() < 0.5 else []
    verify_args = ["--verify"] if rng.random() < 0.5 else []

    runs = [
        unfold,
        run_cli(["check", "TREES", *depth_args, "--explain"], paths),
        run_cli(["realize", "TREES", *depth_args, *verify_args], paths),
        # Draws no random numbers, so the runs above stay as they were.
        run_cli(["verify", "GRAPH", "TREES", *depth_args], paths),
    ]
    return {"kind": kind, "graph": buf.getvalue(), "trees": trees_text, "runs": runs}


def main_write(out: Path) -> None:
    rng = random.Random(SEED)
    with tempfile.TemporaryDirectory() as tmp:
        cases = [make_case(rng, Path(tmp)) for _ in range(CASES)]
    out.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main_write(Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUT)
