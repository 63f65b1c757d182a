"""Command-line interface.

Exit codes: 0 success (graphical / match), 1 negative outcome (not
graphical / mismatch / failed selftest), 2 input error, 3 internal error
that should be reported as a bug.  JSON results go to stdout, diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from typing import Sequence

from .edge_types import build_table
from .errors import (
    DepthError,
    GraphFormatError,
    InternalInvariantError,
    NotGraphical,
    ParseError,
    SizeError,
    UnicoverError,
)
from .graphs import read_graph, to_dot, write_graph
from .oracle import cross_validate
from .realize import realize_neighborhood
from .sequences import check_neighborhood
from .trees import Forest, RootedTree, iter_collection, write_collection
# Not called here; perfbench/tracer.py wraps `cli.serialize` by this name.
from .trees import canonical_code as serialize  # noqa: F401
from .unfold import first_mismatch, neighborhood_collection


def _read_lines(path: str) -> list[str]:
    if path == "-":
        return sys.stdin.read().splitlines()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().splitlines()
    except OSError as exc:
        raise UnicoverError(f"cannot read {path}: {exc.strerror}") from None


class _Output:
    """Output target that only touches the filesystem on success paths."""

    def __init__(self, path: str):
        self.path = path

    def write_text(self, text: str) -> None:
        if self.path == "-":
            sys.stdout.write(text)
            return
        try:
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UnicoverError(f"cannot write {self.path}: {exc.strerror}") from None


def _load_trees(path: str) -> tuple[list[RootedTree], list[int]]:
    pairs = list(iter_collection(_read_lines(path)))
    return [t for _, t in pairs], [lineno for lineno, _ in pairs]


def _resolve_depth(trees: Sequence[RootedTree], lines: Sequence[int], override: int | None) -> int:
    """Depth to check at: the override, or the deepest tree (at least 1)."""
    forest = Forest()
    depths = [forest.depths[t] for t in forest.intern(trees)]
    if override is None:
        return max(1, max(depths, default=0))
    if override < 1:
        raise DepthError("--depth must be >= 1")
    offenders = [lines[i] for i, d in enumerate(depths) if d > override]
    if offenders:
        raise DepthError(
            f"trees deeper than --depth {override} on line(s) {offenders}", indices=tuple(offenders)
        )
    return override


def _verdict_payload(verdict, depth: int) -> dict:
    return {
        "graphical": verdict.graphical,
        "h": depth,
        "failures": [f.to_json_dict() for f in verdict.failures],
    }


def cmd_check(args: argparse.Namespace) -> int:
    trees, lines = _load_trees(args.trees)
    depth = _resolve_depth(trees, lines, args.depth)
    table = build_table(trees, depth)
    verdict = check_neighborhood(table)
    payload = _verdict_payload(verdict, depth)
    if args.explain:
        payload["table"] = table.to_json_dict()
    print(json.dumps(payload, indent=2))
    return 0 if verdict.graphical else 1


def cmd_realize(args: argparse.Namespace) -> int:
    trees, lines = _load_trees(args.trees)
    depth = _resolve_depth(trees, lines, args.depth)
    try:
        graph = realize_neighborhood(trees, depth)
    except NotGraphical as exc:
        print(f"not graphical at depth {depth}: {exc}", file=sys.stderr)
        print(json.dumps(_verdict_payload(exc.verdict, depth), indent=2))
        return 1
    if args.verify:
        bad = first_mismatch(graph, trees, depth)
        if bad is not None:
            raise InternalInvariantError(
                f"realized graph fails verification at vertex {bad}"
            )
    if args.format == "dot":
        _Output(args.output).write_text(to_dot(graph))
    else:
        buf = io.StringIO()
        write_graph(graph, buf)
        _Output(args.output).write_text(buf.getvalue())
    return 0


def cmd_neighborhoods(args: argparse.Namespace) -> int:
    graph = read_graph(_read_lines(args.graph))
    if args.depth < 0:
        raise UnicoverError("--depth must be >= 0")
    buf = io.StringIO()
    write_collection(neighborhood_collection(graph, args.depth), buf)
    _Output(args.output).write_text(buf.getvalue())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    graph = read_graph(_read_lines(args.graph))
    trees, lines = _load_trees(args.trees)
    depth = _resolve_depth(trees, lines, args.depth)
    bad = first_mismatch(graph, trees, depth)
    if bad is None:
        print(f"ok: all {graph.n} vertices match at depth {depth}", file=sys.stderr)
        return 0
    print(f"mismatch at vertex {bad}", file=sys.stderr)
    return 1


def cmd_selftest(args: argparse.Namespace) -> int:
    runs = []
    for n in range(args.max_n + 1):
        for depth in range(1, args.depth + 1):
            runs.append(cross_validate(n, depth, args.mutants_per_case, args.seed))
    bad = sum(len(r.disagreements) for r in runs)
    payload = {
        "cases_total": sum(r.cases_total for r in runs),
        "agreements": sum(r.agreements for r in runs),
        "disagreements_total": bad,
        "runs": [r.to_json_dict() for r in runs],
    }
    print(json.dumps(payload, indent=2))
    return 0 if bad == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unicover",
        description=(
            "Decide whether a collection of rooted trees is the collection of "
            "depth-h universal-cover neighborhoods of some simple graph, build "
            "such a graph, and verify it by direct unfolding."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether a tree collection is graphical")
    p.add_argument("trees", help="tree collection file, one ()-word per line ('-' for stdin)")
    p.add_argument("--depth", type=int, default=None, help="ball depth (default: deepest tree)")
    p.add_argument("--explain", action="store_true", help="include the typed degree table")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("realize", help="build a graph realizing a tree collection")
    p.add_argument("trees", help="tree collection file ('-' for stdin)")
    p.add_argument("-o", "--output", default="-", help="graph file to write ('-' for stdout)")
    p.add_argument("--depth", type=int, default=None, help="ball depth (default: deepest tree)")
    p.add_argument("--verify", action="store_true", help="re-unfold the result and compare")
    p.add_argument("--format", choices=("text", "dot"), default="text", help="output format")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("neighborhoods", help="unfold a graph into its cover-ball collection")
    p.add_argument("graph", help="graph file ('-' for stdin)")
    p.add_argument("--depth", type=int, required=True, help="ball radius (>= 0)")
    p.add_argument("-o", "--output", default="-", help="tree file to write ('-' for stdout)")
    p.set_defaults(func=cmd_neighborhoods)

    p = sub.add_parser("verify", help="check that a graph realizes a tree collection")
    p.add_argument("graph", help="graph file ('-' for stdin)")
    p.add_argument("trees", help="tree collection file ('-' for stdin)")
    p.add_argument("--depth", type=int, default=None, help="ball depth (default: deepest tree)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="cross-validate against brute force on small sizes")
    p.add_argument("--max-n", type=int, default=5, help="largest vertex count (default 5)")
    p.add_argument("--depth", type=int, default=2, help="largest ball depth (default 2)")
    p.add_argument("--mutants-per-case", type=int, default=3, help="mutants per harvest")
    p.add_argument("--seed", type=int, default=0, help="mutation RNG seed")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal error (please report): {exc}", file=sys.stderr)
        return 3
    except (ParseError, GraphFormatError, DepthError, SizeError, UnicoverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug, never a verdict
        print(f"internal error (please report): {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
