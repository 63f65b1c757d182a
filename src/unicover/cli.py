"""Command-line interface.

Exit codes: 0 success (graphical / match), 1 negative outcome (not
graphical / mismatch / failed selftest), 2 input error, failed write or a
stdin or stdout closed at start-up, 3 internal error that should be reported
as a bug.  Results, `--help` text included, go to stdout or `-o FILE`
through `_write`, diagnostics to stderr through `_say`, which drops one that
stderr cannot take, so the exit code never depends on stderr.  Both flush
what they wrote, so a command process (`main()` with no arguments) ends
without interpreter teardown once its results and diagnostics are out,
while `main(argv)` returns its exit code and leaves the interpreter as it
was.  A verdict is written from its fixed schema, as
`print(json.dumps(payload, indent=2))` writes it, one item at a time and
without `json`, which only `selftest` loads.  A command parses its tree
collection once, into one Forest, and works on the root ids from then on.
`verify` counts the tree lines before it unfolds anything, and unfolds only
when the count matches.  With `--depth H` (H >= 1) it then unfolds the balls
into that Forest and loads the trees: a line that spells the canonical code
of a ball or of one of its subtrees is looked up, and only the other lines
are parsed.  It unfolds no deeper than the longest tree line can spell: a
line of L characters holds no tree of depth L // 2, so a ball still growing
at that radius matches no line, and one that has stopped is the same at
radius H.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from typing import IO, Callable, Iterable, Sequence

from .edge_types import TypedDegreeTable, table_from_ids
from .errors import DepthError, InternalInvariantError, NotGraphical, SizeError, UnicoverError
from .graphs import read_graph, to_dot, write_graph
from .realize import realize_table
from .sequences import Verdict, check_neighborhood
from .trees import Forest, content_lines, iter_collection
from .unfold import ball_ids, first_difference

# Not called here; perfbench/tracer.py wraps these names in this module.
# They come from their home modules: the package's own exports load lazily.
from .edge_types import build_table  # noqa: F401
from .realize import realize_neighborhood  # noqa: F401
from .trees import canonical_code as serialize  # noqa: F401
from .unfold import first_mismatch, neighborhood_collection  # noqa: F401


def _std(stream: IO[str] | None) -> IO[str]:
    """Standard stream `stream`, or the OSError its descriptor gives if it was closed when Python started."""
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return stream


def _mute(stream: IO[str] | None, original: IO[str] | None) -> None:
    """Point the descriptor of a standard stream Python opened at the null device after a failed write.

    Python flushes the stream again at exit after argparse's own exits and in a caller of
    `main(argv)`, where the bytes still buffered would fail twice.
    """
    if stream is not None and stream is original:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _read_lines(path: str) -> list[str]:
    """Lines of the UTF-8 text in file `path`, or on stdin for '-'.

    Lines break at LF, CRLF and CR only, as in a text-mode file (not at form feeds, U+2028, ...).
    """
    name = "stdin" if path == "-" else path
    try:
        if path != "-":
            with open(path, "rb") as handle:
                text = handle.read().decode("utf-8")
        else:
            stdin = _std(sys.stdin)
            # The bytes, so undecodable input fails here whatever stdin's error handler;
            # a text-only stream such as io.StringIO has none.
            text = stdin.buffer.read().decode("utf-8") if hasattr(stdin, "buffer") else stdin.read()
        return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    except OSError as exc:
        raise UnicoverError(f"cannot read {name}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise UnicoverError(
            f"cannot read {name}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} at offset {exc.start})"
        ) from None


def _write(path: str, emit: Callable[[IO[str]], object]) -> None:
    """Hand file `path`, or stdout for '-', to `emit`; a failed write is bad input (exit 2).

    Stdout is flushed however `emit` ends, so the output of a command that fails
    midway is out before its process ends without a flush at exit.
    """
    try:
        if path == "-":
            stdout = _std(sys.stdout)
            try:
                emit(stdout)
            finally:
                stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as handle:
                emit(handle)
    except OSError as exc:
        if path == "-":
            _mute(sys.stdout, sys.__stdout__)
        raise UnicoverError(f"cannot write {'stdout' if path == '-' else path}: {exc.strerror}") from None


def _say(message: str) -> None:
    """Write one diagnostic line to stderr; one that cannot be written is dropped, and the exit code stands."""
    try:
        print(message, file=_std(sys.stderr), flush=True)
    except OSError:
        _mute(sys.stderr, sys.__stderr__)


def _roots(lines: Iterable[str], override: int | None, forest: Forest) -> tuple[list[int], int]:
    """Root ids of the collection in `forest`, and the override or else the deepest depth (>= 1).

    Errors come in this order: a malformed line, then `override`, then a tree deeper than it.
    """
    pairs = list(iter_collection(lines, forest=forest))
    roots = [t for _, t in pairs]
    if override is None:
        return roots, max(1, max([forest.depths[t] for t in roots], default=0))
    if override < 1:
        raise DepthError("--depth must be >= 1")
    offenders = [i for i, (_, t) in enumerate(pairs) if forest.depths[t] > override]
    if offenders:
        numbers = [pairs[i][0] for i in offenders]
        raise DepthError(f"trees deeper than --depth {override} on line(s) {numbers}", indices=tuple(offenders))
    return roots, override


# A failure and a type as `json.dumps(item, indent=2)` lays them out.  `_write_list` moves them to their indent.
_FAILURE = '{\n  "type": {\n    "r": "%s",\n    "s": "%s"\n  },\n  "kind": "%s",\n  "k": %s\n}'
_TYPE = '{\n  "r": "%s",\n  "s": "%s",\n  "class": "%s",\n  "N": %d,\n  "degrees": [\n    %s\n  ]\n}'


def _write_list(out: IO[str], pad: str, template: str, rows: Iterable[tuple]) -> None:
    """A JSON list of `template % row` for each row, its items at indent `pad`, written one item at a time."""
    item, sep = template.replace("\n", "\n" + pad), "[\n" + pad
    for row in rows:
        out.write(sep + item % row)
        sep = ",\n" + pad
    out.write("[]" if sep[0] == "[" else "\n" + pad[:-2] + "]")


def _emit_verdict(out: IO[str], verdict: Verdict, depth: int, table: TypedDegreeTable | None = None) -> None:
    """The verdict, with `table` if given, as `print(json.dumps(payload, indent=2))` writes it, one item at a time.

    Its schema is fixed and its strings are canonical codes and enum values, which need no escaping.
    """
    out.write('{\n  "graphical": %s,\n  "h": %d,\n  "failures": ' % ("true" if verdict.graphical else "false", depth))
    failures = (f.to_json_dict() for f in verdict.failures)
    rows = ((f["type"]["r"], f["type"]["s"], f["kind"], "null" if f["k"] is None else f["k"]) for f in failures)
    _write_list(out, "    ", _FAILURE, rows)
    if table is not None:
        out.write(',\n  "table": {\n    "h": %d,\n    "n": %d,\n    "types": ' % (table.depth, table.n))
        types = table.json_types()
        # The move puts "    %s" at indent 10, one degree per line; a type occurs somewhere, so it has degrees.
        rows = ((t["r"], t["s"], t["class"], t["N"], ",\n          ".join(map(str, t["degrees"]))) for t in types)
        _write_list(out, "      ", _TYPE, rows)
        out.write("\n  }")
    out.write("\n}\n")


def cmd_check(args: argparse.Namespace) -> int:
    forest = Forest()
    roots, depth = _roots(_read_lines(args.trees), args.depth, forest)
    table = table_from_ids(forest, roots, depth)
    verdict = check_neighborhood(table)
    _write("-", lambda out: _emit_verdict(out, verdict, depth, table if args.explain else None))
    return 0 if verdict.graphical else 1


def cmd_realize(args: argparse.Namespace) -> int:
    forest = Forest()
    roots, depth = _roots(_read_lines(args.trees), args.depth, forest)
    table = table_from_ids(forest, roots, depth)
    verdict = check_neighborhood(table)
    if not verdict.graphical:
        _say(f"not graphical at depth {depth}: {NotGraphical(verdict)}")
        _write("-", lambda out: _emit_verdict(out, verdict, depth))
        return 1
    graph = realize_table(table)
    if args.verify:
        bad = first_difference(ball_ids(forest, graph, depth), roots)
        if bad is not None:
            raise InternalInvariantError(f"realized graph fails verification at vertex {bad}")
    _write(args.output, lambda out: out.write(to_dot(graph)) if args.format == "dot" else write_graph(graph, out))
    return 0


def cmd_neighborhoods(args: argparse.Namespace) -> int:
    if args.depth < 0:
        raise UnicoverError("--depth must be >= 0")
    graph = read_graph(_read_lines(args.graph))
    forest = Forest()
    balls = ball_ids(forest, graph, args.depth)
    _write(args.output, lambda out: out.writelines(forest.codes[t] + "\n" for t in balls))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.graph == "-" and args.trees == "-":
        raise UnicoverError("the graph and the trees cannot both be read from stdin ('-')")
    graph = read_graph(_read_lines(args.graph))
    lines = _read_lines(args.trees)
    sizes = [len(line) for _, line in content_lines(lines)]
    forest = Forest()
    balls = None
    if len(sizes) == graph.n and args.depth is not None and args.depth >= 1:
        balls = ball_ids(forest, graph, min(args.depth, max(sizes, default=0) // 2))
    roots, depth = _roots(lines, args.depth, forest)  # a bad line or depth is reported before the count
    if len(roots) != graph.n:
        raise UnicoverError(f"{len(roots)} trees for a graph on {graph.n} vertices")
    if balls is None:  # the radius was the deepest tree's depth
        balls = ball_ids(forest, graph, depth)
    bad = first_difference(balls, roots)
    if bad is None:
        _say(f"ok: all {graph.n} vertices match at depth {depth}")
        return 0
    _say(f"mismatch at vertex {bad}")
    return 1


def cmd_selftest(args: argparse.Namespace) -> int:
    # The brute-force oracle and json are imported here, so no other command loads them.
    import json

    from .oracle import MAX_GRAPH_VERTICES, cross_validate

    # Smaller values would run no case at all and pass vacuously.
    if args.max_n < 0 or args.depth < 1 or args.mutants_per_case < 0:
        raise UnicoverError("--max-n and --mutants-per-case must be >= 0, --depth >= 1")
    if args.max_n > MAX_GRAPH_VERTICES:
        raise SizeError(f"--max-n must be <= {MAX_GRAPH_VERTICES}, the brute-force cap on graph size")
    cases = [(n, depth) for n in range(args.max_n + 1) for depth in range(1, args.depth + 1)]
    runs = [cross_validate(n, depth, args.mutants_per_case, args.seed) for n, depth in cases]
    bad = sum(len(r.disagreements) for r in runs)
    payload = {
        "cases_total": sum(r.cases_total for r in runs),
        "agreements": sum(r.agreements for r in runs),
        "disagreements_total": bad,
        "runs": [r.to_json_dict() for r in runs],
    }
    _write("-", lambda out: print(json.dumps(payload, indent=2), file=out))
    return 0 if bad == 0 else 1


class _Parser(argparse.ArgumentParser):
    def print_help(self) -> None:  # help text is a result: a failed write exits 2
        _write("-", lambda out: out.write(self.format_help()))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    """Run the command that `argv` (by default `sys.argv[1:]`) names; its exit code.

    With no `argv`, as the `unicover` script calls it, the process ends with that
    code once `_write` and `_say` have flushed the results and diagnostics, without
    interpreter teardown.  `main(argv)` returns the code and leaves the interpreter
    as it was.  argparse's own exits (`--help`, a usage error) raise `SystemExit`.
    """
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
    except InternalInvariantError as exc:
        _say(f"internal error (please report): {exc}")
        code = 3
    except UnicoverError as exc:
        _say(f"error: {exc}")
        code = 2
    except Exception as exc:  # anything else is a bug, never a verdict
        _say(f"internal error (please report): {type(exc).__name__}: {exc}")
        code = 3
    if argv is None:
        os._exit(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
