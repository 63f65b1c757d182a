"""Run one unicover command with timing wrappers around each layer.

Usage: python3 tracer.py TRACE_FILE ARGS...

ARGS are the command-line arguments of ``unicover``.  Before ``main`` runs,
the public functions that each layer exposes to ``unicover.cli`` and
``unicover.realize`` are replaced, in those two namespaces only, by wrappers
that record a span per call and a few work counts.  Nothing under ``src/``
changes.  The spans and counts are kept in memory and written to TRACE_FILE
as JSON when the command ends; the exit code is the command's own.
"""

from __future__ import annotations

import json
import operator
import sys
import time
from contextlib import contextmanager

import unicover.cli as cli
import unicover.realize as realize
from unicover.edge_types import TypeClass

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index] plus named counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        record = [name, time.perf_counter_ns(), 0, parent]
        self.spans.append(record)
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self.stack.pop()

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Replace module.attr by a spanned call; `after(result, *args)` counts work.

        Counting runs in a bookkeeping span of its own, so it is left out of
        every layer's self time and shows only in the tracing overhead.
        """
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = inner(*args, **kwargs)
            if after is not None:
                with self.span(BOOKKEEPING):
                    after(result, *args)
            return result

        setattr(module, attr, traced)

    def wrap_generator(self, module, attr: str, name: str, before=None) -> None:
        """Like `wrap` for a generator: one span per item produced."""
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            if before is not None:
                with self.span(BOOKKEEPING):
                    args = before(*args)
            items = inner(*args, **kwargs)
            while True:
                with self.span(name):
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                yield item

        setattr(module, attr, traced)


def install(tracer: Tracer) -> None:
    def edges_read(graph, *_args) -> None:
        tracer.add("graphs.edges_read", len(graph.edges))

    def nodes_parsed(lines):
        lines = list(lines)
        tracer.add(
            "trees.nodes_parsed",
            sum(s.count("(") for s in map(str.strip, lines) if s and not s.startswith("#")),
        )
        return (lines,)

    def table_work(table, *_args) -> None:
        tracer.add("edge_types.types", len(table.degrees))
        tracer.add("edge_types.support", sum(len(vec) - vec.count(0) for vec in table.degrees.values()))

    def largest_support(_verdict, table) -> None:
        # A diagonal type is tested on its nonzero counts, an inverse pair on
        # the vertices where either direction is nonzero.
        best = 0
        for etype, vec in table.degrees.items():
            if etype.klass is not TypeClass.DIAGONAL:
                vec = tuple(map(operator.or_, vec, table.degree_vector(etype.inverse())))
            best = max(best, len(vec) - vec.count(0))
        tracer.peak("sequences.largest_support", best)

    def calls(name: str):
        return lambda *_: tracer.add(name, 1)

    def ball_nodes(balls, *_args) -> None:
        total = 0
        for ball in balls:
            stack = [ball]
            while stack:
                node = stack.pop()
                total += 1
                stack.extend(node.children)
        tracer.add("unfold.ball_nodes", total)

    for module in (cli, realize):
        tracer.wrap(module, "build_table", "edge_types.build_table", after=table_work)
        tracer.wrap(module, "check_neighborhood", "sequences.check_neighborhood", after=largest_support)
    tracer.wrap(cli, "read_graph", "graphs.read_graph", after=edges_read)
    tracer.wrap(cli, "write_graph", "graphs.write_graph")
    tracer.wrap_generator(cli, "iter_collection", "trees.iter_collection", before=nodes_parsed)
    tracer.wrap(cli, "serialize", "trees.serialize")
    tracer.wrap(
        cli, "realize_neighborhood", "realize.realize_neighborhood",
        after=lambda graph, *_: tracer.add("realize.edges_written", len(graph.edges)),
    )
    tracer.wrap(realize, "havel_hakimi", "realize.havel_hakimi", after=calls("realize.havel_hakimi.calls"))
    tracer.wrap(realize, "kleitman_wang", "realize.kleitman_wang", after=calls("realize.kleitman_wang.calls"))
    tracer.wrap(realize, "glue", "realize.glue")
    tracer.wrap(cli, "neighborhood_collection", "unfold.neighborhood_collection", after=ball_nodes)
    tracer.wrap(cli, "first_mismatch", "unfold.first_mismatch")


def main(argv: list[str]) -> int:
    trace_file, args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        with tracer.span("cli.main"):
            return cli.main(args)
    finally:
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
