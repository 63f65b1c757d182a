"""Build a graph realizing a typed degree table.

Each diagonal type gets a simple graph with the prescribed degree vector,
each inverse pair of non-diagonal types a loopless digraph with the
prescribed (out, in) vectors, and :func:`glue` unions the edge sets.  The
union is provably simple for tables harvested from any graph, so a collision
during gluing is treated as an internal bug, never as bad input.

Both realizers are deterministic greedies; identical inputs produce
identical edge lists byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .edge_types import EdgeType, TypeClass, TypedDegreeTable, build_table, inverse_pairs
from .errors import InternalInfeasible, InternalInvariantError, NotGraphical, SimplicityViolation
from .graphs import Digraph, SimpleGraph
from .sequences import check_neighborhood
from .trees import RootedTree

__all__ = [
    "EdgeTag",
    "TaggedGraph",
    "havel_hakimi",
    "kleitman_wang",
    "glue",
    "realize_neighborhood",
]


@dataclass(frozen=True)
class EdgeTag:
    """Provenance of a glued edge: its type and, for A-class parts, the tail.

    `tail` is the endpoint that sees `etype`; the other endpoint sees the
    inverse.  Diagonal edges look the same from both ends, so tail is None.
    """

    etype: EdgeType
    tail: int | None


class TaggedGraph(NamedTuple):
    graph: SimpleGraph
    tags: dict[tuple[int, int], EdgeTag]


def havel_hakimi(degrees: Sequence[int]) -> SimpleGraph:
    """Simple graph with exactly the given degree sequence.

    Greedy: repeatedly pick the vertex with the largest residual degree
    (lowest index on ties) and connect all its remaining stubs to the
    vertices with the next-largest residuals (again lowest index on ties).
    The input must be graphical; a stuck state raises InternalInfeasible.
    """
    res = [int(d) for d in degrees]
    if any(d < 0 for d in res):
        raise ValueError("degrees must be non-negative")
    n = len(res)
    edges: list[tuple[int, int]] = []
    while True:
        v = min(range(n), key=lambda i: (-res[i], i), default=-1)
        if v < 0 or res[v] == 0:
            break
        need = res[v]
        res[v] = 0
        targets = sorted(
            (i for i in range(n) if i != v and res[i] > 0), key=lambda i: (-res[i], i)
        )
        if len(targets) < need:
            raise InternalInfeasible(
                f"cannot place {need} edges at a vertex with only {len(targets)} candidates"
            )
        for t in targets[:need]:
            res[t] -= 1
            edges.append((v, t) if v < t else (t, v))
    graph = SimpleGraph(n, edges)
    if graph.degree_sequence() != tuple(int(d) for d in degrees):
        raise InternalInfeasible("constructed graph does not match the requested degrees")
    return graph


def kleitman_wang(pairs: Sequence[tuple[int, int]]) -> Digraph:
    """Loopless digraph with exactly the given (out, in) degree pairs.

    Greedy: repeatedly pick the vertex with the lexicographically largest
    residual (out, in) pair (lowest index on ties) and send all its remaining
    out-stubs to distinct other vertices, preferring larger residual
    in-degree, then larger residual out-degree, then lower index.  The input
    must be digraphical; a stuck state raises InternalInfeasible.
    """
    res_out = [int(a) for a, _ in pairs]
    res_in = [int(b) for _, b in pairs]
    if any(d < 0 for d in res_out + res_in):
        raise ValueError("degree pairs must be non-negative")
    n = len(res_out)
    arcs: list[tuple[int, int]] = []
    while True:
        v = min(range(n), key=lambda i: (-res_out[i], -res_in[i], i), default=-1)
        if v < 0 or res_out[v] == 0:
            break
        need = res_out[v]
        res_out[v] = 0
        targets = sorted(
            (i for i in range(n) if i != v and res_in[i] > 0),
            key=lambda i: (-res_in[i], -res_out[i], i),
        )
        if len(targets) < need:
            raise InternalInfeasible(
                f"cannot place {need} arcs at a vertex with only {len(targets)} candidates"
            )
        for t in targets[:need]:
            res_in[t] -= 1
            arcs.append((v, t))
    if any(res_in):
        raise InternalInfeasible("in-stubs left over after all out-stubs were placed")
    digraph = Digraph(n, arcs)
    want = tuple((int(a), int(b)) for a, b in pairs)
    if digraph.bidegree_sequence() != want:
        raise InternalInfeasible("constructed digraph does not match the requested degrees")
    return digraph


def glue(
    parts: Mapping[EdgeType, SimpleGraph | Digraph], n: int | None = None
) -> TaggedGraph:
    """Union per-type edge sets into one simple graph with provenance tags.

    Diagonal keys must map to SimpleGraph parts and A-class keys to Digraph
    parts (arc directions are forgotten in the union).  If two parts
    contribute the same vertex pair, or one digraph part contains both
    directions of a pair, SimplicityViolation is raised: that cannot happen
    for parts realized from a checked table, so it indicates a bug.
    """
    items = sorted(parts.items(), key=lambda kv: kv[0].sort_key())
    sizes = {part.n for _, part in items}
    if len(sizes) > 1:
        raise ValueError(f"parts disagree on vertex count: {sorted(sizes)}")
    if n is None:
        n = sizes.pop() if sizes else 0
    elif sizes and sizes != {n}:
        raise ValueError(f"parts are on {sizes.pop()} vertices, expected {n}")

    tags: dict[tuple[int, int], EdgeTag] = {}

    def add(key: tuple[int, int], tag: EdgeTag) -> None:
        clash = tags.get(key)
        if clash is not None:
            raise SimplicityViolation(
                f"pair {key} contributed by type ({clash.etype.near},{clash.etype.far}) "
                f"and again by ({tag.etype.near},{tag.etype.far})"
            )
        tags[key] = tag

    for etype, part in items:
        if etype.klass is TypeClass.DIAGONAL:
            if not isinstance(part, SimpleGraph):
                raise ValueError(f"diagonal type {etype} needs a SimpleGraph part")
            for u, v in part.edges:
                add((u, v), EdgeTag(etype, None))
        elif etype.klass is TypeClass.A:
            if not isinstance(part, Digraph):
                raise ValueError(f"A-class type {etype} needs a Digraph part")
            for u, v in part.arcs:
                add((u, v) if u < v else (v, u), EdgeTag(etype, u))
        else:
            raise ValueError("pass B-class parts as their A-class inverse")

    return TaggedGraph(SimpleGraph(n, tags.keys()), tags)


def _check_tags_against_table(tagged: TaggedGraph, table: TypedDegreeTable) -> None:
    """Every vertex must carry exactly the typed degrees the table prescribes."""
    counts: dict[tuple[int, EdgeType], int] = {}

    def bump(vertex: int, etype: EdgeType) -> None:
        counts[(vertex, etype)] = counts.get((vertex, etype), 0) + 1

    for (u, v), tag in tagged.tags.items():
        if tag.tail is None:
            bump(u, tag.etype)
            bump(v, tag.etype)
        else:
            head = v if tag.tail == u else u
            bump(tag.tail, tag.etype)
            bump(head, tag.etype.inverse())

    want = {
        (i, etype): d
        for etype in table.occurring_types()
        for i, d in enumerate(table.degrees[etype])
        if d
    }
    if counts != want:
        raise InternalInvariantError("glued edge tags do not reproduce the typed degrees")


def realize_neighborhood(trees: Sequence[RootedTree], depth: int) -> SimpleGraph:
    """Graph whose depth-`depth` cover balls match `trees` index by index.

    Runs the full pipeline: typed degree table, per-type feasibility check,
    per-type realizers, glue.  Raises NotGraphical (carrying the verdict)
    when the collection fails the check; DepthError propagates from the
    table construction.
    """
    table = build_table(trees, depth)
    verdict = check_neighborhood(table)
    if not verdict.graphical:
        raise NotGraphical(verdict)

    parts: dict[EdgeType, SimpleGraph | Digraph] = {}
    for etype in table.occurring_types():
        if etype.klass is TypeClass.DIAGONAL:
            parts[etype] = havel_hakimi(table.degrees[etype])
    for rep in inverse_pairs(table):
        pairs = list(zip(table.degree_vector(rep), table.degree_vector(rep.inverse())))
        parts[rep] = kleitman_wang(pairs)

    tagged = glue(parts, n=table.n)
    _check_tags_against_table(tagged, table)
    return tagged.graph
