"""Build a graph realizing a typed degree table.

Each diagonal type gets a simple graph with the prescribed degree vector,
each inverse pair of non-diagonal types a loopless digraph with the
prescribed (out, in) vectors, and :func:`glue` unions the edge sets.  The
union is provably simple for tables harvested from any graph, so a collision
during gluing is treated as an internal bug, never as bad input.

Both realizers are deterministic greedies; identical inputs produce
identical edge lists byte for byte.  :func:`realize_table` runs them along
a checked table's plan, each type on its support alone, relabelled in
vertex order, and :func:`glue` maps the parts back; a support of s vertices
with m edges costs O((s + m) log s).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Mapping, NamedTuple, Sequence

from .edge_types import EdgeType, TypeClass, TypedDegreeTable, build_table
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
    "realize_table",
]


class EdgeTag(NamedTuple):
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
    A heap keyed by (-residual, index) holds the vertices with a positive
    residual, so s such vertices and m edges cost O((s + m) log s).
    """
    res = [int(d) for d in degrees]
    if any(d < 0 for d in res):
        raise ValueError("degrees must be non-negative")
    # Every vertex in the heap has exactly one entry, with its current key:
    # a vertex's key only changes while it is popped.
    heap = [(-d, i) for i, d in enumerate(res) if d > 0]
    heapify(heap)
    edges: list[tuple[int, int]] = []
    while heap:
        key, v = heappop(heap)
        need = -key
        res[v] = 0
        targets = [heappop(heap)[1] for _ in range(min(need, len(heap)))]
        if len(targets) < need:
            raise InternalInfeasible(
                f"cannot place {need} edges at a vertex with only {len(targets)} candidates"
            )
        for t in targets:
            res[t] -= 1
            edges.append((v, t) if v < t else (t, v))
            if res[t]:
                heappush(heap, (-res[t], t))
    graph = SimpleGraph(len(res), edges)
    if graph.degree_sequence() != tuple(int(d) for d in degrees):
        raise InternalInfeasible("constructed graph does not match the requested degrees")
    return graph


def kleitman_wang(pairs: Sequence[tuple[int, int]]) -> Digraph:
    """Loopless digraph with exactly the given (out, in) degree pairs.

    Greedy: repeatedly pick the vertex with the lexicographically largest
    residual (out, in) pair (lowest index on ties) and send all its remaining
    out-stubs to distinct other vertices, preferring larger residual
    in-degree, then larger residual out-degree, then lower index.  The input
    must be digraphical; a stuck state raises InternalInfeasible.  Two heaps
    keyed by exactly these orders hold the vertices with a positive residual
    out-degree (sources) and in-degree (heads); an entry whose key is no
    longer the vertex's current one is dropped when it surfaces.  s such
    vertices and m arcs cost O((s + m) log s).
    """
    res_out = [int(a) for a, _ in pairs]
    res_in = [int(b) for _, b in pairs]
    if any(d < 0 for d in res_out + res_in):
        raise ValueError("degree pairs must be non-negative")
    sources = [(-a, -b, i) for i, (a, b) in enumerate(zip(res_out, res_in)) if a > 0]
    heads = [(-b, -a, i) for i, (a, b) in enumerate(zip(res_out, res_in)) if b > 0]
    heapify(sources)
    heapify(heads)

    def pop_head() -> int | None:
        while heads:
            b, a, i = heappop(heads)
            if -b == res_in[i] and -a == res_out[i]:
                return i
        return None

    arcs: list[tuple[int, int]] = []
    while sources:
        a, b, v = heappop(sources)
        if -a != res_out[v] or -b != res_in[v]:
            continue
        need = res_out[v]
        res_out[v] = 0
        # v's head entry is now stale, so v cannot be its own target; its
        # fresh entry goes back once the targets are chosen.
        targets: list[int] = []
        while len(targets) < need:
            t = pop_head()
            if t is None:
                raise InternalInfeasible(
                    f"cannot place {need} arcs at a vertex with only {len(targets)} candidates"
                )
            targets.append(t)
        if res_in[v]:
            heappush(heads, (-res_in[v], 0, v))
        for t in targets:
            res_in[t] -= 1
            arcs.append((v, t))
            if res_in[t]:
                heappush(heads, (-res_in[t], -res_out[t], t))
            if res_out[t]:
                heappush(sources, (-res_out[t], -res_in[t], t))
    if any(res_in):
        raise InternalInfeasible("in-stubs left over after all out-stubs were placed")
    digraph = Digraph(len(res_out), arcs)
    want = tuple((int(a), int(b)) for a, b in pairs)
    if digraph.bidegree_sequence() != want:
        raise InternalInfeasible("constructed digraph does not match the requested degrees")
    return digraph


def glue(
    parts: Mapping[EdgeType, tuple[Sequence[int], SimpleGraph | Digraph]], n: int
) -> TaggedGraph:
    """Union per-type edge sets into one simple graph on n vertices, with provenance tags.

    Each part comes with the ascending list of the vertices it was realized
    on: part vertex j is vertex `vertices[j]` of the union.  Diagonal keys
    must map to SimpleGraph parts and A-class keys to Digraph parts (arc
    directions are forgotten in the union).  If two parts contribute the
    same vertex pair, or one digraph part contains both directions of a
    pair, SimplicityViolation is raised: that cannot happen for parts
    realized from a checked table, so it indicates a bug.
    """
    items = sorted(parts.items(), key=lambda kv: kv[0].sort_key())
    for etype, (vertices, part) in items:
        if part.n != len(vertices):
            raise ValueError(
                f"part of type ({etype.near},{etype.far}) has {part.n} vertices "
                f"but {len(vertices)} labels"
            )
        ascending = all(u < v for u, v in zip(vertices, vertices[1:]))
        if not ascending or (vertices and not (vertices[0] >= 0 and vertices[-1] < n)):
            raise ValueError(
                f"labels of type ({etype.near},{etype.far}) must ascend within 0..{n - 1}"
            )

    tags: dict[tuple[int, int], EdgeTag] = {}

    def add(key: tuple[int, int], tag: EdgeTag) -> None:
        clash = tags.get(key)
        if clash is not None:
            raise SimplicityViolation(
                f"pair {key} contributed by type ({clash.etype.near},{clash.etype.far}) "
                f"and again by ({tag.etype.near},{tag.etype.far})"
            )
        tags[key] = tag

    for etype, (vertices, part) in items:
        if etype.klass is TypeClass.DIAGONAL:
            if not isinstance(part, SimpleGraph):
                raise ValueError(f"diagonal type {etype} needs a SimpleGraph part")
            # Ascending labels keep u < v.
            for u, v in part.edges:
                add((vertices[u], vertices[v]), EdgeTag(etype, None))
        elif etype.klass is TypeClass.A:
            if not isinstance(part, Digraph):
                raise ValueError(f"A-class type {etype} needs a Digraph part")
            for u, v in part.arcs:
                u, v = vertices[u], vertices[v]
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
        (i, etype): d for etype, support in table.supports.items() for i, d in support
    }
    if counts != want:
        raise InternalInvariantError("glued edge tags do not reproduce the typed degrees")


def realize_neighborhood(trees: Sequence[RootedTree], depth: int) -> SimpleGraph:
    """Graph whose depth-`depth` cover balls match `trees` index by index.

    Runs the full pipeline: typed degree table, per-type feasibility check,
    then :func:`realize_table`.  Raises NotGraphical (carrying the verdict)
    when the collection fails the check; DepthError propagates from the
    table construction.
    """
    table = build_table(trees, depth)
    verdict = check_neighborhood(table)
    if not verdict.graphical:
        raise NotGraphical(verdict)
    return realize_table(table)


def realize_table(table: TypedDegreeTable) -> SimpleGraph:
    """Graph realizing a table that passed :func:`check_neighborhood`, along the table's plan."""
    # Each type is realized on its support alone, relabelled in vertex order,
    # so the lowest-index tie-breaks pick the same edges as on all n vertices.
    parts: dict[EdgeType, tuple[Sequence[int], SimpleGraph | Digraph]] = {}
    for etype in table.diagonal:
        support = table.supports[etype]
        parts[etype] = ([v for v, _ in support], havel_hakimi([c for _, c in support]))
    for rep, vertices, pairs in table.pairs:
        parts[rep] = (vertices, kleitman_wang(pairs))

    tagged = glue(parts, n=table.n)
    _check_tags_against_table(tagged, table)
    return tagged.graph
