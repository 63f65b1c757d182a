"""Build a graph realizing a typed degree table.

Each diagonal type gets a simple graph with the prescribed degree vector,
each inverse pair of non-diagonal types a loopless digraph with the
prescribed (out, in) vectors, and :func:`glue` unions the edge sets.  The
union is provably simple for tables harvested from any graph, so a collision
during gluing is treated as an internal bug, never as bad input.

Both realizers are deterministic greedies; identical inputs produce
identical edge lists byte for byte.  :func:`realize_table` runs them along
a checked table's plan, each type on its support alone, relabelled in
vertex order; a support of s vertices with m edges costs O((s + m) log s).
:func:`glue` takes the parts in plan order, maps them back through the
plan's vertices and checks each against the table once, in time linear in
its support and edges.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Sequence

from .edge_types import EdgeType, TypedDegreeTable, build_table
from .errors import InternalInfeasible, InternalInvariantError, NotGraphical, SimplicityViolation
from .graphs import Digraph, SimpleGraph
from .sequences import check_neighborhood
from .trees import RootedTree

__all__ = [
    "havel_hakimi",
    "kleitman_wang",
    "glue",
    "realize_neighborhood",
    "realize_table",
]


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


def glue(table: TypedDegreeTable, parts: Sequence[SimpleGraph | Digraph]) -> SimpleGraph:
    """Union the parts realized along `table`'s plan into one simple graph on `table.n` vertices.

    `parts` follows the plan: one SimpleGraph per `table.diagonal` type, then
    one Digraph per `table.pairs` entry, each on that entry's vertices (part
    vertex j is the j-th); arc directions are forgotten.  A wrong part count,
    kind or size raises ValueError.  Parts realized from a checked table
    never trip the other checks, so each indicates a bug: a vertex pair given
    twice (by two parts, or by both arcs of one Digraph part) raises
    SimplicityViolation; plan vertices that do not ascend within 0..n-1, a
    part whose (bi)degrees differ from `table.supports` (a pair's (out, in)
    being its rep's count and its inverse's), a plan entry of the wrong kind
    for its type, or a type that no plan entry covers raise
    InternalInvariantError.
    """
    supports, n = table.supports, table.n
    plan = [(etype, [v for v, _ in supports.get(etype, ())], SimpleGraph) for etype in table.diagonal]
    plan += [(rep, vertices, Digraph) for rep, vertices, _ in table.pairs]
    if len(parts) != len(plan):
        raise ValueError(f"the plan has {len(plan)} entries but {len(parts)} parts were given")
    covered = set(table.diagonal)
    owner: dict[tuple[int, int], EdgeType] = {}
    for (etype, vertices, kind), part in zip(plan, parts):
        name = f"({etype.near},{etype.far})"
        if not isinstance(part, kind) or part.n != len(vertices):
            raise ValueError(f"type {name} needs a {kind.__name__} part on {len(vertices)} vertices")
        if (etype.near == etype.far) != (kind is SimpleGraph):
            raise InternalInvariantError(f"the plan puts type {name} in the wrong kind of part")
        if sorted(set(vertices)) != list(vertices) or (vertices and not 0 <= vertices[0] <= vertices[-1] < n):
            raise InternalInvariantError(f"plan vertices of type {name} must ascend within 0..{n - 1}")
        if kind is SimpleGraph:
            got, want = part.degree_sequence(), tuple([c for _, c in supports.get(etype, ())])
            ends = part.edges
        else:
            inverse = etype.inverse()
            covered.update((etype, inverse))
            out, inn = dict(supports.get(etype, ())), dict(supports.get(inverse, ()))
            want = tuple([(out.pop(v, 0), inn.pop(v, 0)) for v in vertices])
            # Counts left at vertices off the plan match no part.
            got = part.bidegree_sequence() if not (out or inn) else None
            ends = [(u, v) if u < v else (v, u) for u, v in part.arcs]
        if got != want:
            raise InternalInvariantError(f"part of type {name} does not have the table's degrees")
        for u, v in ends:  # ascending plan vertices keep u < v
            pair = (vertices[u], vertices[v])
            clash = owner.get(pair)
            if clash is not None:
                raise SimplicityViolation(
                    f"pair {pair} given by type ({clash.near},{clash.far}) and again by {name}"
                )
            owner[pair] = etype
    uncovered = [etype for etype in supports if etype not in covered]
    if uncovered:
        raise InternalInvariantError(f"type ({uncovered[0].near},{uncovered[0].far}) is in no plan entry")
    return SimpleGraph(n, owner)


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
    parts: list[SimpleGraph | Digraph] = [
        havel_hakimi([c for _, c in table.supports[etype]]) for etype in table.diagonal
    ]
    parts += [kleitman_wang(counts) for _, _, counts in table.pairs]
    return glue(table, parts)
