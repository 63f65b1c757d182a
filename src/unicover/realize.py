"""Build a graph realizing a typed degree table.

Each entry of the table's plan becomes one part: for a diagonal type the
edges of a simple graph with the prescribed degree vector, for an inverse
pair of non-diagonal types the arcs of a bipartite digraph with the
prescribed (out, in) vectors.  The union of the edge sets is the
realization.  It is provably simple for every table
built from trees, so a collision while placing the parts is treated as an
internal bug, never as bad input.  Were uv placed as types (a, b) and (c, d)
at u, thus (b, a) and (d, c) at v, with a = u's tree less child b cut to
depth h - 1 and so on, then b, d agreeing to depth k makes a, c agree to
depth k + 1 and back, so the types are one.  At a single root the same
induction leaves no vertex on both sides of an inverse pair, or in two
diagonal types, so each pair is a bipartite degree problem.

Both realizers are deterministic greedies on one step, :func:`_draw`, and
return their edges in local labels, in the order placed, the same for the
same input.  They fail only by getting stuck, which raises
InternalInfeasible, so they build no graph and recount no degrees.
:func:`realize_table` takes one pass per entry of a checked table's plan,
each type on its support alone, relabelled in vertex order; a support of s
vertices with m edges costs O((s + m) log s).  A pair whose counts are
((1, 0), (0, 1)) or ((0, 1), (1, 0)) has exactly one arc, the one
Kleitman–Wang would choose, so it is placed directly, with no heap.
:func:`glue` is the one place a part is checked: it maps each part's edges
back through the plan's vertices into a single owner map, checks the
part's degrees against its own plan entry in time linear in the entry and
its edges, and builds the final graph once from that map without a second
validation.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Sequence

from .edge_types import EdgeType, TypedDegreeTable, build_table
from .errors import InternalInfeasible, InternalInvariantError, NotGraphical, SimplicityViolation
from .graphs import SimpleGraph
from .sequences import check_neighborhood
from .trees import RootedTree

__all__ = [
    "havel_hakimi",
    "kleitman_wang",
    "glue",
    "realize_neighborhood",
    "realize_table",
]

# Counts of a pair with one arc, and that arc in local labels.
_FORCED = {((1, 0), (0, 1)): ((0, 1),), ((0, 1), (1, 0)): ((1, 0),)}


def _draw(heap: list[tuple[int, int]], need: int) -> list[tuple[int, int]]:
    """Draw `need` vertices off `heap`, whose entries are (-residual, vertex), least key first.

    Each gives one stub and goes back while it has residual left, so a vertex has one entry, with its
    current key.  Returns the drawn entries in order; too few leave the greedy stuck (InternalInfeasible).
    """
    if need > len(heap):
        raise InternalInfeasible(f"cannot place {need} stubs at a vertex with only {len(heap)} candidates")
    drawn = [heapq.heappop(heap) for _ in range(need)]
    for key, t in drawn:
        if key < -1:
            heapq.heappush(heap, (key + 1, t))
    return drawn


def havel_hakimi(degrees: Iterable[int]) -> list[tuple[int, int]]:
    """Edges (u < v) of a simple graph with exactly the given degree sequence, in the order placed.

    Greedy: repeatedly pick the vertex with the largest residual degree
    (lowest index on ties) and connect all its remaining stubs to the
    vertices with the next-largest residuals (again lowest index on ties).
    A negative degree raises ValueError; a sequence that is not graphical
    leaves the greedy stuck, which raises InternalInfeasible.  A heap keyed
    by (-residual, index) holds the vertices with a positive residual, so s
    such vertices and m edges cost O((s + m) log s).
    """
    degrees = [int(d) for d in degrees]
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be non-negative")
    heap = [(-d, i) for i, d in enumerate(degrees) if d > 0]
    heapq.heapify(heap)
    edges: list[tuple[int, int]] = []
    while heap:
        key, v = heapq.heappop(heap)
        edges.extend((v, t) if v < t else (t, v) for _, t in _draw(heap, -key))
    return edges


def kleitman_wang(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Arcs (source, head) of a bipartite digraph with exactly the given (out, in) degree pairs, in the order placed.

    Kleitman–Wang's greedy, for pairs with no vertex on both sides (else
    InternalInvariantError), as in every inverse pair of a table built from
    trees: each source, largest out-degree first, sends its arcs to the heads
    of largest residual in-degree, ties going to the lowest index.  Sources
    never receive arcs and heads never send any, so one static order and one
    heap serve, at O((s + m) log s) for s vertices and m arcs.  A negative
    degree raises ValueError; counts that are not realizable leave the greedy
    stuck, which raises InternalInfeasible.
    """
    pairs = list(pairs)  # read once, so an iterator serves as a list does
    outs = [int(a) for a, _ in pairs]
    ins = [int(b) for _, b in pairs]
    if any(d < 0 for d in outs + ins):
        raise ValueError("degree pairs must be non-negative")
    if any(a and b for a, b in zip(outs, ins)):
        raise InternalInvariantError("a vertex is on both sides")
    heads = [(-b, i) for i, b in enumerate(ins) if b > 0]
    heapq.heapify(heads)
    arcs: list[tuple[int, int]] = []
    for v in sorted((i for i, a in enumerate(outs) if a > 0), key=lambda i: (-outs[i], i)):
        for _, t in _draw(heads, outs[v]):
            arcs.append((v, t))
    if heads:
        raise InternalInfeasible("in-stubs left over after all out-stubs were placed")
    return arcs


def _name(etype: EdgeType) -> str:
    return f"({etype.near},{etype.far})"


def glue(table: TypedDegreeTable, parts: Iterable[Iterable[tuple[int, int]]]) -> SimpleGraph:
    """Union the parts realized along `table`'s plan into one simple graph on `table.n` vertices.

    `parts` yields one part per `table.plan` entry, in plan order: the
    edges of a diagonal type, or the arcs (source, head) of an inverse
    pair, in the entry's local labels (part vertex j is its j-th vertex);
    arc directions are forgotten once the part is checked.  A wrong number
    of parts raises ValueError.  Parts realized from a checked table never
    trip the other checks, so each indicates a bug: a vertex pair given
    twice (by two parts, or twice within one) raises SimplicityViolation;
    plan vertices that do not ascend within 0..n-1, an edge that is a loop
    or leaves its entry's vertices, or a part whose (bi)degrees differ
    from its entry's counts (a pair's (out, in) being its A member's count
    and its inverse's) raise InternalInvariantError.  Each part costs time
    linear in its entry and its edges, and the graph is built once from
    the union without a second validation.
    """
    n = table.n
    owner: dict[tuple[int, int], EdgeType] = {}
    for (etype, (vertices, counts)), ends in zip(table.plan.items(), parts, strict=True):
        directed = etype.near != etype.far
        k = len(vertices)
        if k and not (0 <= vertices[0] and vertices[-1] < n and sorted(set(vertices)) == list(vertices)):
            raise InternalInvariantError(f"plan vertices of type {_name(etype)} must ascend within 0..{n - 1}")
        placed: list[tuple[int, int]] = []
        tails = [0] * k
        heads = [0] * k if directed else tails
        for u, v in ends:
            if u == v or not (0 <= u < k and 0 <= v < k):
                raise InternalInvariantError(
                    f"part of type {_name(etype)} has an edge ({u}, {v}) that is a loop or leaves its {k} vertices"
                )
            tails[u] += 1
            heads[v] += 1
            a, b = vertices[u], vertices[v]
            placed.append((a, b) if a < b else (b, a))  # ascending plan vertices keep a != b
        if (tuple(zip(tails, heads)) if directed else tuple(tails)) != counts:
            raise InternalInvariantError(f"part of type {_name(etype)} does not have the table's degrees")
        for pair in placed:
            clash = owner.get(pair)
            if clash is not None:
                raise SimplicityViolation(
                    f"pair {pair} given by type {_name(clash)} and again by {_name(etype)}"
                )
            owner[pair] = etype
    return SimpleGraph._from_checked(n, owner)


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
    def realized() -> Iterator[Iterable[tuple[int, int]]]:
        for etype, (_, counts) in table.plan.items():
            if etype.near == etype.far:
                yield havel_hakimi(counts)
            else:
                yield _FORCED.get(counts) or kleitman_wang(counts)

    return glue(table, realized())
