"""Cover balls: depth-limited trees of non-backtracking walks.

The universal cover of a graph is the (usually infinite) tree whose vertices
are the non-backtracking walks out of a base vertex; it is never built
explicitly.  A ball of radius r around a vertex is built from the walks
that never reverse the edge just used, which on a simple graph is the same
as never returning to the previous vertex.  Balls are interned into a
:class:`~unicover.trees.Forest` level by level, bottom-up, so nothing
recurses and no code string is parsed back.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import SimpleGraph
from .trees import Forest, RootedTree

__all__ = [
    "cover_ball",
    "neighborhood_collection",
    "verify_realization",
    "first_mismatch",
]


def _ball_ids(forest: Forest, graph: SimpleGraph, radius: int) -> list[int]:
    """Forest id of every vertex's radius-`radius` ball, in vertex order.

    The walks below a step v -> w depend only on (w, v, levels left), so the
    balls are built bottom-up over directed edges, one level at a time, in
    O(radius * sum of squared degrees) node lookups whatever the ball sizes.
    """
    adj = graph.adj
    if radius == 0:
        return [forest.leaf] * graph.n
    # Number the directed edges v -> w; succ[e] lists the steps that may
    # follow e without reversing it, out[v] the steps leaving v.
    arcs = [(v, w) for v in range(graph.n) for w in adj[v]]
    index = {arc: e for e, arc in enumerate(arcs)}
    succ = [[index[(w, x)] for x in adj[w] if x != v] for v, w in arcs]
    out = [[index[(v, w)] for w in adj[v]] for v in range(graph.n)]
    # below[e]: id of the walks after step e, one more level each pass.
    below = [forest.leaf] * len(succ)
    for _ in range(radius - 1):
        below = [forest.node([below[f] for f in nxt]) for nxt in succ]
    return [forest.node([below[e] for e in steps]) for steps in out]


def cover_ball(graph: SimpleGraph, vertex: int, radius: int) -> RootedTree:
    """Ball of the given radius around `vertex` in the universal cover.

    Its nodes are the non-backtracking walks of length <= radius out of
    `vertex` (walks may revisit vertices but never immediately reverse an
    edge).  The result is in canonical child order.
    """
    if not 0 <= vertex < graph.n:
        raise IndexError(f"vertex {vertex} out of range for n={graph.n}")
    return neighborhood_collection(graph, radius)[vertex]


def neighborhood_collection(graph: SimpleGraph, radius: int) -> list[RootedTree]:
    """Cover ball of every vertex, in vertex order, each canonical.

    All balls live in one :class:`Forest`, so isomorphic subtrees are one
    shared object.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    forest = Forest()
    return [forest.tree(t) for t in _ball_ids(forest, graph, radius)]


def first_mismatch(graph: SimpleGraph, trees: Sequence[RootedTree], radius: int) -> int | None:
    """Lowest vertex whose cover ball differs from its tree, or None."""
    if len(trees) != graph.n:
        raise ValueError(f"{len(trees)} trees for a graph on {graph.n} vertices")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    forest = Forest()
    balls = _ball_ids(forest, graph, radius)
    # Trees are interned lazily, so the scan stops at the first mismatch.
    pairs = enumerate(zip(balls, forest.intern(trees)))
    return next((v for v, (got, want) in pairs if got != want), None)


def verify_realization(graph: SimpleGraph, trees: Sequence[RootedTree], radius: int) -> bool:
    """True iff vertex i's cover ball is isomorphic to trees[i] for every i."""
    return first_mismatch(graph, trees, radius) is None
