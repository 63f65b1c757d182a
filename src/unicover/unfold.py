"""Cover balls: depth-limited trees of non-backtracking walks.

The universal cover of a graph is the (usually infinite) tree whose vertices
are the non-backtracking walks out of a base vertex; it is never built
explicitly.  A ball of radius r around a vertex is built from the walks
that never return to the previous vertex.  A step is a position in the
graph's own ascending `adj`, so the step back is found by bisection and no
arc table is built.  Balls are interned into a :class:`~unicover.trees.Forest`
level by level, bottom-up, so nothing recurses and no code string is parsed
back.  Once a level leaves every step's subtree as it was (only when every
walk ends, as on a forest), the remaining levels are skipped.  :func:`ball_ids`
works in the caller's Forest, so balls compare with trees parsed into it by
id, and :func:`first_difference` compares those ids.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Sequence

from .graphs import SimpleGraph
from .trees import Forest, RootedTree

__all__ = [
    "ball_ids",
    "cover_ball",
    "neighborhood_collection",
    "verify_realization",
    "first_mismatch",
    "first_difference",
]


def ball_ids(forest: Forest, graph: SimpleGraph, radius: int) -> list[int]:
    """Id in `forest` of every vertex's radius-`radius` ball, in vertex order.

    The walks below a step v -> w depend only on (w, v, levels left), so the
    balls are built bottom-up over directed edges, one level at a time, in
    O(radius * sum of squared degrees) node lookups whatever the ball sizes.
    A level that changes no edge's id is a fixed point, so the levels after
    it are skipped: on a forest the work stops at its longest walk.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    adj = graph.adj
    if radius == 0:
        return [forest.leaf] * graph.n
    # Step v -> adj[v][i] is arc start[v] + i.  The steps that may follow v -> w
    # are w's arcs a to b, less arc j back to v (adj[w] ascends).
    start = [0, *accumulate(map(len, adj))]
    spans = [(start[w], start[w] + bisect_left(adj[w], v), start[w + 1]) for v, ws in enumerate(adj) for w in ws]
    # below[e]: id of the walks after step e, one more level each pass.
    below = [forest.leaf] * start[-1]
    for _ in range(radius - 1):
        level = [forest.node(below[a:j] + below[j + 1 : b]) for a, j, b in spans]
        if level == below:
            break
        below = level
    return [forest.node(below[start[v] : start[v + 1]]) for v in range(graph.n)]


def cover_ball(graph: SimpleGraph, vertex: int, radius: int) -> RootedTree:
    """Ball of the given radius around `vertex` in the universal cover.

    Its nodes are the non-backtracking walks of length <= radius out of
    `vertex` (walks may revisit vertices but never immediately reverse an
    edge).  The result is in canonical child order.  Those walks never leave
    the vertices within distance `radius` of `vertex`, so only the subgraph
    they induce is unfolded.
    """
    if not 0 <= vertex < graph.n:
        raise IndexError(f"vertex {vertex} out of range for n={graph.n}")
    adj = graph.adj
    label = {vertex: 0}  # breadth-first order, so `vertex` is 0
    frontier = [vertex]
    for _ in range(radius):
        reached = []
        for v in frontier:
            for w in adj[v]:
                if w not in label:
                    label[w] = len(label)
                    reached.append(w)
        frontier = reached
    edges = [(label[v], label[w]) for v in label for w in adj[v] if v < w and w in label]
    ball = SimpleGraph._from_checked(len(label), edges)
    forest = Forest()
    return forest.tree(ball_ids(forest, ball, radius)[0])


def neighborhood_collection(graph: SimpleGraph, radius: int) -> list[RootedTree]:
    """Cover ball of every vertex, in vertex order, each canonical.

    All balls live in one :class:`Forest`, so isomorphic subtrees are one
    shared object.
    """
    forest = Forest()
    return [forest.tree(t) for t in ball_ids(forest, graph, radius)]


def first_mismatch(graph: SimpleGraph, trees: Sequence[RootedTree], radius: int) -> int | None:
    """Lowest vertex whose cover ball differs from its tree, or None."""
    forest = Forest()
    roots = list(forest.intern(trees))
    if len(roots) != graph.n:
        raise ValueError(f"{len(roots)} trees for a graph on {graph.n} vertices")
    return first_difference(ball_ids(forest, graph, radius), roots)


def first_difference(balls: Sequence[int], roots: Sequence[int]) -> int | None:
    """Lowest index where the ball ids and the root ids of one Forest differ, or None."""
    return next((v for v, (got, want) in enumerate(zip(balls, roots)) if got != want), None)


def verify_realization(graph: SimpleGraph, trees: Sequence[RootedTree], radius: int) -> bool:
    """True iff vertex i's cover ball is isomorphic to trees[i] for every i."""
    return first_mismatch(graph, trees, radius) is None
