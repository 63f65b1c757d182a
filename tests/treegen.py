"""Shared random generators for the test suite."""

from __future__ import annotations

import random

from unicover import RootedTree, SimpleGraph, neighborhood_collection
from unicover.trees import Forest


def random_tree(rng: random.Random, max_nodes: int = 40) -> RootedTree:
    """Random tree with 1..max_nodes nodes: attach each node to a random earlier one."""
    children: list[list[int]] = [[]]
    for _ in range(rng.randrange(max_nodes)):
        parent = rng.randrange(len(children))
        children.append([])
        children[parent].append(len(children) - 1)

    def build(i: int) -> RootedTree:
        return RootedTree(tuple(build(c) for c in children[i]))

    return build(0)


def shuffle_tree(tree: RootedTree, rng: random.Random) -> RootedTree:
    """Recursively permute every child list."""
    kids = [shuffle_tree(c, rng) for c in tree.children]
    rng.shuffle(kids)
    return RootedTree(tuple(kids))


def random_graph(rng: random.Random, n: int, p: float) -> SimpleGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return SimpleGraph(n, edges)


def cycle_graph(k: int) -> SimpleGraph:
    return SimpleGraph(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k: int) -> SimpleGraph:
    return SimpleGraph(k, [(i, i + 1) for i in range(k - 1)])


def complete_graph(k: int) -> SimpleGraph:
    return SimpleGraph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def petersen_graph() -> SimpleGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return SimpleGraph(10, outer + spokes + inner)


def regular_tree_ball_code(d: int, radius: int) -> str:
    """Canonical code of the radius ball in the infinite d-regular tree."""

    def branch(k: int) -> str:
        if k == 0:
            return "()"
        return "(" + branch(k - 1) * (d - 1) + ")"

    if radius == 0:
        return "()"
    return "(" + branch(radius - 1) * d + ")"


def star_and_head_degrees(rng: random.Random, n: int) -> list[int]:
    """n entries: a head of h equal degrees around the largest that a tail of 1s and 2s allows."""
    h = rng.randrange(2, 60)
    tail = [rng.choice((1, 1, 2)) for _ in range(n - h)]
    bound = (h * (h - 1) + sum(min(d, h) for d in tail)) // h
    head = bound + rng.randrange(-2, 3)
    degrees = [head] * h + tail
    if sum(degrees) % 2:
        degrees[-1] = 3 - degrees[-1]
    rng.shuffle(degrees)
    return degrees


def near_bipartite_pairs(rng: random.Random, s: int) -> list[tuple[int, int]]:
    """Random bipartite (out, in) counts on s vertices, most of them close to realizable."""
    sources = rng.randrange(s + 1)
    if rng.randrange(2):
        hi = rng.randrange(1, s + 1)
        out = [rng.randrange(hi + 1) for _ in range(sources)]
        inn = [rng.randrange(hi + 1) for _ in range(s - sources)]
    else:
        out, inn = [0] * sources, [0] * (s - sources)
        p = rng.random()
        for u in range(sources):
            for v in range(s - sources):
                if rng.random() < p:
                    out[u] += 1
                    inn[v] += 1
        for _ in range(rng.randrange(4) if sources else 0):
            i, j = rng.randrange(sources), rng.randrange(sources)
            if out[j]:
                out[i] += 1
                out[j] -= 1
    pairs = [(a, 0) for a in out] + [(0, b) for b in inn]
    rng.shuffle(pairs)
    return pairs


def hub_pairs(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Bipartite (out, in) pairs: one hub whose out-degree is about the number of heads, h.

    The h heads take `per_head` arcs each, and sources of out-degree 1
    make up the rest, so the hub is realizable exactly when it needs at
    most h heads.
    """
    h = rng.randrange(20, 200)
    per_head = rng.randrange(1, min(40, (n - h) // h))
    hub = rng.randrange(h - 1, h + 2)
    spread = h * per_head - hub
    pairs = [(0, per_head)] * h + [(hub, 0)] + [(1, 0)] * spread + [(0, 0)] * (n - h - 1 - spread)
    rng.shuffle(pairs)
    return pairs


def gnm(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Uniform simple graph with n vertices and m edges, as a sorted edge list; O(m) expected.

    ValueError if m exceeds the n(n - 1)/2 pairs there are.
    """
    if m > n * (n - 1) // 2:
        raise ValueError(f"{m} edges do not fit on {n} vertices")
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def configuration(rng: random.Random, degrees: list[int]) -> list[tuple[int, int]]:
    """Uniform simple graph with the given degrees, by rejection of whole stub pairings."""
    stubs = [v for v, d in enumerate(degrees) for _ in range(d)]
    if len(stubs) % 2:
        raise ValueError("degree sum must be even")
    while True:
        rng.shuffle(stubs)
        edges = set()
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            key = (min(u, v), max(u, v))
            if u == v or key in edges:
                break
            edges.add(key)
        else:
            return sorted(edges)


def cubic_minus(rng: random.Random, n: int, deleted: int) -> list[tuple[int, int]]:
    """Random 3-regular graph on n vertices with `deleted` edges removed."""
    edges = configuration(rng, [3] * n)
    for i in sorted(rng.sample(range(len(edges)), deleted), reverse=True):
        del edges[i]
    return edges


def swapped_balls(
    rng: random.Random, n: int, depth: int = 2, edges: list[tuple[int, int]] | None = None
) -> list[RootedTree] | None:
    """The depth-`depth` balls of a graph on n vertices, two roots having swapped one child each.

    The graph has the given `edges`, or else is G(n, m) with m drawn from
    n..2n and capped at n(n - 1)/2.  The two roots agree to
    depth - 1 (at depth 2: they have equal degrees), and the children swapped
    differ but agree to depth - 2.  So every other edge at either root keeps
    its near side, which holds the swapped child only cut to depth - 2, and
    the swapped edges trade their types: the multiset of edge types is
    unchanged.  Every inverse pair stays balanced and every diagonal sum stays
    even, so a collection that fails the check fails only a subsum inequality.
    None when no two roots have such children.  `depth` is at least 2.
    """
    if edges is None:
        edges = gnm(rng, n, min(rng.randrange(n, 2 * n + 1), n * (n - 1) // 2))
    balls = neighborhood_collection(SimpleGraph(n, edges), depth)
    forest = Forest()
    kids = [list(forest.intern(ball.children)) for ball in balls]
    cuts = [[forest.truncate(c, depth - 2) for c in row] for row in kids]
    stems = [forest.truncate(forest.node(row), depth - 1) for row in kids]

    def swaps(i: int, j: int) -> list[tuple[int, int]]:
        return [
            (x, y)
            for x, (kid, cut) in enumerate(zip(kids[i], cuts[i]))
            for y, (other, other_cut) in enumerate(zip(kids[j], cuts[j]))
            if kid != other and cut == other_cut
        ]

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if stems[i] == stems[j] and swaps(i, j)]
    if not pairs:
        return None
    i, j = rng.choice(pairs)
    options = swaps(i, j)
    x = rng.choice(sorted({x for x, _ in options}))
    y = rng.choice([y for chosen, y in options if chosen == x])
    a, b = list(balls[i].children), list(balls[j].children)
    a[x], b[y] = b[y], a[x]
    balls[i], balls[j] = RootedTree(tuple(a)), RootedTree(tuple(b))
    return balls
