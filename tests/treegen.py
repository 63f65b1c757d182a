"""Shared random generators for the test suite."""

from __future__ import annotations

import random

from unicover import RootedTree, SimpleGraph


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


def hub_pairs(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """One hub whose out-degree is about the number of vertices that can take an arc."""
    h = rng.randrange(20, 200)
    per_head = rng.randrange(1, 40)
    inn = [per_head] * h + [0] * (n - h)
    hub = rng.randrange(h - 1, h + 2)
    spread = h * per_head - hub
    out = [hub] + [1] * spread + [0] * (n - 1 - spread)
    hub_at = rng.choice((0, h))  # the hub is one of the heads, or just past them
    out[0], out[hub_at] = out[hub_at], out[0]
    pairs = list(zip(out, inn))
    rng.shuffle(pairs)
    return pairs


def gnm(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Uniform simple graph with n vertices and m edges, as a sorted edge list; O(m) expected."""
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
