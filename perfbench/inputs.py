"""Seeded input families for the benchmark.

Every generator takes a ``random.Random`` and returns a sorted edge list on
vertices 0..n-1.  The program under test only ever sees the files written
from that list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Family:
    """Make-up of one workload's input."""

    name: str
    depth: int
    kind: str  # "gnm", "cubic-minus", or "degrees-234"
    n: int
    param: int  # edges for gnm; deleted edges for cubic-minus; unused otherwise
    reject: bool  # replace one tree by "(())" so the collection is not graphical


def gnm(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Uniform simple graph with n vertices and m edges."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def configuration(rng: random.Random, degrees: list[int]) -> list[tuple[int, int]]:
    """Uniform simple graph with the given degrees, by rejection.

    Stub pairings with a loop or a repeated edge are thrown away whole, so
    the accepted graph is uniform among simple graphs with these degrees.
    """
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


def degrees_234(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random simple graph in which a third of the vertices each have degree
    2, 3 and 4, in random places.

    Fixed shares keep the type supports, and so the work, alike from seed to
    seed.  Minimum degree 2 means no K2 component, so no ball is "(())".
    """
    degrees = [2 + i % 3 for i in range(n)]
    if sum(degrees) % 2:
        degrees[1] = 2
    rng.shuffle(degrees)
    return configuration(rng, degrees)


def plant_site(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> int:
    """Vertex whose tree is replaced by "(())" on a rejected collection.

    It has the least degree d and, where such vertices exist, only neighbours
    of degree d.  At depth 2 an edge's type is fixed by the degrees of its
    ends, so the replacement then takes edges from the one diagonal type
    (d, d) and leaves every other type's counts, and the checker's work, the
    same whatever the seed.
    """
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    low = min(degrees)
    lows = [v for v in range(n) if degrees[v] == low]
    alike = set(lows)
    for u, v in edges:
        if degrees[u] != degrees[v]:
            alike.discard(u)
            alike.discard(v)
    return rng.choice(sorted(alike) or lows)


def make_graph(family: Family, rng: random.Random) -> list[tuple[int, int]]:
    if family.kind == "gnm":
        return gnm(rng, family.n, family.param)
    if family.kind == "cubic-minus":
        return cubic_minus(rng, family.n, family.param)
    if family.kind == "degrees-234":
        return degrees_234(rng, family.n)
    raise ValueError(f"unknown family kind {family.kind!r}")


def graph_text(n: int, edges: list[tuple[int, int]]) -> str:
    return f"n={n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
