"""Edge types read off the graph, against the table built from its balls.

For a step v -> w, let D_k(v -> w) be the tree of walks that follow the
step and then take up to k more steps, never straight back.  D_0 is a leaf,
and D_k(v -> w) is the node over D_{k-1}(w -> x) for the neighbours x != v
of w.  At depth h the edge {v, w} has, at v, the type (near, far) =
(D_{h-1}(w -> v), D_{h-1}(v -> w)): the far side is the branch of v's ball
through w, and the near side is v's ball of radius h - 1 without that branch.
These types come from the graph alone, with no tree truncated, so they check
`table_from_ids` and the graph that `realize_table` builds without sharing
their code.
"""

from __future__ import annotations

import random

import pytest

from unicover import EdgeType, SimpleGraph, check_neighborhood
from unicover.edge_types import table_from_ids
from unicover.realize import realize_table
from unicover.trees import Forest
from unicover.unfold import ball_ids
from treegen import cubic_minus, gnm, random_graph


def graph_side_counts(forest: Forest, graph: SimpleGraph, h: int) -> dict[EdgeType, dict[int, int]]:
    """Each type's count at each vertex where it occurs, from D_{h-1} of every arc, one level pass per k."""
    adj = graph.adj
    arcs = [(v, w) for v, ws in enumerate(adj) for w in ws]
    arc = {step: i for i, step in enumerate(arcs)}
    follow = [[arc[w, x] for x in adj[w] if x != v] for v, w in arcs]
    after = [forest.leaf] * len(arcs)  # D_k of each arc, k = 0 here
    for _ in range(h - 1):
        after = [forest.node([after[j] for j in steps]) for steps in follow]
    codes = forest.codes
    found: dict[EdgeType, dict[int, int]] = {}
    for i, (v, w) in enumerate(arcs):
        at = found.setdefault(EdgeType(codes[after[arc[w, v]]], codes[after[i]]), {})
        at[v] = at.get(v, 0) + 1
    return found


def table_counts(table) -> dict[EdgeType, dict[int, int]]:
    return {etype: dict(support) for etype, support in table.supports.items()}


def _gnm_graph(seed: int, n: int, m: int) -> SimpleGraph:
    return SimpleGraph(n, gnm(random.Random(seed), n, m))


def _hub_graph(seed: int, n: int, d: int) -> SimpleGraph:
    """G(n, n) with vertex 0 also joined to `d` sampled vertices."""
    rng = random.Random(seed)
    edges = set(gnm(rng, n, n)) | {(0, w) for w in rng.sample(range(1, n), d)}
    return SimpleGraph(n, edges)


HARVESTS = {
    "gnm-300-h1": (lambda: _gnm_graph(1, 300, 600), 1),
    "gnm-300-h2": (lambda: _gnm_graph(2, 300, 600), 2),
    "gnm-1000-h3": (lambda: _gnm_graph(3, 1000, 2000), 3),
    "gnm-3000-h3": (lambda: _gnm_graph(4, 3000, 6000), 3),
    "gnm-10000-h1": (lambda: _gnm_graph(5, 10_000, 20_000), 1),
    "gnm-10000-h2": (lambda: _gnm_graph(5, 10_000, 20_000), 2),
    "gnm-10000-h3": (lambda: _gnm_graph(5, 10_000, 20_000), 3),
    "hub-1000-h2": (lambda: _hub_graph(6, 2000, 1000), 2),
    "cubic-240-h3": (lambda: SimpleGraph(240, cubic_minus(random.Random(7), 240, 16)), 3),
}


@pytest.mark.parametrize("name", HARVESTS)
def test_table_from_ids_on_a_harvest_equals_the_graph_side_types(name):
    make, h = HARVESTS[name]
    graph = make()
    forest = Forest()
    table = table_from_ids(forest, ball_ids(forest, graph, h), h)
    assert table_counts(table) == graph_side_counts(forest, graph, h)


def test_the_realized_graph_has_the_table_s_graph_side_types():
    rng = random.Random(41)
    cases = [(random_graph(rng, rng.randrange(2, 30), rng.choice([0.1, 0.2, 0.4])), rng.randint(1, 3)) for _ in range(60)]
    cases += [(_gnm_graph(seed, 2000, 4000), h) for seed, h in ((8, 1), (9, 2), (10, 3))]
    for graph, h in cases:
        forest = Forest()
        table = table_from_ids(forest, ball_ids(forest, graph, h), h)
        assert check_neighborhood(table).graphical
        realized = realize_table(table)
        assert realized.n == graph.n
        assert graph_side_counts(forest, realized, h) == table_counts(table)
