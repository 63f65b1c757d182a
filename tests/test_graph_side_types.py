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

A switch trades the edges a-b and c-d for a-d and c-b.  Where the steps
a -> b and c -> d have one type, every step keeps its D_{h-1} (by induction
on k), so every ball stays the same; networkx's `double_edge_swap` and
`directed_edge_swap` make the same move without the type condition.
"""

from __future__ import annotations

import random

import pytest

from unicover import EdgeType, SimpleGraph, check_neighborhood
from unicover.edge_types import table_from_ids
from unicover.realize import realize_table
from unicover.trees import Forest
from unicover.unfold import ball_ids, first_difference
from treegen import cubic_minus, gnm, random_graph


def arc_walks(forest: Forest, graph: SimpleGraph, h: int) -> dict[tuple[int, int], int]:
    """D_{h-1} of every step (v, w) of `graph`, as its id in `forest`, one level pass per k."""
    adj = graph.adj
    arcs = [(v, w) for v, ws in enumerate(adj) for w in ws]
    arc = {step: i for i, step in enumerate(arcs)}
    follow = [[arc[w, x] for x in adj[w] if x != v] for v, w in arcs]
    after = [forest.leaf] * len(arcs)  # D_k of each arc, k = 0 here
    for _ in range(h - 1):
        after = [forest.node([after[j] for j in steps]) for steps in follow]
    return dict(zip(arcs, after))


def graph_side_counts(forest: Forest, graph: SimpleGraph, h: int) -> dict[EdgeType, dict[int, int]]:
    """Each type's count at each vertex where it occurs, from D_{h-1} of every arc."""
    walks = arc_walks(forest, graph, h)
    codes = forest.codes
    found: dict[EdgeType, dict[int, int]] = {}
    for (v, w), far in walks.items():
        at = found.setdefault(EdgeType(codes[walks[w, v]], codes[far]), {})
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


def table_arc_types(forest: Forest, graph: SimpleGraph, h: int, table) -> dict[tuple[int, int], EdgeType]:
    """Each step v -> w with its type in `table`: the type at v whose far side is the step's D_{h-1}.

    The far side is read off the graph and the near side off the table, so a
    wrong near side in `table_from_ids` picks wrong switches.
    """
    at = {(v, etype.far): etype for etype, support in table.supports.items() for v, _ in support}
    codes = forest.codes
    return {(v, w): at[v, codes[far]] for (v, w), far in arc_walks(forest, graph, h).items()}


def switched(graph: SimpleGraph, a: int, b: int, c: int, d: int) -> SimpleGraph | None:
    """`graph` with the edges a-b and c-d traded for a-d and c-b; None where that makes a loop or a repeated edge."""
    if a == d or c == b or d in graph.adj[a] or b in graph.adj[c]:
        return None
    gone = {(min(a, b), max(a, b)), (min(c, d), max(c, d))}
    return SimpleGraph(graph.n, [e for e in graph.edges if e not in gone] + [(a, d), (c, b)])


def by_type(types: dict[tuple[int, int], EdgeType]) -> dict[EdgeType, list[tuple[int, int]]]:
    """The steps of each type."""
    steps: dict[EdgeType, list[tuple[int, int]]] = {}
    for step, etype in types.items():
        steps.setdefault(etype, []).append(step)
    return steps


# Graphs where many steps share a type.  At h = 1 every step has one diagonal type, and a switch
# keeps the degrees; at h >= 2 these graphs have diagonal types and inverse pairs alike.
SWITCHED = {
    "gnm-100-h1": (lambda: _gnm_graph(14, 100, 200), 1),
    "gnm-60-h2": (lambda: _gnm_graph(11, 60, 120), 2),
    "cubic-60-h3": (lambda: SimpleGraph(60, cubic_minus(random.Random(13), 60, 6)), 3),
    "cubic-100-h4": (lambda: SimpleGraph(100, cubic_minus(random.Random(15), 100, 4)), 4),
}


@pytest.mark.parametrize("name", SWITCHED)
def test_type_preserving_switches_keep_every_ball(name):
    make, h = SWITCHED[name]
    graph = make()
    forest = Forest()
    roots = ball_ids(forest, graph, h)
    table = table_from_ids(forest, roots, h)
    rng = random.Random(name)
    accepted, diagonal = 0, set()
    for _ in range(400):
        types = table_arc_types(forest, graph, h, table)
        (a, b), steps = rng.choice(sorted(types)), by_type(types)
        c, d = rng.choice(steps[types[a, b]])
        other = switched(graph, a, b, c, d)
        if other is None:
            continue
        graph, accepted = other, accepted + 1
        diagonal.add(types[a, b].near == types[a, b].far)
        assert first_difference(ball_ids(forest, graph, h), roots) is None
    assert accepted >= 150 and diagonal == ({True} if h == 1 else {True, False})


@pytest.mark.parametrize("name", [name for name, (_, h) in SWITCHED.items() if h > 1])
def test_the_graph_side_types_equal_the_table_s_exactly_when_no_ball_changed(name):
    # Each switch is made on the harvested graph, half of them between steps of one type.  (At
    # h = 1 no switch changes a ball.)
    make, h = SWITCHED[name]
    graph = make()
    forest = Forest()
    roots = ball_ids(forest, graph, h)
    table = table_from_ids(forest, roots, h)
    want = table_counts(table)
    assert graph_side_counts(forest, graph, h) == want
    types = table_arc_types(forest, graph, h, table)
    steps, arcs = by_type(types), sorted(types)
    rng = random.Random(name)
    same = changed = 0
    for _ in range(300):
        a, b = rng.choice(arcs)
        c, d = rng.choice(steps[types[a, b]] if rng.random() < 0.5 else arcs)
        other = switched(graph, a, b, c, d)
        if other is None:
            continue
        kept = first_difference(ball_ids(forest, other, h), roots) is None
        assert (graph_side_counts(forest, other, h) == want) == kept
        same, changed = same + kept, changed + (not kept)
    assert same >= 20 and changed >= 20
