"""Differential test: the bipartite pair test and realizer against the loopless-digraph references.

An inverse pair of a table built from trees has no vertex on both sides,
so Gale–Ryser's smallest violated k must be Fulkerson–Chen–Anstee's, and
the one-heap greedy's arcs must be Kleitman–Wang's general ones.  The
inputs are the pair entries of tables built from harvests, mutated
harvests and child-swapped depth-2 balls, and random bipartite vectors.
"""

from __future__ import annotations

import random
from typing import Iterator

from reference import first_directed_violation, kleitman_wang_dense
from treegen import near_bipartite_pairs, random_graph, swapped_balls
from unicover import build_table, kleitman_wang, mutate_collection, neighborhood_collection
from unicover.sequences import _first_bipartite_violation


def _table_pairs(rng: random.Random, draws: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The counts of every inverse-pair entry of `draws` seeded tables."""
    for _ in range(draws):
        kind = rng.randrange(3)
        if kind == 2:
            trees, h = swapped_balls(rng, rng.randrange(6, 13)), 2
            if trees is None:
                continue
        else:
            n, h = rng.randrange(2, 13), rng.randrange(1, 4)
            trees = neighborhood_collection(random_graph(rng, n, rng.random()), h)
            for _ in range(kind * rng.randrange(1, 4)):
                trees = mutate_collection(trees, rng)
        for etype, (_, counts) in build_table(trees, h).plan.items():
            if etype.near != etype.far:
                yield counts


def test_bipartite_pairs_match_the_digraph_references():
    rng = random.Random(7)
    vectors = list(_table_pairs(rng, 400))
    from_tables = len(vectors)
    vectors += [tuple(near_bipartite_pairs(rng, rng.randrange(1, 40))) for _ in range(2000)]
    violations = realized = 0
    for counts in vectors:
        assert all(0 in pair for pair in counts), counts
        k = _first_bipartite_violation(counts)
        assert k == first_directed_violation(sorted(counts, reverse=True)), counts
        if k is not None:
            violations += 1
        elif sum(a for a, _ in counts) == sum(b for _, b in counts):
            assert kleitman_wang(counts) == kleitman_wang_dense(counts), counts
            realized += 1
    # Floors well under today's counts, so a generator change cannot leave either side untested.
    assert from_tables > 1000 and violations > 500 and realized > 1000, (from_tables, violations, realized)
