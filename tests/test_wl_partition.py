"""Differential test against colour refinement, computed by networkx.

Depth-h universal-cover balls and h rounds of colour refinement split a
graph's vertices into the same classes (Angluin 1980; Krebs and Verbitsky
2015), so the partition by `neighborhood_collection` must equal the one by
networkx's Weisfeiler-Lehman subgraph hashes after h iterations.
"""

from __future__ import annotations

import random
import warnings

import pytest

from unicover import canonical_code, neighborhood_collection
from treegen import random_graph

nx = pytest.importorskip("networkx")


def _classes(labels) -> list[int]:
    """Class index of each position, classes numbered by first occurrence."""
    ids: dict = {}
    return [ids.setdefault(label, len(ids)) for label in labels]


def _wl_partition(graph, depth: int) -> list[int]:
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges)
    with warnings.catch_warnings():
        # Attribute-free hashes warn about a change between networkx
        # versions; only hashes from one run are compared here.
        warnings.simplefilter("ignore", UserWarning)
        hashes = nx.weisfeiler_lehman_subgraph_hashes(g, iterations=depth)
    return _classes(hashes[v][-1] for v in range(graph.n))


@pytest.mark.parametrize("seed", range(36))
def test_ball_partition_equals_colour_refinement(seed):
    rng = random.Random(seed)
    n = rng.choice((5, 12, 40, 120, 300))
    average_degree = rng.choice((1.5, 2.5, 3.5, 5.0))
    graph = random_graph(rng, n, min(1.0, average_degree / max(n - 1, 1)))
    depth = rng.randint(1, 5 if n <= 120 else 3)
    balls = neighborhood_collection(graph, depth)
    by_code = _classes(canonical_code(b) for b in balls)
    assert by_code == _wl_partition(graph, depth)
    # One collection shares its subtrees, so isomorphic balls are one object.
    assert _classes(id(b) for b in balls) == by_code
