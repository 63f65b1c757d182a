from __future__ import annotations

import random

import pytest

from unicover import (
    RootedTree,
    SimpleGraph,
    canonical_code,
    cover_ball,
    first_mismatch,
    neighborhood_collection,
    parse_tree,
    truncate,
    verify_realization,
)
from treegen import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_graph,
    regular_tree_ball_code,
)


def test_triangle_ball_is_two_regular_tree_ball():
    g = cycle_graph(3)
    for v in range(3):
        assert canonical_code(cover_ball(g, v, 2)) == regular_tree_ball_code(2, 2)
    assert regular_tree_ball_code(2, 2) == "((())(()))"


def test_single_edge_ball_stops_at_the_leaf():
    g = SimpleGraph(2, [(0, 1)])
    assert canonical_code(cover_ball(g, 0, 5)) == "(())"


def test_petersen_ball_is_three_regular_tree_ball():
    g = petersen_graph()
    assert g.degree_sequence() == (3,) * 10
    for v in range(10):
        assert canonical_code(cover_ball(g, v, 2)) == regular_tree_ball_code(3, 2)
    assert regular_tree_ball_code(3, 2) == "((()())(()())(()()))"


def test_radius_zero_ball_is_a_point():
    g = cycle_graph(5)
    assert cover_ball(g, 0, 0) == RootedTree()


def test_collection_of_empty_graph():
    balls = neighborhood_collection(SimpleGraph(3), 4)
    assert [canonical_code(t) for t in balls] == ["()"] * 3


def test_collection_of_four_cycle():
    balls = neighborhood_collection(cycle_graph(4), 2)
    assert [canonical_code(t) for t in balls] == ["((())(()))"] * 4


def test_collection_of_path_at_depth_one():
    balls = neighborhood_collection(path_graph(3), 1)
    assert [canonical_code(t) for t in balls] == ["(())", "(()())", "(())"]


def test_cycles_give_two_regular_balls_at_all_depths():
    for k in range(3, 9):
        g = cycle_graph(k)
        for radius in range(5):
            want = regular_tree_ball_code(2, radius)
            assert canonical_code(cover_ball(g, 0, radius)) == want


def test_complete_graph_balls_are_regular():
    g = complete_graph(5)
    for radius in range(4):
        assert canonical_code(cover_ball(g, 2, radius)) == regular_tree_ball_code(4, radius)


def test_ball_truncation_consistency():
    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(2, 10), 0.35)
        v = rng.randrange(g.n)
        big = cover_ball(g, v, 4)
        for k in range(5):
            assert canonical_code(truncate(big, k)) == canonical_code(cover_ball(g, v, k))


def test_tree_graph_is_its_own_cover():
    # build a random tree graph, then read off the ball by plain BFS: with no
    # cycles the non-backtracking walks are exactly the simple paths
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randrange(1, 12)
        parents = [rng.randrange(i) for i in range(1, n)]
        g = SimpleGraph(n, [(p, i + 1) for i, p in enumerate(parents)])
        root = rng.randrange(n)
        radius = rng.randrange(5)

        def bfs_subtree(v: int, prev: int, k: int) -> RootedTree:
            if k == 0:
                return RootedTree()
            kids = tuple(bfs_subtree(w, v, k - 1) for w in g.adj[v] if w != prev)
            return RootedTree(kids)

        want = canonical_code(bfs_subtree(root, -1, radius))
        assert canonical_code(cover_ball(g, root, radius)) == want


def test_root_degree_matches_base_vertex():
    rng = random.Random(41)
    g = random_graph(rng, 8, 0.4)
    for v, ball in enumerate(neighborhood_collection(g, 2)):
        assert len(ball.children) == g.degree(v)


def test_verify_realization_per_index():
    g = SimpleGraph(2, [(0, 1)])
    assert verify_realization(g, [parse_tree("(())")] * 2, 1)
    assert not verify_realization(g, [parse_tree("(())"), parse_tree("(()())")], 1)
    assert first_mismatch(g, [parse_tree("(())"), parse_tree("(()())")], 1) == 1


def test_verify_is_order_sensitive():
    balls = neighborhood_collection(path_graph(3), 2)
    assert verify_realization(path_graph(3), balls, 2)
    swapped = [balls[1], balls[0], balls[2]]
    assert not verify_realization(path_graph(3), swapped, 2)


def test_unfold_errors():
    g = cycle_graph(3)
    with pytest.raises(IndexError):
        cover_ball(g, 3, 1)
    with pytest.raises(ValueError):
        cover_ball(g, 0, -1)
    with pytest.raises(ValueError):
        first_mismatch(g, [RootedTree()], 1)
