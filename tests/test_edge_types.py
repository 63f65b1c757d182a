from __future__ import annotations

import random

import pytest

from unicover import (
    DepthError,
    EdgeType,
    TypeClass,
    build_table,
    canonical_code,
    erdos_gallai,
    neighborhood_collection,
    parse_tree,
)
from unicover.edge_types import inverse_pairs
from unicover.trees import depth
from treegen import cycle_graph, random_tree, shuffle_tree


def test_single_edge_type_is_trivial_diagonal():
    t = parse_tree("(())")
    for h in (1, 2, 5):
        [et] = build_table([t], h).occurring_types()
        assert (et.near, et.far) == ("()", "()")
        assert et.klass is TypeClass.DIAGONAL


def test_far_side_keeps_full_depth():
    [et] = build_table([parse_tree("((()))")], 2).occurring_types()
    assert (et.near, et.far) == ("()", "(())")


def test_near_side_is_truncated():
    # two branches of depth 2; removing one leaves the other, cut to depth 1
    table = build_table([parse_tree("((())(()))")], 2)
    [et] = table.occurring_types()
    assert (et.near, et.far) == ("(())", "(())")
    assert et.klass is TypeClass.DIAGONAL
    assert table.degrees[et] == (2,)


def test_type_agrees_with_cycle_harvest():
    # the same diagonal type arises from an actual 4-cycle's balls
    balls = neighborhood_collection(cycle_graph(4), 2)
    assert [canonical_code(t) for t in balls] == ["((())(()))"] * 4
    table = build_table(balls, 2)
    [etype] = table.occurring_types()
    assert (etype.near, etype.far) == ("(())", "(())")
    assert table.degrees[etype] == (2, 2, 2, 2)
    assert table.totals[etype] == 8


def test_edge_type_bounds_and_errors():
    t = parse_tree("((()))")
    with pytest.raises(DepthError):
        build_table([t], 1)
    with pytest.raises(ValueError):
        build_table([t], 0)


def test_type_sides_stay_one_level_shallow():
    rng = random.Random(11)
    for _ in range(100):
        t = random_tree(rng, max_nodes=20)
        h = depth(t) + rng.randrange(3)
        if h < 1:
            continue
        for et in build_table([t], h).occurring_types():
            assert depth(parse_tree(et.near)) <= h - 1
            assert depth(parse_tree(et.far)) <= h - 1


def test_inverse_is_involution_and_flips_class():
    et = EdgeType("()", "(())")
    assert et.klass is TypeClass.A
    assert et.inverse() == EdgeType("(())", "()")
    assert et.inverse().klass is TypeClass.B
    assert et.inverse().inverse() == et
    assert EdgeType("(())", "(())").inverse().klass is TypeClass.DIAGONAL


def test_build_table_single_edge_pair():
    table = build_table([parse_tree("(())"), parse_tree("(())")], 1)
    [etype] = table.occurring_types()
    assert (etype.near, etype.far) == ("()", "()")
    assert table.degrees[etype] == (1, 1)
    assert table.totals[etype] == 2
    assert table.degree_seq == (1, 1)


def test_build_table_mixed_pair():
    table = build_table([parse_tree("(())"), parse_tree("((()))")], 2)
    diag = EdgeType("()", "()")
    skew = EdgeType("()", "(())")
    assert set(table.occurring_types()) == {diag, skew}
    assert table.degrees[diag] == (1, 0)
    assert table.totals[skew] == 1
    assert table.degree_vector(skew.inverse()) == (0, 0)


def test_inverse_pairs_name_each_pair_by_its_a_member():
    skew = EdgeType("()", "(())")
    only_a = build_table([parse_tree("(())"), parse_tree("((()))")], 2)
    assert only_a.occurring_types() == [EdgeType("()", "()"), skew]
    assert inverse_pairs(only_a) == [skew]
    only_b = build_table([parse_tree("(()(()))")], 2)
    assert skew.inverse() in only_b.degrees and skew not in only_b.degrees
    assert inverse_pairs(only_b) == [skew]


def test_build_table_rejects_deep_trees_listing_indices():
    trees = [parse_tree("(())"), parse_tree("((()))"), parse_tree("(((())))")]
    with pytest.raises(DepthError) as err:
        build_table(trees, 2)
    assert err.value.indices == (2,)


def test_build_table_requires_positive_depth():
    with pytest.raises(ValueError):
        build_table([parse_tree("()")], 0)


def test_row_sums_match_degree_sequence():
    rng = random.Random(23)
    for _ in range(30):
        trees = [random_tree(rng, max_nodes=12) for _ in range(rng.randrange(1, 6))]
        h = max(1, max(depth(t) for t in trees))
        table = build_table(trees, h)
        for i in range(table.n):
            row = sum(table.degrees[et][i] for et in table.occurring_types())
            assert row == table.degree_seq[i] == len(trees[i].children)


def test_types_invariant_under_isomorphic_reencoding():
    rng = random.Random(31)
    for _ in range(50):
        t = random_tree(rng, max_nodes=15)
        h = max(1, depth(t))
        s = shuffle_tree(t, rng)
        assert build_table([s], h).degrees == build_table([t], h).degrees


def test_depth_one_collapses_to_plain_degrees():
    # at depth 1 every edge has the same diagonal type, so the check reduces
    # to plain graphicality of the degree sequence
    rng = random.Random(5)
    for _ in range(20):
        degs = [rng.randrange(5) for _ in range(rng.randrange(1, 7))]
        trees = [parse_tree("(" + "()" * d + ")") for d in degs]
        table = build_table(trees, 1)
        types = table.occurring_types()
        assert all((et.near, et.far) == ("()", "()") for et in types)
        if any(degs):
            [etype] = types
            assert table.degrees[etype] == tuple(degs)
            assert erdos_gallai(table.degrees[etype]) == erdos_gallai(degs)


def test_table_json_shape():
    table = build_table([parse_tree("(())"), parse_tree("((()))")], 2)
    doc = table.to_json_dict()
    assert doc["h"] == 2 and doc["n"] == 2
    assert [t["class"] for t in doc["types"]] == ["diag", "A"]
    assert {"r", "s", "class", "N", "degrees"} <= set(doc["types"][0])
