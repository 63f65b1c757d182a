from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from unicover import (
    DepthError,
    EdgeType,
    ParseError,
    TypeClass,
    build_table,
    canonical_code,
    check_neighborhood,
    erdos_gallai,
    mutate_collection,
    neighborhood_collection,
    parse_tree,
)
from unicover.edge_types import table_from_ids
from unicover.trees import Forest, depth, iter_collection
import reference
from treegen import cycle_graph, path_graph, random_graph, random_tree, shuffle_tree


def _total(table, etype):
    """The edge count `N` that the table's JSON form gives for `etype`."""
    [row] = [row for row in table.to_json_dict()["types"] if (row["r"], row["s"]) == etype]
    return row["N"]


def test_single_edge_type_is_trivial_diagonal():
    t = parse_tree("(())")
    for h in (1, 2, 5):
        [et] = build_table([t], h).supports
        assert (et.near, et.far) == ("()", "()")
        assert et.klass is TypeClass.DIAGONAL


def test_far_side_keeps_full_depth():
    [et] = build_table([parse_tree("((()))")], 2).supports
    assert (et.near, et.far) == ("()", "(())")


def test_near_side_is_truncated():
    # two branches of depth 2; removing one leaves the other, cut to depth 1
    table = build_table([parse_tree("((())(()))")], 2)
    [et] = table.supports
    assert (et.near, et.far) == ("(())", "(())")
    assert et.klass is TypeClass.DIAGONAL
    assert table.degrees[et] == (2,)


def test_type_agrees_with_cycle_harvest():
    # the same diagonal type arises from an actual 4-cycle's balls
    balls = neighborhood_collection(cycle_graph(4), 2)
    assert [canonical_code(t) for t in balls] == ["((())(()))"] * 4
    table = build_table(balls, 2)
    [etype] = table.supports
    assert (etype.near, etype.far) == ("(())", "(())")
    assert table.degrees[etype] == (2, 2, 2, 2)
    assert _total(table, etype) == 8


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
        for et in build_table([t], h).supports:
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
    [etype] = table.supports
    assert (etype.near, etype.far) == ("()", "()")
    assert table.degrees[etype] == (1, 1)
    assert _total(table, etype) == 2
    assert table.supports[etype] == ((0, 1), (1, 1))


def test_build_table_mixed_pair():
    table = build_table([parse_tree("(())"), parse_tree("((()))")], 2)
    diag = EdgeType("()", "()")
    skew = EdgeType("()", "(())")
    assert set(table.supports) == {diag, skew}
    assert table.degrees[diag] == (1, 0)
    assert _total(table, skew) == 1
    assert table.degree_vector(skew.inverse()) == (0, 0)
    assert table.supports == {diag: ((0, 1),), skew: ((1, 1),)}
    assert table.plan == {diag: ((0,), (1,)), skew: ((1,), ((1, 0),))}


def test_inverse_pairs_name_each_pair_by_its_a_member():
    skew = EdgeType("()", "(())")
    only_a = build_table([parse_tree("(())"), parse_tree("((()))")], 2)
    assert list(only_a.supports) == [EdgeType("()", "()"), skew]
    assert [rep for rep in only_a.plan if rep.near != rep.far] == [skew]
    only_b = build_table([parse_tree("(()(()))")], 2)
    assert skew.inverse() in only_b.degrees and skew not in only_b.degrees
    assert [rep for rep in only_b.plan if rep.near != rep.far] == [skew]
    assert list(only_b.plan.items())[-1:] == [(skew, ((0,), ((0, 1),)))]
    assert only_b.degree_vector(skew) == (0,) and only_b.degree_vector(skew.inverse()) == (1,)


def _assert_matches_the_reference(forest, roots, h):
    """The table's plan and `supports` view equal the reference's stored supports and pairing."""
    table = table_from_ids(forest, roots, h)
    supports, plan = reference.supports_and_plan(forest, roots, h)
    assert table.supports == supports and list(table.supports) == list(supports)
    assert list(table.plan.items()) == list(plan.items())
    for etype in supports:
        assert table.degree_vector(etype) == tuple(dict(supports[etype]).get(v, 0) for v in range(table.n))
    return table, supports


def test_plan_matches_the_reference_pairing():
    # Harvests have both members of every pair; mutants also give pairs
    # whose A member never occurs.
    rng = random.Random(41)
    b_only = failing = 0
    for _ in range(80):
        graph = random_graph(rng, rng.randrange(1, 12), rng.choice((0.2, 0.4, 0.6)))
        h = rng.randint(1, 3)
        harvest = neighborhood_collection(graph, h)
        for trees in (harvest, mutate_collection(harvest, rng), mutate_collection(harvest, rng)):
            forest = Forest()
            table, supports = _assert_matches_the_reference(forest, list(forest.intern(trees)), h)
            b_only += sum(rep not in supports for rep in reference.inverse_pairs(supports))
            # Each occurring type is in one entry: its own, or its A member's.
            entries: dict[EdgeType, list[EdgeType]] = {}
            for etype in table.plan:
                for member in {etype, etype.inverse()}:
                    entries.setdefault(member, []).append(etype)
            for etype in supports:
                assert entries[etype] == [etype.inverse() if etype.klass is TypeClass.B else etype]
            at = {etype: i for i, etype in enumerate(table.plan)}
            failed = [at[f.type_key] for f in check_neighborhood(table).failures]
            assert failed == sorted(set(failed))
            failing += bool(failed)
            rows = table.to_json_dict()["types"]
            assert [row["N"] for row in rows] == [sum(c for _, c in s) for s in supports.values()]
    assert b_only > 0 and failing > 0


def test_plan_matches_the_reference_pairing_on_the_golden_corpus():
    cases = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))
    b_only = 0
    for case in cases:
        forest = Forest()
        try:
            roots = [t for _, t in iter_collection(case["trees"].splitlines(), forest=forest)]
        except ParseError:
            continue
        h = max(1, max([forest.depths[t] for t in roots], default=0))
        _, supports = _assert_matches_the_reference(forest, roots, h)
        b_only += sum(rep not in supports for rep in reference.inverse_pairs(supports))
    assert len(cases) > 50 and b_only > 0


def test_build_table_rejects_deep_trees_listing_indices():
    trees = [parse_tree("(())"), parse_tree("((()))"), parse_tree("(((())))")]
    with pytest.raises(DepthError) as err:
        build_table(trees, 2)
    assert err.value.indices == (2,)


def test_build_table_requires_positive_depth():
    with pytest.raises(ValueError):
        build_table([parse_tree("()")], 0)


def test_build_table_reads_the_depth_as_an_integer():
    balls = neighborhood_collection(path_graph(4), 2)
    with pytest.raises(TypeError):
        build_table(balls, 2.5)
    with pytest.raises(TypeError):
        build_table(balls, "2")
    assert build_table([parse_tree("(())")] * 2, True).to_json_dict()["h"] == 1


def test_row_sums_match_degree_sequence():
    rng = random.Random(23)
    for _ in range(30):
        trees = [random_tree(rng, max_nodes=12) for _ in range(rng.randrange(1, 6))]
        h = max(1, max(depth(t) for t in trees))
        table = build_table(trees, h)
        for i in range(table.n):
            row = sum(table.degrees[et][i] for et in table.supports)
            assert row == len(trees[i].children)
        # the supports view is the dense vectors' nonzero entries, in vertex order
        for et, vec in table.degrees.items():
            assert table.supports[et] == tuple((i, d) for i, d in enumerate(vec) if d)
            assert _total(table, et) == sum(vec)


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
        types = list(table.supports)
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
