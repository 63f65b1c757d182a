from __future__ import annotations

import random

import pytest

import unicover.oracle
from unicover import (
    InternalInfeasible,
    SimpleGraph,
    SizeError,
    canonical_code,
    cross_validate,
    enumerate_graphs,
    exists_realization_bruteforce,
    mutate_collection,
    parse_tree,
)
from unicover.oracle import _drop_deepest_leaf
from unicover.trees import Forest, depth
from unicover.unfold import ball_ids
import reference
from reference import enumerate_digraphs
from treegen import random_tree, shuffle_tree


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 8), (4, 64)])
def test_graph_enumeration_counts(n, count):
    graphs = list(enumerate_graphs(n))
    assert len(graphs) == count
    assert len(set(graphs)) == count


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 4), (3, 64)])
def test_digraph_enumeration_counts(n, count):
    digraphs = list(enumerate_digraphs(n))
    assert len(digraphs) == count
    assert len(set(digraphs)) == count


def test_enumeration_size_caps():
    with pytest.raises(SizeError):
        next(enumerate_graphs(8))
    with pytest.raises(SizeError):
        next(enumerate_digraphs(5))
    with pytest.raises(SizeError):
        exists_realization_bruteforce([parse_tree("()")] * 8, 1)


def test_bruteforce_finds_the_single_edge():
    g = exists_realization_bruteforce([parse_tree("(())")] * 2, 1)
    assert g is not None and g.edges == ((0, 1),)


def test_bruteforce_rejects_the_unbalanced_pair():
    assert exists_realization_bruteforce([parse_tree("(())"), parse_tree("((()))")], 2) is None


def test_bruteforce_finds_the_four_cycle():
    g = exists_realization_bruteforce([parse_tree("((())(()))")] * 4, 2)
    assert g is not None and g.degree_sequence() == (2, 2, 2, 2)


def test_bruteforce_existence_is_permutation_invariant():
    trees = [parse_tree(w) for w in ("((()))", "(()())", "((()))")]
    assert exists_realization_bruteforce(trees, 2) is not None
    assert exists_realization_bruteforce(trees[::-1], 2) is not None
    bad = [parse_tree("(())"), parse_tree("((()))")]
    assert exists_realization_bruteforce(bad, 2) is None
    assert exists_realization_bruteforce(bad[::-1], 2) is None


def test_mutations_preserve_length_and_never_deepen():
    rng = random.Random(3)
    for _ in range(200):
        trees = [random_tree(rng, max_nodes=8) for _ in range(rng.randrange(1, 6))]
        mutant = mutate_collection(trees, rng)
        assert len(mutant) == len(trees)
        assert max(depth(t) for t in mutant) <= max(depth(t) for t in trees)


def test_mutation_is_seed_deterministic():
    trees = [parse_tree("((())())"), parse_tree("(())"), parse_tree("()")]
    a = mutate_collection(trees, random.Random(5))
    b = mutate_collection(trees, random.Random(5))
    assert [canonical_code(t) for t in a] == [canonical_code(t) for t in b]


def test_mutation_on_unmutatable_collection_is_identity():
    trees = [parse_tree("()")]
    assert mutate_collection(trees, random.Random(0)) == trees


def test_drop_leaf_removes_exactly_one_node():
    rng = random.Random(9)
    seen_drop = 0
    for _ in range(300):
        tree = random_tree(rng, max_nodes=10)
        if not tree.children:
            continue
        mutant = mutate_collection([tree], rng)[0]
        if reference.count_nodes(mutant) != reference.count_nodes(tree):
            seen_drop += 1
            assert reference.count_nodes(mutant) == reference.count_nodes(tree) - 1
    assert seen_drop > 0


def test_drop_leaf_on_a_deep_ball_does_not_recurse():
    # a root over two 1200-node paths: one path loses its end, the other stays
    triangle = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
    forest = Forest()
    ball = ball_ids(forest, triangle, 1200)[0]
    mutant = _drop_deepest_leaf(forest, ball, random.Random(0))
    assert reference.count_nodes(forest.tree(mutant)) == reference.count_nodes(forest.tree(ball)) - 1 == 2400
    assert forest.codes[mutant] == "(" + "(" * 1199 + ")" * 1199 + "(" * 1200 + ")" * 1200 + ")"


def test_mutants_do_not_depend_on_the_stored_child_order():
    # Deepest leaves are numbered in canonical child order, so shuffling the
    # children of the input must not change which leaf a draw drops.
    rng = random.Random(12)
    drops = 0
    for seed in range(200):
        drawn = [random_tree(rng, max_nodes=12) for _ in range(rng.randrange(1, 4))]
        canon = [parse_tree(canonical_code(t)) for t in drawn]
        shuffled = [shuffle_tree(t, rng) for t in canon]
        want = [canonical_code(t) for t in mutate_collection(canon, random.Random(seed))]
        assert [canonical_code(t) for t in mutate_collection(shuffled, random.Random(seed))] == want
        # Only a dropped leaf makes a code the input does not have.
        drops += not set(want) <= {canonical_code(t) for t in canon}
    assert drops > 0


def test_cross_validate_small_sizes_are_clean():
    for n, h in [(2, 1), (3, 1), (3, 2)]:
        report = cross_validate(n, h, mutants_per_case=3, seed=0)
        assert report.disagreements == ()
        assert report.agreements == report.cases_total


def test_cross_validate_rejects_depth_zero():
    with pytest.raises(ValueError, match="depth must be >= 1"):
        cross_validate(2, 0)


def test_cross_validate_is_deterministic():
    a = cross_validate(3, 2, mutants_per_case=2, seed=7)
    b = cross_validate(3, 2, mutants_per_case=2, seed=7)
    assert a.to_json_dict() == b.to_json_dict()


def test_cross_validate_counts_positives_and_mutants():
    report = cross_validate(3, 1, mutants_per_case=2, seed=0)
    assert report.cases_total == 8 + 8 * 2


def test_judge_reports_a_realizer_that_raises(monkeypatch):
    def refuse(table):
        raise InternalInfeasible("refused")

    monkeypatch.setattr(unicover.oracle, "realize_table", refuse)
    report = cross_validate(2, 1, mutants_per_case=0, seed=0)
    assert report.agreements == 0
    assert [d.to_json_dict() for d in report.disagreements] == [
        {"collection": [code] * 2, "checker": True, "oracle": True, "detail": "realize raised InternalInfeasible: refused"}
        for code in ("()", "(())")
    ]


def test_judge_reports_a_realization_that_does_not_verify(monkeypatch):
    monkeypatch.setattr(unicover.oracle, "realize_table", lambda table: SimpleGraph(table.n))
    report = cross_validate(2, 1, mutants_per_case=0, seed=0)
    [bad] = report.disagreements
    assert bad.collection == ("(())", "(())")
    assert bad.detail == "realization failed per-index verification"
    assert report.to_json_dict()["disagreements"] == [bad.to_json_dict()]


def test_report_json_shape():
    doc = cross_validate(2, 1, mutants_per_case=1, seed=0).to_json_dict()
    assert set(doc) == {"n", "h", "cases_total", "agreements", "disagreements"}
