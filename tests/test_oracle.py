from __future__ import annotations

import random

import pytest

from unicover import (
    SimpleGraph,
    SizeError,
    canonical_code,
    cross_validate,
    enumerate_digraphs,
    enumerate_graphs,
    exists_realization_bruteforce,
    mutate_collection,
    neighborhood_collection,
    parse_tree,
)
from unicover.oracle import _drop_deepest_leaf
from unicover.trees import count_nodes, depth
from treegen import random_tree


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
        if count_nodes(mutant) != count_nodes(tree):
            seen_drop += 1
            assert count_nodes(mutant) == count_nodes(tree) - 1
    assert seen_drop > 0


def test_drop_leaf_on_a_deep_ball_does_not_recurse():
    # a root over two 1200-node paths: one path loses its end, the other stays
    triangle = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
    ball = neighborhood_collection(triangle, 1200)[0]
    mutant = _drop_deepest_leaf(ball, random.Random(0))
    assert count_nodes(mutant) == count_nodes(ball) - 1 == 2400
    assert canonical_code(mutant) == "(" + "(" * 1199 + ")" * 1199 + "(" * 1200 + ")" * 1200 + ")"


def test_cross_validate_small_sizes_are_clean():
    for n, h in [(2, 1), (3, 1), (3, 2)]:
        report = cross_validate(n, h, mutants_per_case=3, seed=0)
        assert report.disagreements == []
        assert report.agreements == report.cases_total


def test_cross_validate_is_deterministic():
    a = cross_validate(3, 2, mutants_per_case=2, seed=7)
    b = cross_validate(3, 2, mutants_per_case=2, seed=7)
    assert a.to_json_dict() == b.to_json_dict()


def test_cross_validate_counts_positives_and_mutants():
    report = cross_validate(3, 1, mutants_per_case=2, seed=0)
    assert report.cases_total == 8 + 8 * 2


def test_report_json_shape():
    doc = cross_validate(2, 1, mutants_per_case=1, seed=0).to_json_dict()
    assert set(doc) == {"n", "h", "cases_total", "agreements", "disagreements"}
