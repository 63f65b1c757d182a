from __future__ import annotations

import random
from itertools import combinations_with_replacement, product

import pytest

from unicover import (
    EdgeType,
    FailureKind,
    build_table,
    check_neighborhood,
    enumerate_graphs,
    erdos_gallai,
    exists_realization_bruteforce,
    neighborhood_collection,
    parse_tree,
    realize_neighborhood,
    verify_realization,
)
from reference import bidegrees, enumerate_digraphs, first_directed_violation, first_subsum_violation, fulkerson_chen_anstee
from treegen import cycle_graph, hub_pairs, near_bipartite_pairs, random_graph, star_and_head_degrees
from unicover.sequences import _first_bipartite_violation, _first_subsum_violation


def graphical_by_enumeration(seq):
    reach = {tuple(sorted(g.degree_sequence())) for g in enumerate_graphs(len(seq))}
    return tuple(sorted(seq)) in reach


def digraphical_by_enumeration(pairs):
    reach = {tuple(sorted(bidegrees(len(pairs), arcs))) for arcs in enumerate_digraphs(len(pairs))}
    return tuple(sorted(pairs)) in reach


def test_eg_fig_sequence_is_graphical():
    assert erdos_gallai((3, 1, 2, 3, 5, 2, 3, 1)) == (True, None)


def test_eg_trivial_cases():
    assert erdos_gallai(()) == (True, None)
    assert erdos_gallai((0, 0, 0)) == (True, None)


def test_eg_3331_rejected_with_witness():
    seq = (3, 3, 3, 1)
    assert not graphical_by_enumeration(seq)
    # k=3 violates (9 > 3*2 + 1) but k=2 already does (6 > 2*1 + 2 + 1), and
    # the smallest violated index is reported
    assert erdos_gallai(seq) == (False, 2)


def test_eg_parity_and_range_flagged_as_zero():
    assert erdos_gallai((1,)) == (False, 0)
    assert erdos_gallai((3, 1, 1)) == (False, 0)  # odd sum
    assert erdos_gallai((4, 2, 1, 1)) == (False, 0)  # 4 > n-1


def test_eg_rejects_negative():
    with pytest.raises(ValueError):
        erdos_gallai((2, -1, 1))


def test_eg_matches_enumeration_exhaustively_up_to_six():
    for n in range(7):
        reach = {tuple(sorted(g.degree_sequence())) for g in enumerate_graphs(n)}
        for seq in product(range(max(1, n)), repeat=n):
            ok, witness = erdos_gallai(seq)
            assert ok == (tuple(sorted(seq)) in reach), seq
            if not ok:
                assert witness is not None and 0 <= witness <= n


def test_fca_single_arc():
    assert fulkerson_chen_anstee(((1, 0), (0, 1))) == (True, None)


def test_fca_loop_demand_rejected():
    assert fulkerson_chen_anstee(((1, 1),)) == (False, 0)


def test_fca_doubly_oriented_triangle():
    pairs = ((2, 2), (2, 2), (2, 2))
    assert digraphical_by_enumeration(pairs)
    assert fulkerson_chen_anstee(pairs) == (True, None)


def test_fca_unbalanced_and_range_flagged_as_zero():
    assert fulkerson_chen_anstee(((1, 0),)) == (False, 0)
    assert fulkerson_chen_anstee(((3, 1), (0, 1), (0, 1)))[1] == 0  # out 3 > n-1


def test_fca_rejects_negative():
    with pytest.raises(ValueError):
        fulkerson_chen_anstee(((1, -1),))


def test_fca_matches_enumeration_exhaustively():
    for n in range(5):
        reach = {tuple(sorted(bidegrees(n, arcs))) for arcs in enumerate_digraphs(n)}
        for flat in product(range(4), repeat=2 * n):
            pairs = tuple(zip(flat[::2], flat[1::2]))
            ok, witness = fulkerson_chen_anstee(pairs)
            assert ok == (tuple(sorted(pairs)) in reach), pairs
            if not ok:
                assert witness is not None and 0 <= witness <= n


def test_check_accepts_cycle_harvest():
    table = build_table(neighborhood_collection(cycle_graph(4), 2), 2)
    verdict = check_neighborhood(table)
    assert verdict.graphical and verdict.failures == ()


def test_check_empty_collection_is_graphical():
    assert check_neighborhood(build_table([], 1)).graphical


def test_check_reports_unbalanced_pair_on_the_a_class_key():
    table = build_table([parse_tree("(())"), parse_tree("((()))")], 2)
    verdict = check_neighborhood(table)
    assert not verdict.graphical
    kinds = {(f.type_key, f.kind) for f in verdict.failures}
    assert (EdgeType("()", "(())"), FailureKind.UNBALANCED_PAIR) in kinds
    assert (EdgeType("()", "()"), FailureKind.ODD_DIAGONAL_SUM) in kinds


def test_check_reports_eg_violation_with_witness():
    # three vertices demanding two partners each of a type only they carry,
    # but a fourth vertex steals one stub: (3,3,3,1) on the diagonal type
    trees = [parse_tree("(" + "()" * d + ")") for d in (3, 3, 3, 1)]
    verdict = check_neighborhood(build_table(trees, 1))
    [failure] = verdict.failures
    assert failure.kind is FailureKind.EG_VIOLATION
    assert failure.witness_k == 2


def test_check_failure_json_shape():
    table = build_table([parse_tree("(())"), parse_tree("((()))")], 2)
    docs = [f.to_json_dict() for f in check_neighborhood(table).failures]
    assert docs
    for doc in docs:
        assert set(doc) == {"type", "kind", "k"}
        assert set(doc["type"]) == {"r", "s"}


# Star-of-stars gadgets: at depth 2 the near side of every edge is the star
# cut one level below the root, so these four shapes interact through exactly
# two inverse pairs and no diagonal types.
TWO_STAR_PAIR = "((()())(()()))"  # degree 2, both branches 2-leaf stars
ONE_STAR_TRIPLE = "((())(())(()))"  # degree 3, three 1-leaf-star branches
MIXED_TRIPLE = "((())()())"  # degree 3: one 1-leaf-star branch, two leaves
TWO_STAR_TAIL = "((()()))"  # degree 1, one 2-leaf-star branch


def test_check_pure_directed_violation_with_deep_witness():
    # two suppliers with two stubs each cannot feed sinks demanding 3 + 1
    words = [TWO_STAR_PAIR, TWO_STAR_PAIR, ONE_STAR_TRIPLE, MIXED_TRIPLE, TWO_STAR_TAIL, TWO_STAR_TAIL]
    trees = [parse_tree(w) for w in words]
    table = build_table(trees, 2)
    verdict = check_neighborhood(table)
    [failure] = verdict.failures
    assert failure.kind is FailureKind.DIRECTED_EG_VIOLATION
    assert failure.witness_k == 2
    assert failure.type_key == EdgeType("(())", "(()())")
    # the plain degree sequence is graphical, so only the typed check rejects
    assert erdos_gallai([len(t.children) for t in trees])[0]
    assert exists_realization_bruteforce(trees, 2) is None


def test_check_pure_diagonal_violation_with_deep_witness():
    # diagonal count vector (3,3,3,1): even sum, fails the k=2 subsum
    heavy = "((()())(()())(()()))"
    light = "((()())()())"
    words = [heavy, heavy, heavy, light, TWO_STAR_TAIL, TWO_STAR_TAIL]
    trees = [parse_tree(w) for w in words]
    table = build_table(trees, 2)
    verdict = check_neighborhood(table)
    [failure] = verdict.failures
    assert failure.kind is FailureKind.EG_VIOLATION
    assert failure.witness_k == 2
    assert failure.type_key == EdgeType("(()())", "(()())")
    assert erdos_gallai([len(t.children) for t in trees])[0]
    assert exists_realization_bruteforce(trees, 2) is None


def test_check_boundary_twin_is_realizable():
    # three suppliers and two 3-sinks balance exactly: realized by K_{2,3}
    words = [TWO_STAR_PAIR] * 3 + [ONE_STAR_TRIPLE] * 2
    trees = [parse_tree(w) for w in words]
    assert check_neighborhood(build_table(trees, 2)).graphical
    graph = realize_neighborhood(trees, 2)
    assert verify_realization(graph, trees, 2)
    assert sorted(graph.degree_sequence()) == [2, 2, 2, 3, 3]


def test_graphical_verdict_implies_plain_graphical_degrees():
    rng = random.Random(99)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 9), 0.4)
        for h in (1, 2, 3):
            trees = neighborhood_collection(g, h)
            verdict = check_neighborhood(build_table(trees, h))
            assert verdict.graphical
            assert erdos_gallai([len(t.children) for t in trees])[0]


def test_check_is_deterministic():
    table = build_table([parse_tree("(())"), parse_tree("((()))")], 2)
    a = check_neighborhood(table)
    b = check_neighborhood(table)
    assert a == b


def _near_boundary_degrees(rng: random.Random, s: int) -> list[int]:
    """Random degrees of one of three shapes, most of them close to graphical."""
    shape = rng.randrange(3)
    if shape == 0:
        return [rng.randrange(rng.randrange(1, s + 1) + 1) for _ in range(s)]
    degrees = [0] * s
    p = rng.random()
    for u in range(s):
        for v in range(u + 1, s):
            if rng.random() < p:
                degrees[u] += 1
                degrees[v] += 1
    if shape == 2:
        # move a few units toward the largest entries
        for _ in range(rng.randrange(1, 4)):
            i, j = rng.randrange(s), rng.randrange(s)
            if degrees[j]:
                degrees[i] += 1
                degrees[j] -= 1
    return degrees


def test_subsum_scans_match_the_quadratic_reference_on_random_supports():
    rng = random.Random(2024)
    witnesses, directed_witnesses = set(), set()
    for _ in range(600):
        s = rng.choice((rng.randrange(1, 12), rng.randrange(1, 60), rng.randrange(1, 301)))
        degrees = _near_boundary_degrees(rng, s)
        k = _first_subsum_violation(degrees)
        assert k == first_subsum_violation(sorted(degrees, reverse=True)), degrees
        witnesses.add(k)
        pairs = near_bipartite_pairs(rng, min(s, 120))
        k = _first_bipartite_violation(pairs)
        assert k == first_directed_violation(sorted(pairs, reverse=True)), pairs
        directed_witnesses.add(k)
    # the inputs reach both verdicts and witnesses past the first entry
    assert None in witnesses and len(witnesses) > 6
    assert None in directed_witnesses and len(directed_witnesses) > 6


def test_subsum_scans_match_the_quadratic_reference_exhaustively():
    # Both scans sort their input first, so every multiset covers every order.
    for n in range(7):
        for seq in combinations_with_replacement(range(n + 1), n):
            assert _first_subsum_violation(seq) == first_subsum_violation(seq[::-1]), seq
        top = min(n, 3) + 1
        values = [(a, 0) for a in range(top)] + [(0, b) for b in range(1, top)]
        for pairs in combinations_with_replacement(values, n):
            want = first_directed_violation(sorted(pairs, reverse=True))
            assert _first_bipartite_violation(pairs) == want, pairs


def test_sequence_tests_agree_with_networkx_at_scale():
    nx = pytest.importorskip("networkx")
    rng = random.Random(77)
    verdicts, directed_verdicts = set(), set()
    for n in (1000, 3000, 10_000):
        for _ in range(4):
            g = nx.gnm_random_graph(n, 2 * n, seed=rng.randrange(10**6))
            for degrees in ([d for _, d in g.degree()], star_and_head_degrees(rng, n)):
                ok, _ = erdos_gallai(degrees)
                assert ok == nx.is_graphical(degrees)
                verdicts.add(ok)
            b = nx.bipartite.gnmk_random_graph(n // 2, n - n // 2, 2 * n, seed=rng.randrange(10**6))
            for pairs in (
                [(b.degree(v), 0) for v in range(n // 2)] + [(0, b.degree(v)) for v in range(n // 2, n)],
                hub_pairs(rng, n),
            ):
                ok = sum(a for a, _ in pairs) == sum(b for _, b in pairs) and _first_bipartite_violation(pairs) is None
                assert ok == nx.is_digraphical([b for _, b in pairs], [a for a, _ in pairs])
                directed_verdicts.add(ok)
    assert verdicts == directed_verdicts == {True, False}
