"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import random
import time
from itertools import product

from unicover import (
    EdgeType,
    SimpleGraph,
    SimplicityViolation,
    TypedDegreeTable,
    build_table,
    canonical_code,
    check_neighborhood,
    cover_ball,
    cross_validate,
    enumerate_graphs,
    erdos_gallai,
    exists_realization_bruteforce,
    havel_hakimi,
    mutate_collection,
    neighborhood_collection,
    parse_tree,
    realize_neighborhood,
    verify_realization,
)
from treegen import cycle_graph, petersen_graph, random_tree, regular_tree_ball_code, shuffle_tree


def _report(number: int, detail: str) -> None:
    print(f"criterion {number}: PASS ({detail})")


def test_criterion_1_degree_sequence_check_and_realizer():
    start = time.monotonic()
    seq = (3, 1, 2, 3, 5, 2, 3, 1)
    assert erdos_gallai(seq) == (True, None)
    graph = SimpleGraph(len(seq), havel_hakimi(seq))
    assert graph.degree_sequence() == seq
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"sequence {seq} graphical and realized exactly in {elapsed:.3f}s")


def test_criterion_2_positive_direction_exhaustive():
    start = time.monotonic()
    graphs_seen = 0
    for n in range(6):
        for depth in (1, 2, 3):
            for graph in enumerate_graphs(n):
                graphs_seen += 1
                trees = neighborhood_collection(graph, depth)
                assert check_neighborhood(build_table(trees, depth)).graphical, (n, depth, graph)
                rebuilt = realize_neighborhood(trees, depth)
                assert verify_realization(rebuilt, trees, depth), (n, depth, graph)
    elapsed = time.monotonic() - start
    assert graphs_seen == 3 * (1 + 1 + 2 + 8 + 64 + 1024)
    assert elapsed < 300.0
    _report(2, f"{graphs_seen} harvested collections checked and re-realized in {elapsed:.1f}s")


def test_criterion_3_negative_direction_mutants():
    start = time.monotonic()
    mutants = 0
    for n, depth in [(4, 1), (4, 2), (5, 1), (5, 2)]:
        report = cross_validate(n, depth, mutants_per_case=1, seed=n * 10 + depth)
        assert report.disagreements == (), report.to_json_dict()
        mutants += report.cases_total - sum(1 for _ in enumerate_graphs(n))
    assert mutants >= 1000
    # tie the cached-set decision used above to the literal brute-force scan
    rng = random.Random(0)
    spot_checks = 0
    for graph in enumerate_graphs(3):
        trees = neighborhood_collection(graph, 2)
        for _ in range(3):
            mutant = mutate_collection(trees, rng)
            verdict = check_neighborhood(build_table(mutant, 2)).graphical
            found = exists_realization_bruteforce(sorted(mutant, key=canonical_code), 2)
            assert verdict == (found is not None), [canonical_code(t) for t in mutant]
            spot_checks += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(3, f"{mutants} mutants agreed with brute force (+{spot_checks} literal scans) in {elapsed:.1f}s")


def _pair_verdict(outs: tuple[int, ...], ins: tuple[int, ...]) -> bool:
    """`check_neighborhood` on one inverse pair with these counts, sources and heads interleaved."""
    counts = [(a, 0) for a in outs] + [(0, b) for b in ins]
    counts = counts[::2] + counts[1::2]
    plan = {EdgeType("()", "(())"): (tuple(range(len(counts))), tuple(counts))}
    return check_neighborhood(TypedDegreeTable(len(counts), 1, plan)).graphical


def test_criterion_4_directed_check_against_enumeration():
    # An inverse pair's part is a bipartite graph from the vertices with
    # out-counts to those with in-counts: certify the pair test against
    # every such graph with up to 3 sources and 3 heads.
    start = time.monotonic()
    cases = harvested = 0
    for s, t in product(range(4), repeat=2):
        slots = list(product(range(s), range(t)))
        reach = set()
        for mask in range(1 << len(slots)):
            edges = [e for i, e in enumerate(slots) if mask >> i & 1]
            outs = tuple(sum(1 for u, _ in edges if u == i) for i in range(s))
            ins = tuple(sum(1 for _, v in edges if v == j) for j in range(t))
            reach.add((tuple(sorted(outs)), tuple(sorted(ins))))
            assert _pair_verdict(tuple(a for a in outs if a), tuple(b for b in ins if b)), edges
            harvested += 1
        for outs in product(range(1, 4), repeat=s):
            for ins in product(range(1, 4), repeat=t):
                assert _pair_verdict(outs, ins) == ((tuple(sorted(outs)), tuple(sorted(ins))) in reach), (outs, ins)
                cases += 1
    elapsed = time.monotonic() - start
    _report(4, f"{cases} pair count vectors + {harvested} harvested bipartite graphs in {elapsed:.1f}s")


def test_criterion_5_round_trip_at_scale():
    start = time.monotonic()
    rng = random.Random(20260810)
    n, depth = 50, 3
    for case in range(100):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.1]
        graph = SimpleGraph(n, edges)
        trees = neighborhood_collection(graph, depth)
        assert check_neighborhood(build_table(trees, depth)).graphical, case
        rebuilt = realize_neighborhood(trees, depth)
        assert verify_realization(rebuilt, trees, depth), case
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(5, f"100 graphs at n=50, depth=3 round-tripped in {elapsed:.1f}s")


def test_criterion_6_glue_simplicity_never_fires():
    start = time.monotonic()
    rng = random.Random(6)
    attempts = 0
    try:
        for n in range(5):
            for depth in (1, 2, 3):
                for graph in enumerate_graphs(n):
                    trees = neighborhood_collection(graph, depth)
                    realize_neighborhood(trees, depth)
                    attempts += 1
                    for _ in range(2):
                        mutant = mutate_collection(trees, rng)
                        if check_neighborhood(build_table(mutant, depth)).graphical:
                            realize_neighborhood(mutant, depth)
                            attempts += 1
    except SimplicityViolation as exc:  # pragma: no cover - a firing is a build failure
        raise AssertionError(f"glue simplicity assertion fired: {exc}") from exc
    elapsed = time.monotonic() - start
    _report(6, f"{attempts} glued realizations without a simplicity violation in {elapsed:.1f}s")


def test_criterion_7_unfold_sanity():
    start = time.monotonic()
    petersen = petersen_graph()
    for v in range(10):
        assert canonical_code(cover_ball(petersen, v, 2)) == regular_tree_ball_code(3, 2)
    for k in range(3, 9):
        graph = cycle_graph(k)
        for radius in range(5):
            for v in range(k):
                want = regular_tree_ball_code(2, radius)
                assert canonical_code(cover_ball(graph, v, radius)) == want
    rng = random.Random(7)
    for _ in range(25):
        size = rng.randrange(1, 10)
        parents = [rng.randrange(i) for i in range(1, size)]
        tree_graph = SimpleGraph(size, [(p, i + 1) for i, p in enumerate(parents)])
        for radius in range(4):

            def in_graph_ball(v: int, prev: int, k: int) -> str:
                if k == 0:
                    return "()"
                parts = sorted(
                    in_graph_ball(w, v, k - 1) for w in tree_graph.adj[v] if w != prev
                )
                return "(" + "".join(parts) + ")"

            for v in range(size):
                got = canonical_code(cover_ball(tree_graph, v, radius))
                want = canonical_code(parse_tree(in_graph_ball(v, -1, radius)))
                assert got == want
    elapsed = time.monotonic() - start
    _report(7, f"petersen, cycles, and tree self-covers unfolded exactly in {elapsed:.1f}s")


def test_criterion_8_canonical_code_property_suite():
    start = time.monotonic()
    rng = random.Random(8)
    for _ in range(1000):
        tree = random_tree(rng, max_nodes=40)
        code = canonical_code(tree)
        for _ in range(10):
            assert canonical_code(shuffle_tree(tree, rng)) == code
        assert canonical_code(parse_tree(canonical_code(tree))) == code
    elapsed = time.monotonic() - start
    _report(8, f"1000 trees x 10 shuffles with exact round-trips in {elapsed:.1f}s")
