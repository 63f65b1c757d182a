from __future__ import annotations

import json
import random
from itertools import product
from pathlib import Path

import pytest

from unicover import (
    EdgeType,
    InternalInfeasible,
    InternalInvariantError,
    NotGraphical,
    SimpleGraph,
    SimplicityViolation,
    TypedDegreeTable,
    build_table,
    canonical_code,
    check_neighborhood,
    enumerate_graphs,
    erdos_gallai,
    glue,
    havel_hakimi,
    kleitman_wang,
    neighborhood_collection,
    parse_tree,
    realize_neighborhood,
    verify_realization,
)
import unicover.realize
from unicover.edge_types import table_from_ids
from unicover.realize import realize_table
from unicover.oracle import mutate_collection
from unicover.trees import Forest, iter_collection, truncate
from unicover.unfold import ball_ids, first_difference
from reference import bidegrees, fulkerson_chen_anstee, havel_hakimi_dense, kleitman_wang_dense, realize_parts
from treegen import hub_pairs, path_graph, random_graph, random_tree, star_and_head_degrees

DIAG = EdgeType("()", "()")
DIAG2 = EdgeType("(())", "(())")
SKEW = EdgeType("()", "(())")


def test_havel_hakimi_examples():
    assert havel_hakimi((1, 1)) == [(0, 1)]
    assert havel_hakimi((0, 0, 0)) == []
    g = SimpleGraph(6, havel_hakimi((3, 3, 2, 2, 1, 1)))
    assert g.degree_sequence() == (3, 3, 2, 2, 1, 1)
    assert any(h.degree_sequence() == g.degree_sequence() for h in enumerate_graphs(6))


def test_degrees_must_be_integers_in_every_sequence_function():
    for bad in (1.5, 2.0, "1"):
        with pytest.raises(TypeError):
            erdos_gallai([bad, bad])
        with pytest.raises(TypeError):
            havel_hakimi([bad, bad])
        with pytest.raises(TypeError):
            kleitman_wang([(bad, 0), (0, bad)])
        with pytest.raises(TypeError):
            kleitman_wang([(1, 0), (0, bad)])
    assert erdos_gallai([True, True]) == erdos_gallai([1, 1]) == (True, None)
    assert havel_hakimi([True, 1]) == havel_hakimi([1, 1]) == [(0, 1)]
    assert kleitman_wang([(True, False), (0, 1)]) == kleitman_wang([(1, 0), (0, 1)]) == [(0, 1)]


def test_havel_hakimi_exact_on_every_graphical_sequence_up_to_six():
    # SimpleGraph refuses a loop, a repeated edge or an end out of range.
    for n in range(7):
        for seq in product(range(max(1, n)), repeat=n):
            if erdos_gallai(seq)[0]:
                assert SimpleGraph(n, havel_hakimi(seq)).degree_sequence() == tuple(seq)


def test_havel_hakimi_deterministic():
    seq = (3, 1, 2, 3, 5, 2, 3, 1)
    assert havel_hakimi(seq) == havel_hakimi(seq)


def test_realizers_reject_negative_entries():
    with pytest.raises(ValueError, match="non-negative"):
        havel_hakimi((1, -1, 2))
    with pytest.raises(ValueError, match="non-negative"):
        kleitman_wang(((1, 0), (0, -1)))


def test_kleitman_wang_examples():
    assert kleitman_wang(((1, 0), (0, 1))) == [(0, 1)]
    assert kleitman_wang(((0, 0), (0, 0))) == []
    arcs = kleitman_wang(((0, 2), (2, 0), (0, 1), (1, 0), (0, 1), (1, 0)))
    assert arcs == [(1, 0), (1, 2), (3, 0), (5, 4)]


def test_kleitman_wang_names_in_stubs_left_over():
    with pytest.raises(InternalInfeasible, match="in-stubs left over after all out-stubs were placed"):
        kleitman_wang([(1, 0), (0, 2)])


def test_realizers_read_an_iterator_or_a_generator_as_they_read_the_list():
    degrees, pairs = [3, 3, 2, 2, 1, 1], [(1, 0), (0, 1), (2, 0), (0, 2)]
    for realize, counts in ((havel_hakimi, degrees), (kleitman_wang, pairs)):
        want = realize(counts)
        assert want and realize(iter(counts)) == want
        assert realize(c for c in counts) == want


def test_kleitman_wang_exact_on_every_digraphical_sequence_up_to_four():
    # Every vector with entries below 4 and no vertex on both sides.
    values = [(a, 0) for a in range(4)] + [(0, b) for b in range(1, 4)]
    for n in range(5):
        for pairs in product(values, repeat=n):
            if fulkerson_chen_anstee(pairs)[0]:
                arcs = kleitman_wang(pairs)
                assert len(set(arcs)) == len(arcs) and bidegrees(n, arcs) == pairs


def _table(n, plan):
    """A hand-made table on `n` vertices with the given plan."""
    return TypedDegreeTable(n, 1, plan)


def _diagonal(table):
    """The types of the table's diagonal plan entries."""
    return tuple(etype for etype in table.plan if etype.near == etype.far)


def _pairs(table):
    """The table's inverse-pair plan entries, as `(rep, vertices, counts)`."""
    return tuple((rep, *entry) for rep, entry in table.plan.items() if rep.near != rep.far)


def _doctored(table, **fields):
    """`table` with some of its fields replaced."""
    return TypedDegreeTable(*[fields.get(name, getattr(table, name)) for name in TypedDegreeTable.__slots__])


def _skew_table(vertices, n):
    """One inverse pair, (out, in) = (1, 0), (0, 2), (1, 0) on `vertices`: a path's middle as the head."""
    return _table(n, {SKEW: (tuple(vertices), ((1, 0), (0, 2), (1, 0)))})


def _path_table():
    table = build_table(neighborhood_collection(path_graph(3), 2), 2)
    assert _diagonal(table) == () and [rep for rep, _, _ in _pairs(table)] == [SKEW]
    return table


def test_glue_single_diagonal_part():
    table = build_table([parse_tree("(())")] * 2, 1)
    assert _diagonal(table) == (DIAG,)
    assert glue(table, [[(0, 1)]]) == SimpleGraph(2, [(0, 1)])


def test_glue_maps_parts_back_through_their_labels():
    table = _table(5, {DIAG: ((1, 4), (1, 1))})
    assert glue(table, [[(1, 0)]]) == SimpleGraph(5, [(1, 4)])


def test_glue_empty_parts():
    assert glue(build_table([], 1), []) == SimpleGraph(0)
    assert glue(build_table([parse_tree("()")] * 5, 1), []) == SimpleGraph(5)


def test_glue_forgets_arc_directions_but_checks_the_tails():
    part = [(2, 1), (0, 1)]
    assert glue(_skew_table((0, 1, 2), 3), [part]).edges == ((0, 1), (1, 2))
    assert glue(_skew_table((2, 5, 7), 8), [part]).edges == ((2, 5), (5, 7))
    # The same edges with every tail at the middle vertex give it the wrong type.
    with pytest.raises(InternalInvariantError, match="degrees"):
        glue(_skew_table((0, 1, 2), 3), [[(1, 2), (1, 0)]])


def test_glue_detects_cross_part_collision():
    table = _table(3, {DIAG: ((0, 1), (1, 1)), DIAG2: ((0, 1), (1, 1))})
    with pytest.raises(SimplicityViolation, match="again"):
        glue(table, [[(0, 1)], [(0, 1)]])


def test_glue_detects_opposite_arcs_in_one_part():
    # Each arc alone is a different edge, so the (out, in) counts match.
    table = _table(2, {SKEW: ((0, 1), ((1, 1), (1, 1)))})
    with pytest.raises(SimplicityViolation, match="again"):
        glue(table, [[(0, 1), (1, 0)]])


def test_glue_detects_an_edge_given_twice_in_one_part():
    # Both ends get degree 2, as the entry asks, from one edge.
    table = _table(2, {DIAG: ((0, 1), (2, 2))})
    with pytest.raises(SimplicityViolation, match="again"):
        glue(table, [[(0, 1), (1, 0)]])


def test_glue_reports_a_repeat_as_it_reads_it_before_the_degrees():
    # Both the repeat and the degrees (2, 2) for (1, 1) are wrong; the repeat is read first.
    table = _table(2, {DIAG: ((0, 1), (1, 1))})
    with pytest.raises(SimplicityViolation, match="again"):
        glue(table, [[(0, 1), (1, 0)]])


def test_glue_refuses_a_wrong_number_of_parts():
    diagonal = build_table([parse_tree("(())")] * 2, 1)
    for parts in ([], [[(0, 1)]] * 2):
        with pytest.raises(ValueError, match="zip"):
            glue(diagonal, parts)
        with pytest.raises(ValueError, match="zip"):
            glue(diagonal, iter(parts))


def test_glue_refuses_plan_vertices_that_do_not_ascend_within_range():
    table = _path_table()
    [(rep, (vertices, counts))] = table.plan.items()
    part = [(0, 1), (2, 1)]
    assert glue(table, [part]).edges == ((0, 1), (1, 2))
    for bad in ((0, 0, 2), (2, 1, 0), (0, 1, 3), (-1, 0, 1)):
        with pytest.raises(InternalInvariantError, match="ascend"):
            glue(_doctored(table, plan={rep: (bad, counts)}), [part])
    with pytest.raises(InternalInvariantError, match="ascend"):
        glue(_table(4, {DIAG: ((1, 1), (1, 1))}), [[(0, 1)]])


def test_glue_refuses_a_part_with_other_degrees():
    cycle = build_table([parse_tree("((())(()))")] * 4, 2)
    assert len(_diagonal(cycle)) == 1 and _pairs(cycle) == ()
    assert glue(cycle, [[(0, 1), (1, 2), (2, 3), (0, 3)]]).edges
    with pytest.raises(InternalInvariantError, match="degrees"):
        glue(cycle, [[(0, 1), (2, 3)]])


def test_realize_single_edge():
    g = realize_neighborhood([parse_tree("(())")] * 2, 1)
    assert g == SimpleGraph(2, [(0, 1)])


def test_realize_cycle_collection_gives_the_four_cycle():
    trees = [parse_tree("((())(()))")] * 4
    g = realize_neighborhood(trees, 2)
    assert g.degree_sequence() == (2, 2, 2, 2)
    # every simple 2-regular graph on 4 vertices is a 4-cycle
    for h in enumerate_graphs(4):
        if h.degree_sequence() == (2, 2, 2, 2):
            assert len(h.edges) == 4
            assert verify_realization(h, trees, 2)
    assert verify_realization(g, trees, 2)


def test_realize_rejects_unbalanced_pair():
    with pytest.raises(NotGraphical) as err:
        realize_neighborhood([parse_tree("(())"), parse_tree("((()))")], 2)
    assert not err.value.verdict.graphical


def test_realize_reads_the_depth_as_an_integer():
    trees = neighborhood_collection(path_graph(4), 2)
    assert realize_neighborhood(trees, 2) == path_graph(4)
    with pytest.raises(TypeError):
        realize_neighborhood(trees, 2.5)


def test_realize_path_uses_skew_types():
    trees = neighborhood_collection(path_graph(3), 2)
    table = build_table(trees, 2)
    assert any(et.klass.value != "diag" for et in table.supports)
    g = realize_neighborhood(trees, 2)
    assert verify_realization(g, trees, 2)


def test_realize_is_deterministic_byte_for_byte():
    rng = random.Random(4)
    g = random_graph(rng, 12, 0.3)
    trees = neighborhood_collection(g, 3)
    first = realize_neighborhood(trees, 3)
    second = realize_neighborhood(trees, 3)
    assert first.edges == second.edges


def test_realized_degrees_match_by_type():
    # per-vertex, per-type counts of the output equal the table exactly;
    # realize_neighborhood re-checks this internally, so surviving the call
    # plus per-index verification pins the invariant
    rng = random.Random(17)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(2, 9), 0.35)
        for h in (1, 2, 3):
            trees = neighborhood_collection(g, h)
            built = realize_neighborhood(trees, h)
            assert built.degree_sequence() == g.degree_sequence()
            assert verify_realization(built, trees, h)


def test_realize_empty_collection():
    assert realize_neighborhood([], 1) == SimpleGraph(0)


def test_realize_isolated_vertices():
    g = realize_neighborhood([parse_tree("()")] * 3, 1)
    assert g == SimpleGraph(3)
    balls = neighborhood_collection(g, 1)
    assert [canonical_code(t) for t in balls] == ["()"] * 3


def _random_bidegrees(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """The (out, in) degrees of a random bipartite digraph from a random part of n vertices to the rest."""
    sources = rng.sample(range(n), rng.randrange(n + 1))
    heads = [v for v in range(n) if v not in sources]
    out, inn = [0] * n, [0] * n
    for u in sources:
        for v in heads:
            if rng.random() < p:
                out[u] += 1
                inn[v] += 1
    return list(zip(out, inn))


def test_heap_realizers_match_the_dense_reference():
    # The greedies pick by exactly the documented orders, so even on all-equal
    # inputs (the most ties) the edge lists must be the same, zeros included.
    rng = random.Random(5)
    sequences = [[3] * 2000, [1] * 64, [0, 2, 0, 2, 2, 0]]
    bisequences = [[(2, 0)] * 1000 + [(0, 2)] * 1000, [(1, 0), (0, 1)] * 32, [(0, 0), (1, 0), (0, 0), (0, 1)]]
    for _ in range(40):
        n = rng.randrange(1, 120)
        sequences.append(list(random_graph(rng, n, rng.random()).degree_sequence()))
        bisequences.append(_random_bidegrees(rng, rng.randrange(1, 60), rng.random()))
    for seq in sequences:
        assert havel_hakimi(seq) == havel_hakimi_dense(seq), seq
    for pairs in bisequences:
        assert kleitman_wang(pairs) == kleitman_wang_dense(pairs), pairs


def _realized_or_none(realizer, refusal, *args):
    try:
        return realizer(*args)
    except refusal:
        return None


def test_realizers_agree_with_networkx_at_scale():
    # Each sequence is a random graph's, the same with one unit bumped or
    # moved, or a family at the feasibility boundary; both sides must realize
    # it or both refuse, and every realization must have exactly its degrees.
    nx = pytest.importorskip("networkx")
    rng = random.Random(41)
    outcomes, directed_outcomes = set(), set()
    for n in (1000, 10_000):
        for _ in range(2):
            g = nx.gnm_random_graph(n, 2 * n, seed=rng.randrange(10**6))
            degrees = [d for _, d in g.degree()]
            bumped = list(degrees)
            bumped[rng.randrange(n)] += 1
            for seq in (degrees, bumped, star_and_head_degrees(rng, n)):
                ours = _realized_or_none(havel_hakimi, InternalInfeasible, seq)
                theirs = _realized_or_none(nx.havel_hakimi_graph, nx.NetworkXError, seq)
                assert (ours is None) == (theirs is None)
                if ours is not None:
                    assert list(SimpleGraph(n, ours).degree_sequence()) == seq
                    # networkx numbers only the positive entries, in order, from 0.
                    positive = [d for d in seq if d > 0]
                    assert [theirs.degree(v) for v in range(n)] == positive + [0] * (n - len(positive))
                    assert nx.number_of_selfloops(theirs) == 0
                outcomes.add(ours is not None)
            b = nx.bipartite.gnmk_random_graph(n // 2, n - n // 2, 2 * n, seed=rng.randrange(10**6))
            pairs = [(b.degree(v), 0) for v in range(n // 2)] + [(0, b.degree(v)) for v in range(n // 2, n)]
            moved = list(pairs)
            v, w = rng.sample(range(n // 2, n), 2)
            moved[v], moved[w] = (0, moved[v][1] + 1), (0, max(0, moved[w][1] - 1))
            for seq in (pairs, moved, hub_pairs(rng, n)):
                ours = _realized_or_none(kleitman_wang, InternalInfeasible, seq)
                theirs = _realized_or_none(
                    nx.directed_havel_hakimi_graph, nx.NetworkXError, [b for _, b in seq], [a for a, _ in seq]
                )
                assert (ours is None) == (theirs is None)
                if ours is not None:
                    assert len(set(ours)) == len(ours) and list(bidegrees(n, ours)) == seq
                    assert [(theirs.out_degree(v), theirs.in_degree(v)) for v in range(n)] == seq
                    assert nx.number_of_selfloops(theirs) == 0
                directed_outcomes.add(ours is not None)
    assert outcomes == directed_outcomes == {True, False}


def test_realizers_run_once_per_type_on_its_support(monkeypatch):
    # One havel_hakimi call per diagonal type and one kleitman_wang call per
    # pair with more than one arc; a pair with one arc is placed directly.
    calls: dict[str, list[int]] = {"hh": [], "kw": []}

    def counted(name, inner):
        def call(vector):
            calls[name].append(len(vector))
            return inner(vector)

        return call

    monkeypatch.setattr(unicover.realize, "havel_hakimi", counted("hh", havel_hakimi))
    monkeypatch.setattr(unicover.realize, "kleitman_wang", counted("kw", kleitman_wang))
    rng = random.Random(11)
    n, m = 200, 260
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    graph = SimpleGraph(n, rng.sample(pairs, m))
    forced = 0
    for h in (1, 2, 3):
        calls["hh"].clear()
        calls["kw"].clear()
        trees = neighborhood_collection(graph, h)
        table = build_table(trees, h)
        realize_neighborhood(trees, h)
        multi = [vertices for _, vertices, counts in _pairs(table) if sum(a for a, _ in counts) > 1]
        forced += len(_pairs(table)) - len(multi)
        assert calls["hh"] == [len(table.supports[e]) for e in _diagonal(table)]
        assert calls["kw"] == [len(vertices) for vertices in multi]
        assert calls["hh"] or calls["kw"]
        assert max(calls["hh"] + calls["kw"]) < n
    assert forced


def test_realize_table_validates_no_graph_and_runs_kleitman_wang_per_multi_arc_pair(monkeypatch):
    # glue checks each part once; no realizer builds a graph, and the union
    # is built once without a second validation.
    kw_calls, validated = [], []

    def counted(pairs):
        kw_calls.append(pairs)
        return kleitman_wang(pairs)

    def validating_init(graph, *args):
        validated.append(graph)
        init(graph, *args)

    init = SimpleGraph.__init__
    rng = random.Random(3)
    pairs = [(u, v) for u in range(300) for v in range(u + 1, 300)]
    table = build_table(neighborhood_collection(SimpleGraph(300, rng.sample(pairs, 400)), 3), 3)
    monkeypatch.setattr(unicover.realize, "kleitman_wang", counted)
    monkeypatch.setattr(SimpleGraph, "__init__", validating_init)
    multi = [counts for _, _, counts in _pairs(table) if sum(a for a, _ in counts) > 1]
    assert 0 < len(multi) < len(_pairs(table)) and _diagonal(table)
    graph = realize_table(table)
    assert kw_calls == multi
    assert validated == []
    monkeypatch.undo()
    assert graph == realize_parts(table)


def test_forced_arcs_are_the_ones_kleitman_wang_picks():
    for counts, arcs in unicover.realize._FORCED.items():
        assert kleitman_wang(counts) == list(arcs)


def _assert_same_graph(table):
    got, want = realize_table(table), realize_parts(table)
    assert (got.n, got.edges, got.adj) == (want.n, want.edges, want.adj)


def test_realize_table_matches_the_part_by_part_reference_on_random_graphs():
    rng = random.Random(23)
    for n, m in ((1, 0), (12, 15), (60, 90), (150, 200), (150, 600)):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graph = SimpleGraph(n, rng.sample(pairs, m))
        for h in (1, 2, 3, 4):
            table = build_table(neighborhood_collection(graph, h), h)
            assert check_neighborhood(table).graphical
            _assert_same_graph(table)


def test_realize_table_matches_the_part_by_part_reference_on_the_golden_corpus():
    realizable = 0
    for case in json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8")):
        forest = Forest()
        roots = [t for _, t in iter_collection(case["trees"].splitlines(), forest=forest)]
        depth = max(1, max([forest.depths[t] for t in roots], default=0))
        table = table_from_ids(forest, roots, depth)
        if check_neighborhood(table).graphical:
            realizable += 1
            _assert_same_graph(table)
    assert realizable > 50


def _random_collection(rng: random.Random, n: int, h: int) -> list[unicover.RootedTree]:
    """A harvest, a mutated harvest, balls drawn from several graphs, or random trees, all of depth <= h."""
    harvest = neighborhood_collection(random_graph(rng, n, rng.random()), h)
    kind = rng.randrange(4)
    if kind == 1:
        for _ in range(rng.randrange(1, 4)):
            harvest = mutate_collection(harvest, rng)
    elif kind == 2:
        pool = harvest + neighborhood_collection(random_graph(rng, n, rng.random()), h)
        harvest = [rng.choice(pool) for _ in range(n)]
    elif kind == 3:
        harvest = [truncate(random_tree(rng, rng.randrange(1, 8)), h) for _ in range(n)]
    return harvest


def test_parts_never_collide_on_tables_built_from_any_trees():
    # realize.py's argument: no vertex is on both sides of an inverse pair or
    # in two diagonal types, so every accepted table realizes without a collision.
    rng = random.Random(31)
    accepted = 0
    for _ in range(600):
        n, h = rng.randrange(1, 13), rng.randrange(1, 5)
        forest = Forest()
        roots = list(forest.intern(_random_collection(rng, n, h)))
        table = table_from_ids(forest, roots, h)
        diagonal_vertices: list[int] = []
        for etype, (vertices, counts) in table.plan.items():
            if etype.near == etype.far:
                diagonal_vertices += vertices
            else:
                assert all(0 in pair for pair in counts), (etype, counts)
        assert len(diagonal_vertices) == len(set(diagonal_vertices))
        if check_neighborhood(table).graphical:
            accepted += 1
            graph = realize_table(table)
            assert first_difference(ball_ids(forest, graph, h), roots) is None
    assert accepted > 150


def test_trusted_graph_constructor_matches_the_validating_one():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randrange(0, 30)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, rng.randrange(len(pairs) + 1))
        trusted, checked = SimpleGraph._from_checked(n, edges), SimpleGraph(n, edges)
        assert (trusted.n, trusted.edges, trusted.adj) == (checked.n, checked.edges, checked.adj)
        assert trusted == checked


def _doctored_tables():
    """Tables whose plans were changed after building or made by hand, one fault each."""
    path = _path_table()
    [(rep, (_, counts))] = path.plan.items()
    for bad in ((0, 0, 2), (2, 1, 0), (0, 1, 3), (-1, 0, 1)):
        yield _doctored(path, plan={rep: (bad, counts)})
    yield _table(4, {DIAG: ((1, 1), (1, 1))})
    yield _table(3, {DIAG: ((0, 1), (1, 1)), DIAG2: ((0, 1), (1, 1))})
    yield _table(2, {SKEW: ((0, 1), ((1, 1), (1, 1)))})


def test_a_vertex_on_both_sides_of_a_pair_is_refused_as_a_bug():
    # No table built from trees has one (see test_parts_never_collide_on_tables_built_from_any_trees).
    with pytest.raises(InternalInvariantError, match="a vertex on both sides"):
        check_neighborhood(_table(2, {SKEW: ((0, 1), ((1, 1), (1, 1)))}))
    with pytest.raises(InternalInvariantError, match="a vertex is on both sides"):
        kleitman_wang(((1, 1), (1, 1)))


def test_placer_refuses_a_loop_or_an_end_off_the_part():
    table = _path_table()
    for arcs in ([(0, 1), (1, 1)], [(0, 1), (2, 3)], [(-1, 1)]):
        with pytest.raises(InternalInvariantError, match="loop or leaves its 3 vertices"):
            glue(table, [arcs])


def _raised(call, *args):
    with pytest.raises(Exception) as err:
        call(*args)
    return type(err.value), str(err.value)


def test_realize_table_refuses_doctored_tables_as_glue_did():
    for table in _doctored_tables():
        got, want = _raised(realize_table, table), _raised(realize_parts, table)
        assert got == want
        # A fault of the table is a bug, never a ValueError.
        assert issubclass(got[0], InternalInvariantError), got
