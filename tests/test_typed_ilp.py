"""An exact oracle for negative verdicts past brute force: a 0/1 program over typed edges.

By the lemma the check rests on, a graph has the given depth-h balls exactly
when each vertex has, per edge type, the table's number of edges, typed
consistently at both ends.  At h = 2 a root edge's type is read off the
canonical codes by string surgery alone: the near side is the root's star
`(` + `()` x (degree - 1) + `)`, the far side the child's code.  Existence is
then a 0/1 program, decided by `scipy.optimize.milp` (HiGHS):

- a variable x(u, v, t) for u < v and t a type at u whose inverse occurs at v;
- for each vertex u and type t at u, u's variables of type t sum to its count;
- for each pair {u, v}, the variables sum to at most 1.

It uses no subsum test, no realizer and no per-type decomposition, so it
certifies `check` on `treegen.swapped_balls`, whose every failure is a subsum
inequality, at sizes brute force cannot reach.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from treegen import swapped_balls
from unicover import FailureKind, SimpleGraph, build_table, canonical_code, check_neighborhood, neighborhood_collection

optimize = pytest.importorskip("scipy.optimize")
np = pytest.importorskip("numpy")

SUBSUM = {FailureKind.EG_VIOLATION, FailureKind.DIRECTED_EG_VIOLATION}


def children(code: str) -> list[str]:
    """The codes of the root's children, in the order `code` spells them."""
    kids, depth, start = [], 0, 1
    for i, char in enumerate(code[1:-1], 1):
        depth += 1 if char == "(" else -1
        if depth == 0:
            kids.append(code[start : i + 1])
            start = i + 1
    return kids


def typed_edges(code: str) -> Counter:
    """The root edges of a depth-2 ball by type (near side, far side)."""
    kids = children(code)
    near = "(" + "()" * (len(kids) - 1) + ")"
    return Counter((near, far) for far in kids)


def realization(codes: list[str]) -> SimpleGraph | None:
    """A graph whose depth-2 balls are `codes`, index by index, from the 0/1 program; None if it is infeasible."""
    counts = [typed_edges(code) for code in codes]
    n = len(codes)
    rows = {(u, t): i for i, (u, t) in enumerate((u, t) for u in range(n) for t in counts[u])}
    cells = [
        (u, v, t) for u in range(n) for v in range(u + 1, n) for t in counts[u] if (t[1], t[0]) in counts[v]
    ]
    pairs = {uv: len(rows) + i for i, uv in enumerate(sorted({(u, v) for u, v, _ in cells}))}
    if not cells:
        return SimpleGraph(n, []) if not rows else None
    matrix = np.zeros((len(rows) + len(pairs), len(cells)))
    for j, (u, v, t) in enumerate(cells):
        matrix[rows[u, t], j] = matrix[rows[v, (t[1], t[0])], j] = matrix[pairs[u, v], j] = 1
    wanted = [counts[u][t] for u, t in rows]
    result = optimize.milp(
        np.zeros(len(cells)),
        integrality=np.ones(len(cells)),
        bounds=optimize.Bounds(0, 1),
        constraints=optimize.LinearConstraint(matrix, wanted + [0] * len(pairs), wanted + [1] * len(pairs)),
    )
    assert result.status in (0, 2), result.message  # solved, or proved infeasible
    if result.status == 2:
        return None
    return SimpleGraph(n, [(u, v) for (u, v, _), x in zip(cells, result.x) if x > 0.5])


def test_children_and_types_by_string_surgery():
    assert children("(()(())((())()))") == ["()", "(())", "((())())"]
    assert typed_edges("((())(()))") == Counter({("(())", "(())"): 2})
    assert typed_edges("(()(()))") == Counter({("(())", "()"): 1, ("(())", "(())"): 1})


def test_the_program_realizes_a_path_and_refuses_an_unbalanced_pair():
    path = [canonical_code(b) for b in neighborhood_collection(SimpleGraph(4, [(0, 1), (1, 2), (2, 3)]), 2)]
    graph = realization(path)
    assert graph is not None and [canonical_code(b) for b in neighborhood_collection(graph, 2)] == path
    assert realization(["(())", "((()))"]) is None


def test_the_program_agrees_with_check_on_swapped_balls_past_brute_force():
    rng = random.Random(3)
    cases = negatives = 0
    while cases < 300:
        balls = swapped_balls(rng, rng.randint(8, 40))
        if balls is None:
            continue
        cases += 1
        codes = [canonical_code(ball) for ball in balls]
        verdict = check_neighborhood(build_table(balls, 2))
        graph = realization(codes)
        assert (graph is not None) == verdict.graphical, codes
        if graph is not None:
            assert [canonical_code(ball) for ball in neighborhood_collection(graph, 2)] == codes
        else:
            assert {f.kind for f in verdict.failures} <= SUBSUM, verdict
            negatives += 1
    assert negatives >= 50
