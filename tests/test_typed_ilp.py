"""An exact oracle for negative verdicts past brute force: a 0/1 program over typed edges.

By the lemma the check rests on, a graph has the given depth-h balls exactly
when each vertex has, per edge type, the table's number of edges, typed
consistently at both ends.  A root edge's type is read off the canonical code
by string surgery alone: the far side is the child cut to depth h - 1, the
near side the root over the other children, each cut to depth h - 2 (at
h = 2, the star `(` + `()` x (degree - 1) + `)`), both spelled in this test's
own canonical form, `cut`.  Existence is then a 0/1 program, decided by
`scipy.optimize.milp` (HiGHS):

- a variable x(u, v, t) for u < v and t a type at u whose inverse occurs at v;
- for each vertex u and type t at u, u's variables of type t sum to its count;
- for each pair {u, v}, the variables sum to at most 1.

It uses no subsum test, no realizer, no per-type decomposition and no
truncation of the library's, so it certifies `check` on
`treegen.swapped_balls`, whose every failure is a subsum inequality, at
depths 2 and 3 and at sizes brute force cannot reach.
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


def cut(code: str, depth: int) -> str:
    """The tree of `code` cut to `depth`, every child list sorted as strings: this test's own canonical form."""
    if depth == 0:
        return "()"
    return "(" + "".join(sorted(cut(kid, depth - 1) for kid in children(code))) + ")"


def typed_edges(code: str, depth: int = 2) -> Counter:
    """The root edges of a depth-`depth` ball by type (near side, far side), each side spelled by `cut`."""
    kids = children(code)
    return Counter(
        ("(" + "".join(sorted(cut(kid, depth - 2) for kid in kids[:i] + kids[i + 1 :])) + ")", cut(far, depth - 1))
        for i, far in enumerate(kids)
    )


def realization(codes: list[str], depth: int = 2) -> SimpleGraph | None:
    """A graph whose depth-`depth` balls are `codes`, index by index, from the 0/1 program; None if it is infeasible."""
    counts = [typed_edges(code, depth) for code in codes]
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
    assert cut("((())(()()))", 1) == "(()())" and cut("((())(()()))", 2) == "((()())(()))"
    assert typed_edges("((()())(()))", 3) == Counter({("((()))", "(()())"): 1, ("((()()))", "(())"): 1})


def test_the_program_realizes_a_path_and_refuses_an_unbalanced_pair():
    for n, depth in ((4, 2), (5, 3)):
        balls = neighborhood_collection(SimpleGraph(n, list(zip(range(n), range(1, n)))), depth)
        path = [canonical_code(b) for b in balls]
        graph = realization(path, depth)
        assert graph is not None and [canonical_code(b) for b in neighborhood_collection(graph, depth)] == path
    assert realization(["(())", "((()))"]) is None


def negatives_certified(rng: random.Random, depth: int, cases: int, largest: int) -> int:
    """Put `cases` swapped collections at n = 8..`largest` to `check` and to the program; the negatives certified."""
    negatives = 0
    while cases:
        balls = swapped_balls(rng, rng.randint(8, largest), depth)
        if balls is None:
            continue
        cases -= 1
        codes = [canonical_code(ball) for ball in balls]
        verdict = check_neighborhood(build_table(balls, depth))
        graph = realization(codes, depth)
        assert (graph is not None) == verdict.graphical, codes
        if graph is not None:
            assert [canonical_code(ball) for ball in neighborhood_collection(graph, depth)] == codes
        else:
            assert {f.kind for f in verdict.failures} <= SUBSUM, verdict
            negatives += 1
    return negatives


def test_the_program_agrees_with_check_on_swapped_balls_past_brute_force():
    assert negatives_certified(random.Random(3), 2, 300, 40) >= 50


def test_the_program_agrees_with_check_on_swapped_balls_at_depth_three():
    assert negatives_certified(random.Random(3), 3, 400, 24) >= 50
