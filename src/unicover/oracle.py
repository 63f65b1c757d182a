"""Brute-force ground truth for small instances.

Everything here is deliberately dumb: enumerate every labeled graph below
a hard size cap, harvest cover-ball collections, and compare the checker
and realizer against exhaustive search.  Negative cases
come from mutating realizable collections rather than sampling random
tuples, because random tuples are almost always rejected for trivial parity
or balance reasons and never probe the deeper inequalities.

Each call works on root ids in one :class:`~unicover.trees.Forest`, where
equal ids are isomorphic trees, so a multiset of trees is a sorted id tuple;
code strings are read only for reports.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

from .edge_types import table_from_ids
from .errors import SizeError, UnicoverError
from .graphs import SimpleGraph
from .realize import realize_table
from .sequences import check_neighborhood
from .trees import Forest, RootedTree
from .unfold import ball_ids, first_difference

__all__ = [
    "MAX_GRAPH_VERTICES",
    "Disagreement",
    "OracleReport",
    "enumerate_graphs",
    "exists_realization_bruteforce",
    "mutate_collection",
    "cross_validate",
]

# 2^(n(n-1)/2) labeled graphs; about 2.1 million at the cap.
MAX_GRAPH_VERTICES = 7


def enumerate_graphs(n: int) -> Iterator[SimpleGraph]:
    """Every labeled simple graph on n vertices, exactly once."""
    if not 0 <= n <= MAX_GRAPH_VERTICES:
        raise SizeError(f"graph enumeration supports 0 <= n <= {MAX_GRAPH_VERTICES}, got {n}")
    slots = list(combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        yield SimpleGraph._from_checked(n, (e for i, e in enumerate(slots) if mask >> i & 1))


def exists_realization_bruteforce(trees: Sequence[RootedTree], depth: int) -> SimpleGraph | None:
    """First enumerated graph whose balls match `trees` index by index.

    Because the scan covers every labeling, an index-by-index hit exists
    exactly when some graph realizes the collection as a multiset.
    """
    n = len(trees)
    if n > MAX_GRAPH_VERTICES:
        raise SizeError(f"brute force supports at most {MAX_GRAPH_VERTICES} trees, got {n}")
    forest = Forest()
    roots = list(forest.intern(trees))
    # From depth 1 on, a ball's root degree is its vertex's degree, so graphs
    # with another degree sequence are skipped before unfolding.
    root_degrees = tuple(len(forest.kids[t]) for t in roots) if depth >= 1 else None
    for graph in enumerate_graphs(n):
        if root_degrees is not None and graph.degree_sequence() != root_degrees:
            continue
        if first_difference(ball_ids(forest, graph, depth), roots) is None:
            return graph
    return None


# ---------------------------------------------------------------------------
# Mutations: small edits of a realizable collection that land near the
# feasibility boundary.
# ---------------------------------------------------------------------------


def _drop_deepest_leaf(forest: Forest, tid: int, rng: random.Random) -> int:
    """Id of tree `tid` less one uniformly chosen node at maximal depth.

    The deepest nodes are numbered in pre-order over `forest.kids`, the
    canonical child order, so a given rng draw always drops the same node.
    The tree must have a child.
    """
    # Pre-order walk: (id, depth, index of the parent) of every node.
    order: list[tuple[int, int, int]] = []
    stack = [(tid, 0, -1)]
    while stack:
        t, d, parent = stack.pop()
        stack.extend((c, d + 1, len(order)) for c in reversed(forest.kids[t]))
        order.append((t, d, parent))
    deepest = [i for i, (_, d, _) in enumerate(order) if d == forest.depths[tid]]
    i = deepest[rng.randrange(len(deepest))]
    # Only the dropped node's ancestors change; rebuild them bottom-up, each
    # with one copy of the old child replaced by the new one (none at first).
    new: list[int] = []
    while i > 0:
        t, _, parent = order[i]
        kids = list(forest.kids[order[parent][0]])
        kids.remove(t)
        new = [forest.node(kids + new)]
        i = parent
    return new[0]


def _mutate(forest: Forest, roots: Sequence[int], rng: random.Random) -> list[int]:
    """:func:`mutate_collection` on root ids in `forest`."""
    out = list(roots)
    n = len(out)
    ops = []
    if len(set(out)) >= 2:
        ops.append("reassign")
    if n >= 2:
        ops.append("duplicate")
    if any(forest.kids[t] for t in out):
        ops.append("drop_leaf")
    if not ops:
        return out
    op = rng.choice(ops)
    if op == "reassign":
        i = rng.choice([i for i in range(n) if any(t != out[i] for t in out)])
        j = rng.choice([j for j in range(n) if out[j] != out[i]])
        out[i] = out[j]
    elif op == "duplicate":
        i = rng.randrange(n)
        j = rng.choice([j for j in range(n) if j != i])
        out[i] = out[j]
    else:
        i = rng.choice([i for i, t in enumerate(out) if forest.kids[t]])
        out[i] = _drop_deepest_leaf(forest, out[i], rng)
    return out


def mutate_collection(trees: Sequence[RootedTree], rng: random.Random) -> list[RootedTree]:
    """One random mutation of the collection (same length, depths never grow).

    Operators: move one entry to a different isomorphism class already
    present; overwrite one entry with a copy of another; drop one deepest
    leaf from some tree.  Returns an unchanged copy if no operator applies
    (single-class singleton collections of leaves).  Trees come back, and
    deepest leaves are numbered, in canonical child order.
    """
    forest = Forest()
    return [forest.tree(t) for t in _mutate(forest, list(forest.intern(trees)), rng)]


# ---------------------------------------------------------------------------
# Cross-validation of checker and realizer against exhaustive search.
# ---------------------------------------------------------------------------


class Disagreement(NamedTuple):
    collection: tuple[str, ...]
    checker: bool
    oracle: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "collection": list(self.collection)}


class OracleReport(NamedTuple):
    """Outcome of one cross-validation run.

    `disagreements` holds every case that failed certification, including
    realizations that did not verify even though both verdicts agreed (the
    detail string says which); the run is clean iff the list is empty.
    """

    n: int
    depth: int
    cases_total: int
    agreements: int
    disagreements: tuple[Disagreement, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "h": self.depth,
            "cases_total": self.cases_total,
            "agreements": self.agreements,
            "disagreements": [d.to_json_dict() for d in self.disagreements],
        }


def _judge(forest: Forest, roots: Sequence[int], depth: int, truth: bool, why: str) -> Disagreement | None:
    """One case: a verdict other than `truth` (as `why`) or a failed realization, else None."""
    table = table_from_ids(forest, roots, depth)
    verdict = check_neighborhood(table).graphical
    detail = why if verdict != truth else ""
    if verdict and not detail:
        try:
            graph = realize_table(table)
        except UnicoverError as exc:
            detail = f"realize raised {type(exc).__name__}: {exc}"
        else:
            if first_difference(ball_ids(forest, graph, depth), roots) is not None:
                detail = "realization failed per-index verification"
    return Disagreement(tuple(forest.codes[t] for t in roots), verdict, truth, detail) if detail else None


def cross_validate(n: int, depth: int, mutants_per_case: int = 3, seed: int = 0) -> OracleReport:
    """Replay checker and realizer against brute force at size (n, depth).

    Positive direction: the harvested collection of every enumerated graph
    must check graphical and realize to a graph that verifies per index.
    Negative direction: for each harvest, `mutants_per_case` mutants must get
    the same checker verdict as exhaustive search over all labeled graphs
    (existence is decided on sorted id tuples in the run's one Forest, which
    covers every index assignment because the enumeration covers every
    labeling); mutants that both sides accept must also realize and verify.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rng = random.Random(seed)
    forest = Forest()
    harvests = [ball_ids(forest, graph, depth) for graph in enumerate_graphs(n)]
    realizable = {tuple(sorted(roots)) for roots in harvests}
    why = "checker rejected a harvested collection"
    outcomes = [_judge(forest, roots, depth, True, why) for roots in harvests]
    for roots in harvests:
        for _ in range(mutants_per_case):
            mutant = _mutate(forest, roots, rng)
            outcomes.append(_judge(forest, mutant, depth, tuple(sorted(mutant)) in realizable, "mutant"))
    bad = tuple(d for d in outcomes if d is not None)
    return OracleReport(n, depth, len(outcomes), len(outcomes) - len(bad), bad)
