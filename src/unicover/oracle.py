"""Brute-force ground truth for small instances.

Everything here is deliberately dumb: enumerate every labeled graph (or
loopless digraph) below a hard size cap, harvest cover-ball collections, and
compare the checker and realizer against exhaustive search.  Negative cases
come from mutating realizable collections rather than sampling random
tuples, because random tuples are almost always rejected for trivial parity
or balance reasons and never probe the deeper inequalities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Sequence

from .edge_types import build_table
from .errors import SizeError, UnicoverError
from .graphs import Digraph, SimpleGraph
from .realize import realize_neighborhood
from .sequences import check_neighborhood
from .trees import RootedTree, canonical_code, canonicalize
from .trees import depth as tree_depth
from .unfold import neighborhood_collection, verify_realization

__all__ = [
    "MAX_GRAPH_VERTICES",
    "MAX_DIGRAPH_VERTICES",
    "Disagreement",
    "OracleReport",
    "enumerate_graphs",
    "enumerate_digraphs",
    "exists_realization_bruteforce",
    "mutate_collection",
    "cross_validate",
]

# 2^(n(n-1)/2) labeled graphs; about 2.1 million at the cap.
MAX_GRAPH_VERTICES = 7
# 2^(n(n-1)) loopless digraphs; 4096 at the cap.
MAX_DIGRAPH_VERTICES = 4


def enumerate_graphs(n: int) -> Iterator[SimpleGraph]:
    """Every labeled simple graph on n vertices, exactly once."""
    if not 0 <= n <= MAX_GRAPH_VERTICES:
        raise SizeError(f"graph enumeration supports 0 <= n <= {MAX_GRAPH_VERTICES}, got {n}")
    slots = list(combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        yield SimpleGraph(n, (e for i, e in enumerate(slots) if mask >> i & 1))


def enumerate_digraphs(n: int) -> Iterator[Digraph]:
    """Every labeled loopless digraph on n vertices, exactly once."""
    if not 0 <= n <= MAX_DIGRAPH_VERTICES:
        raise SizeError(f"digraph enumeration supports 0 <= n <= {MAX_DIGRAPH_VERTICES}, got {n}")
    slots = [(u, v) for u in range(n) for v in range(n) if u != v]
    for mask in range(1 << len(slots)):
        yield Digraph(n, (a for i, a in enumerate(slots) if mask >> i & 1))


def exists_realization_bruteforce(
    trees: Sequence[RootedTree], depth: int
) -> SimpleGraph | None:
    """First enumerated graph whose balls match `trees` index by index.

    Because the scan covers every labeling, an index-by-index hit exists
    exactly when some graph realizes the collection as a multiset.
    """
    n = len(trees)
    if n > MAX_GRAPH_VERTICES:
        raise SizeError(f"brute force supports at most {MAX_GRAPH_VERTICES} trees, got {n}")
    # From depth 1 on, a ball's root degree is its vertex's degree, so graphs
    # with another degree sequence are skipped before unfolding.
    root_degrees = tuple(len(t.children) for t in trees) if depth >= 1 else None
    for graph in enumerate_graphs(n):
        if root_degrees is not None and graph.degree_sequence() != root_degrees:
            continue
        if verify_realization(graph, trees, depth):
            return graph
    return None


# ---------------------------------------------------------------------------
# Mutations: small edits of a realizable collection that land near the
# feasibility boundary.
# ---------------------------------------------------------------------------


def _drop_deepest_leaf(tree: RootedTree, rng: random.Random) -> RootedTree:
    """Remove one uniformly chosen node at maximal depth, recanonicalized."""
    target = tree_depth(tree)
    total = 0
    stack = [(tree, 0)]
    while stack:
        node, d = stack.pop()
        if d == target:
            total += 1
        stack.extend((c, d + 1) for c in node.children)
    chosen = rng.randrange(total)
    seen = 0

    def rebuild(node: RootedTree, d: int) -> RootedTree | None:
        nonlocal seen
        if d == target:
            seen += 1
            return None if seen - 1 == chosen else node
        kept = []
        for child in node.children:
            result = rebuild(child, d + 1)
            if result is not None:
                kept.append(result)
        return RootedTree(tuple(kept))

    rebuilt = rebuild(tree, 0)
    assert rebuilt is not None  # target >= 1 whenever this runs, so the root survives
    return canonicalize(rebuilt)


def mutate_collection(trees: Sequence[RootedTree], rng: random.Random) -> list[RootedTree]:
    """One random mutation of the collection (same length, depths never grow).

    Operators: move one entry to a different isomorphism class already
    present; overwrite one entry with a copy of another; drop one deepest
    leaf from some tree.  Returns an unchanged copy if no operator applies
    (single-class singleton collections of leaves).
    """
    out = list(trees)
    n = len(out)
    codes = [canonical_code(t) for t in out]
    ops = []
    if len(set(codes)) >= 2:
        ops.append("reassign")
    if n >= 2:
        ops.append("duplicate")
    if any(t.children for t in out):
        ops.append("drop_leaf")
    if not ops:
        return out
    op = rng.choice(ops)
    if op == "reassign":
        i = rng.choice([i for i in range(n) if any(c != codes[i] for c in codes)])
        j = rng.choice([j for j in range(n) if codes[j] != codes[i]])
        out[i] = out[j]
    elif op == "duplicate":
        i = rng.randrange(n)
        j = rng.choice([j for j in range(n) if j != i])
        out[i] = out[j]
    else:
        i = rng.choice([i for i, t in enumerate(out) if t.children])
        out[i] = _drop_deepest_leaf(out[i], rng)
    return out


# ---------------------------------------------------------------------------
# Cross-validation of checker and realizer against exhaustive search.
# ---------------------------------------------------------------------------


@dataclass
class Disagreement:
    collection: tuple[str, ...]
    checker: bool
    oracle: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "collection": list(self.collection),
            "checker": self.checker,
            "oracle": self.oracle,
            "detail": self.detail,
        }


@dataclass
class OracleReport:
    """Outcome of one cross-validation run.

    `disagreements` holds every case that failed certification, including
    realizations that did not verify even though both verdicts agreed (the
    detail string says which); the run is clean iff the list is empty.
    """

    n: int
    depth: int
    cases_total: int = 0
    agreements: int = 0
    disagreements: list[Disagreement] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "h": self.depth,
            "cases_total": self.cases_total,
            "agreements": self.agreements,
            "disagreements": [d.to_json_dict() for d in self.disagreements],
        }


def _pipeline_realizes(trees: Sequence[RootedTree], depth: int) -> tuple[bool, str]:
    try:
        graph = realize_neighborhood(trees, depth)
    except UnicoverError as exc:
        return False, f"realize raised {type(exc).__name__}: {exc}"
    if not verify_realization(graph, trees, depth):
        return False, "realization failed per-index verification"
    return True, ""


def cross_validate(n: int, depth: int, mutants_per_case: int = 3, seed: int = 0) -> OracleReport:
    """Replay checker and realizer against brute force at size (n, depth).

    Positive direction: the harvested collection of every enumerated graph
    must check graphical and realize to a graph that verifies per index.
    Negative direction: for each harvest, `mutants_per_case` mutants must get
    the same checker verdict as exhaustive search over all labeled graphs
    (existence is decided on sorted code tuples, which covers every index
    assignment because the enumeration covers every labeling); mutants that
    both sides accept must also realize and verify.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rng = random.Random(seed)
    report = OracleReport(n=n, depth=depth)
    realizable: set[tuple[str, ...]] = set()
    harvests: list[list[RootedTree]] = []

    for graph in enumerate_graphs(n):
        trees = neighborhood_collection(graph, depth)
        codes = tuple(canonical_code(t) for t in trees)
        harvests.append(trees)
        realizable.add(tuple(sorted(codes)))
        report.cases_total += 1
        verdict = check_neighborhood(build_table(trees, depth)).graphical
        if not verdict:
            report.disagreements.append(
                Disagreement(codes, False, True, "checker rejected a harvested collection")
            )
            continue
        ok, detail = _pipeline_realizes(trees, depth)
        if not ok:
            report.disagreements.append(Disagreement(codes, True, True, detail))

    for trees in harvests:
        for _ in range(mutants_per_case):
            mutant = mutate_collection(trees, rng)
            codes = tuple(canonical_code(t) for t in mutant)
            report.cases_total += 1
            verdict = check_neighborhood(build_table(mutant, depth)).graphical
            truth = tuple(sorted(codes)) in realizable
            if verdict != truth:
                report.disagreements.append(Disagreement(codes, verdict, truth, "mutant"))
                continue
            if verdict:
                ok, detail = _pipeline_realizes(mutant, depth)
                if not ok:
                    report.disagreements.append(Disagreement(codes, True, True, detail))

    report.agreements = report.cases_total - len(report.disagreements)
    return report
