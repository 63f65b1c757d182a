"""Graphicality of degree sequences and the per-type verdict.

Two classical tests are implemented: the subsum test for plain degree
sequences of simple graphs, and its directed analogue for (out, in) pair
sequences of loopless digraphs (a pair (u, v) and its reverse may coexist,
but no loops and no repeated arcs).  On top of them,
:func:`check_neighborhood` decides a whole typed degree table: every
diagonal type must have a graphical count vector and every inverse pair of
non-diagonal types must have a digraphical (out, in) vector pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .edge_types import EdgeType, TypeClass, TypedDegreeTable, inverse_pairs

__all__ = [
    "FailureKind",
    "FailureRecord",
    "Verdict",
    "erdos_gallai",
    "fulkerson_chen_anstee",
    "check_neighborhood",
]


class FailureKind(str, Enum):
    ODD_DIAGONAL_SUM = "OddDiagonalSum"
    UNBALANCED_PAIR = "UnbalancedPair"
    EG_VIOLATION = "EGViolation"
    DIRECTED_EG_VIOLATION = "DirectedEGViolation"


@dataclass(frozen=True)
class FailureRecord:
    """One failed condition; `type_key` is None for global failures."""

    type_key: EdgeType | None
    kind: FailureKind
    witness_k: int | None = None

    def to_json_dict(self) -> dict:
        key: dict | str
        if self.type_key is None:
            key = "global"
        else:
            key = {"r": self.type_key.near, "s": self.type_key.far}
        return {"type": key, "kind": self.kind.value, "k": self.witness_k}


@dataclass(frozen=True)
class Verdict:
    """Outcome of :func:`check_neighborhood`; graphical iff no failures."""

    graphical: bool
    failures: tuple[FailureRecord, ...] = ()


def _first_subsum_violation(desc: Sequence[int]) -> int | None:
    """Smallest k with sum of the k largest > k(k-1) + capped tail.

    `desc` must already be sorted non-increasing.
    """
    lhs = 0
    for k in range(1, len(desc) + 1):
        lhs += desc[k - 1]
        rhs = k * (k - 1) + sum(min(d, k) for d in desc[k:])
        if lhs > rhs:
            return k
    return None


def erdos_gallai(degrees: Sequence[int]) -> tuple[bool, int | None]:
    """Decide whether `degrees` is the degree sequence of a simple graph.

    Returns (True, None) when it is; otherwise (False, k) where k is the
    smallest 1-based index (over the non-increasing reordering) of a violated
    subsum inequality, or k = 0 for an odd sum or an entry exceeding n - 1.
    """
    seq = sorted(degrees, reverse=True)
    n = len(seq)
    if n and seq[-1] < 0:
        raise ValueError("degrees must be non-negative")
    if sum(seq) % 2 == 1:
        return False, 0
    if n and seq[0] > n - 1:
        return False, 0
    k = _first_subsum_violation(seq)
    return k is None, k


def _sorted_pairs_desc(pairs: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    # Stable, so equal pairs keep their input order and witnesses are
    # deterministic.
    return sorted(pairs, key=lambda p: (-p[0], -p[1]))


def _first_directed_violation(ordered: Sequence[tuple[int, int]]) -> int | None:
    """Smallest k violating the loopless directed subsum inequality.

    `ordered` must be sorted by decreasing (out, in).  In-degrees in the
    first k positions count at most k - 1 each (no loops), later ones at
    most k each.
    """
    lhs = 0
    for k in range(1, len(ordered) + 1):
        lhs += ordered[k - 1][0]
        rhs = sum(min(b, k - 1) for _, b in ordered[:k])
        rhs += sum(min(b, k) for _, b in ordered[k:])
        if lhs > rhs:
            return k
    return None


def fulkerson_chen_anstee(pairs: Sequence[tuple[int, int]]) -> tuple[bool, int | None]:
    """Decide whether the (out, in) pairs are realizable by a loopless digraph.

    Returns (True, None) when they are; otherwise (False, k) with k the
    smallest violated inequality index over the decreasing lexicographic
    reordering, or k = 0 when the out and in totals differ or an entry
    exceeds n - 1.
    """
    plist = [(a, b) for a, b in pairs]
    n = len(plist)
    if any(a < 0 or b < 0 for a, b in plist):
        raise ValueError("degree pairs must be non-negative")
    if sum(a for a, _ in plist) != sum(b for _, b in plist):
        return False, 0
    if n and max(max(a, b) for a, b in plist) > n - 1:
        return False, 0
    k = _first_directed_violation(_sorted_pairs_desc(plist))
    return k is None, k


def check_neighborhood(table: TypedDegreeTable) -> Verdict:
    """Apply the per-type conditions to a table, collecting every failure.

    Diagonal types must have a graphical count vector (an odd total is
    reported as its own failure kind); each inverse pair of non-diagonal
    types, keyed by its A-class member, must have a digraphical (out, in)
    pair vector (unequal totals likewise get their own kind).  Failures are
    collected exhaustively, never short-circuited.
    """
    failures: list[FailureRecord] = []
    for etype in table.occurring_types():
        if etype.klass is not TypeClass.DIAGONAL:
            continue
        # Vertices with no edges of this type cannot change the verdict or
        # the witness: zeros sort last and contribute nothing to either side
        # of any inequality that can fail first.
        support = sorted((d for d in table.degrees[etype] if d > 0), reverse=True)
        if sum(support) % 2 == 1:
            failures.append(FailureRecord(etype, FailureKind.ODD_DIAGONAL_SUM))
            continue
        k = _first_subsum_violation(support)
        if k is not None:
            failures.append(FailureRecord(etype, FailureKind.EG_VIOLATION, k))

    for rep in inverse_pairs(table):
        out_vec = table.degree_vector(rep)
        in_vec = table.degree_vector(rep.inverse())
        pairs = [p for p in zip(out_vec, in_vec) if p != (0, 0)]
        if sum(a for a, _ in pairs) != sum(b for _, b in pairs):
            failures.append(FailureRecord(rep, FailureKind.UNBALANCED_PAIR))
            continue
        k = _first_directed_violation(_sorted_pairs_desc(pairs))
        if k is not None:
            failures.append(FailureRecord(rep, FailureKind.DIRECTED_EG_VIOLATION, k))

    return Verdict(graphical=not failures, failures=tuple(failures))
