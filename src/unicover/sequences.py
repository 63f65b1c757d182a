"""Graphicality of degree sequences and the per-type verdict.

Two classical tests are implemented: the subsum test for plain degree
sequences of simple graphs, and its directed analogue for (out, in) pair
sequences of loopless digraphs (a pair (u, v) and its reverse may coexist,
but no loops and no repeated arcs).  On top of them,
:func:`check_neighborhood` decides a whole typed degree table: every
diagonal type must have a graphical count vector and every inverse pair of
non-diagonal types must have a digraphical (out, in) vector pair.

Both tests return the smallest violated index k.  A support of s vertices
costs O(s log s) in either test (the sort), so a whole table costs about
the sum of its supports times their logarithm.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate
from typing import NamedTuple, Sequence

from .edge_types import EdgeType, TypedDegreeTable

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


class FailureRecord(NamedTuple):
    """One failed condition of the plan entry named by `type_key`."""

    type_key: EdgeType
    kind: FailureKind
    witness_k: int | None = None

    def to_json_dict(self) -> dict:
        key = {"r": self.type_key.near, "s": self.type_key.far}
        return {"type": key, "kind": self.kind.value, "k": self.witness_k}


class Verdict(NamedTuple):
    """Outcome of :func:`check_neighborhood`; graphical iff no failures."""

    graphical: bool
    failures: tuple[FailureRecord, ...] = ()


def _first_subsum_violation(degrees: Sequence[int]) -> int | None:
    """Smallest k with sum of the k largest > k(k-1) + capped tail.

    k is counted over the non-increasing reordering of the positive entries
    of `degrees`; zeros can never be the first violation, since a violation
    among them implies one at the last positive entry.  With s positive
    entries this runs in O(s log s): one sort, prefix sums, and a pointer to
    the end of the entries >= k that only moves down as k grows.
    """
    desc = sorted((d for d in degrees if d > 0), reverse=True)
    s = len(desc)
    prefix = [0, *accumulate(desc)]  # prefix[j] = sum of the j largest
    p = s  # desc[:p] holds the entries >= k
    for k in range(1, s + 1):
        while p and desc[p - 1] < k:
            p -= 1
        # Past position k, the entries >= k run to position q and count k
        # each; the rest of the tail counts in full.
        q = max(k, p)
        if prefix[k] > k * (k - 1) + k * (q - k) + prefix[s] - prefix[q]:
            return k
    return None


def erdos_gallai(degrees: Sequence[int]) -> tuple[bool, int | None]:
    """Decide whether `degrees` is the degree sequence of a simple graph.

    Returns (True, None) when it is; otherwise (False, k) where k is the
    smallest 1-based index (over the non-increasing reordering) of a violated
    subsum inequality, or k = 0 for an odd sum or an entry exceeding n - 1.
    """
    seq = list(degrees)
    if seq and min(seq) < 0:
        raise ValueError("degrees must be non-negative")
    if sum(seq) % 2 == 1:
        return False, 0
    if seq and max(seq) > len(seq) - 1:
        return False, 0
    k = _first_subsum_violation(seq)
    return k is None, k


def _first_directed_violation(pairs: Sequence[tuple[int, int]]) -> int | None:
    """Smallest k violating the loopless directed subsum inequality.

    k is counted over the decreasing lexicographic (out, in) reordering of
    `pairs`.  In-degrees in the first k positions count at most k - 1 each
    (no loops), later ones at most k each.  The right side is rewritten as
    sum(min(b, k)) over all entries minus the head entries with b >= k; both
    terms follow k through count arrays over in-degree values, so the scan
    after the O(s log s) sort is O(s).
    """
    ordered = sorted(pairs, reverse=True)
    s = len(ordered)
    # In-degrees above s compare like s against every k <= s.
    count = [0] * (s + 1)
    for _, b in ordered:
        count[min(b, s)] += 1
    head = [0] * (s + 1)  # in-degree values among the first k entries
    lhs = 0
    at_least = s - count[0]  # entries with b >= k
    capped_sum = 0  # sum of min(b, k) over all entries
    head_at_least = 0  # first k entries with b >= k
    for k in range(1, s + 1):
        a, b = ordered[k - 1]
        lhs += a
        capped_sum += at_least
        at_least -= count[k]
        head_at_least -= head[k - 1]
        b = min(b, s)
        head[b] += 1
        if b >= k:
            head_at_least += 1
        if lhs > capped_sum - head_at_least:
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
    k = _first_directed_violation(plist)
    return k is None, k


def check_neighborhood(table: TypedDegreeTable) -> Verdict:
    """Apply the per-type conditions to a table, collecting every failure.

    Each entry of the table's plan is tested in plan order: a diagonal
    type's counts must be graphical (an odd total is reported as its own
    failure kind), and an inverse pair's (out, in) counts digraphical
    (unequal totals likewise get their own kind).  Failures are collected
    exhaustively, never short-circuited.  Each type is tested on its
    support only: vertices with no edges of the type cannot change the
    verdict or the witness.  A support of s vertices costs O(s log s).
    """
    failures: list[FailureRecord] = []
    for etype, (_, counts) in table.plan.items():
        if etype.near == etype.far:
            if sum(counts) % 2 == 1:
                failures.append(FailureRecord(etype, FailureKind.ODD_DIAGONAL_SUM))
                continue
            kind, k = FailureKind.EG_VIOLATION, _first_subsum_violation(counts)
        else:
            if sum(a for a, _ in counts) != sum(b for _, b in counts):
                failures.append(FailureRecord(etype, FailureKind.UNBALANCED_PAIR))
                continue
            kind, k = FailureKind.DIRECTED_EG_VIOLATION, _first_directed_violation(counts)
        if k is not None:
            failures.append(FailureRecord(etype, kind, k))
    return Verdict(graphical=not failures, failures=tuple(failures))
