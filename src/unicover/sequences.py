"""Graphicality of degree sequences and the per-type verdict.

The subsum test (Erdős–Gallai) decides plain degree sequences of simple
graphs, and Gale–Ryser's test the (out, in) counts of an inverse pair,
which in a table built from trees have no vertex on both sides (the
argument is in :mod:`unicover.realize`).  :func:`check_neighborhood`
applies them to every entry of a typed degree table.

Both tests return the smallest violated index k.  Up to the number of
sources, Gale–Ryser's k-th inequality is Fulkerson–Chen–Anstee's for
loopless digraphs, and Gale–Ryser is sufficient, so k is the digraph
test's.  A support of s vertices costs O(s log s) in either test (the sorts).
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate
from operator import index
from typing import NamedTuple, Sequence

from .edge_types import EdgeType, TypedDegreeTable
from .errors import InternalInvariantError

__all__ = [
    "FailureKind",
    "FailureRecord",
    "Verdict",
    "erdos_gallai",
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
    A non-int degree (by :func:`operator.index`) raises TypeError.
    """
    seq = list(map(index, degrees))
    if seq and min(seq) < 0:
        raise ValueError("degrees must be non-negative")
    if sum(seq) % 2 == 1:
        return False, 0
    if seq and max(seq) > len(seq) - 1:
        return False, 0
    k = _first_subsum_violation(seq)
    return k is None, k


def _first_bipartite_violation(counts: Sequence[tuple[int, int]]) -> int | None:
    """Smallest k with sum of the k largest out-counts > sum of min(in, k) over the in-counts.

    Gale–Ryser's k-th inequality, for `counts` with no vertex on both sides.
    The in-counts >= k are a prefix of the sorted in-counts whose end only
    moves down, so the scan after the sorts is O(s).
    """
    outs = sorted((a for a, _ in counts if a), reverse=True)
    ins = sorted((b for _, b in counts if b), reverse=True)
    lhs = capped = 0
    p = len(ins)  # ins[:p] holds the in-counts >= k
    for k, a in enumerate(outs, 1):
        while p and ins[p - 1] < k:
            p -= 1
        lhs += a
        capped += p
        if lhs > capped:
            return k
    return None


def check_neighborhood(table: TypedDegreeTable) -> Verdict:
    """Apply the per-type conditions to a table, collecting every failure.

    Each entry of the table's plan is tested in plan order: a diagonal
    type's counts must be graphical (an odd total is reported as its own
    failure kind), and an inverse pair's (out, in) counts the degrees of a
    bipartite graph (unequal totals likewise get their own kind).  Failures
    are collected exhaustively, never short-circuited.  Each type is tested
    on its support only: vertices with no edges of the type cannot change
    the verdict or the witness.  A support of s vertices costs O(s log s).
    A pair entry with a vertex on both sides, which no table built from
    trees has, raises InternalInvariantError.
    """
    failures: list[FailureRecord] = []
    for etype, (_, counts) in table.plan.items():
        if etype.near == etype.far:
            if sum(counts) % 2 == 1:
                failures.append(FailureRecord(etype, FailureKind.ODD_DIAGONAL_SUM))
                continue
            kind, k = FailureKind.EG_VIOLATION, _first_subsum_violation(counts)
        else:
            if any(a and b for a, b in counts):
                raise InternalInvariantError(f"pair ({etype.near},{etype.far}) has a vertex on both sides")
            if sum(a for a, _ in counts) != sum(b for _, b in counts):
                failures.append(FailureRecord(etype, FailureKind.UNBALANCED_PAIR))
                continue
            kind, k = FailureKind.DIRECTED_EG_VIOLATION, _first_bipartite_violation(counts)
        if k is not None:
            failures.append(FailureRecord(etype, kind, k))
    return Verdict(graphical=not failures, failures=tuple(failures))
