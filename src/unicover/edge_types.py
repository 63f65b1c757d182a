"""Types of root-incident edges and the typed degree table.

Cutting a root edge of a depth-bounded tree leaves two pieces.  The edge's
type records both, as canonical codes: the subtree hanging below the edge,
kept at its natural depth, and the component containing the root, truncated
one level shallower than the tree bound.  The pair is directional; swapping
the two codes gives the type the same edge would have when seen from its far
endpoint.

Both pieces are computed on interned ids of a :class:`~unicover.trees.Forest`
(far = the child's id, near = the node over the other children's truncated
ids), and the code strings of a type are looked up once per distinct type.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import DepthError
from .trees import CanonCode, Forest, RootedTree, code_sort_key

__all__ = [
    "TypeClass",
    "EdgeType",
    "TypedDegreeTable",
    "build_table",
    "inverse_pairs",
]


class TypeClass(str, Enum):
    """Partition of edge types: diagonal, or one half of an inverse pair."""

    DIAGONAL = "diag"
    A = "A"
    B = "B"


@dataclass(frozen=True)
class EdgeType:
    """Isomorphism type of a root-incident edge.

    `near` is the canonical code of the component containing the root after
    the edge is deleted, truncated one level below the tree bound; `far` is
    the code of the full subtree hanging below the edge.
    """

    near: CanonCode
    far: CanonCode

    @property
    def klass(self) -> TypeClass:
        if self.near == self.far:
            return TypeClass.DIAGONAL
        if code_sort_key(self.near) < code_sort_key(self.far):
            return TypeClass.A
        return TypeClass.B

    def inverse(self) -> "EdgeType":
        """The same edge as seen from its far endpoint."""
        return EdgeType(near=self.far, far=self.near)

    def sort_key(self) -> tuple[tuple[int, str], tuple[int, str]]:
        return (code_sort_key(self.near), code_sort_key(self.far))


def _edge_pairs(forest: Forest, child_ids: Sequence[int], depth: int) -> list[tuple[int, int]]:
    """(near id, far id) of the root edge into each child, in the given order.

    The far side is the child itself; the near side is the root with the
    other children, truncated to `depth` - 1, which is the root over the
    other children cut to `depth` - 2.  Equal children give equal pairs.
    """
    if depth == 1:
        return [(forest.leaf, c) for c in child_ids]
    cuts = [forest.truncate(c, depth - 2) for c in child_ids]
    near: dict[int, int] = {}
    for j, c in enumerate(child_ids):
        if c not in near:
            near[c] = forest.node(cuts[:j] + cuts[j + 1 :])
    return [(near[c], c) for c in child_ids]


@dataclass(frozen=True, eq=False)
class TypedDegreeTable:
    """Per-vertex, per-type counts of root-incident edges.

    `degrees` maps each occurring type to its length-`n` count vector;
    `totals` holds the vector sums; `degree_seq` is the plain root-degree
    sequence (the row sums over types).
    """

    n: int
    depth: int
    degrees: dict[EdgeType, tuple[int, ...]]
    totals: dict[EdgeType, int]
    degree_seq: tuple[int, ...]

    def occurring_types(self) -> list[EdgeType]:
        """All types with at least one edge, in deterministic order."""
        return sorted(self.degrees, key=EdgeType.sort_key)

    def degree_vector(self, etype: EdgeType) -> tuple[int, ...]:
        """Count vector for `etype`; all zeros if the type never occurs."""
        return self.degrees.get(etype, (0,) * self.n)

    def to_json_dict(self) -> dict:
        return {
            "h": self.depth,
            "n": self.n,
            "types": [
                {
                    "r": etype.near,
                    "s": etype.far,
                    "class": etype.klass.value,
                    "N": self.totals[etype],
                    "degrees": list(self.degrees[etype]),
                }
                for etype in self.occurring_types()
            ],
        }


def build_table(trees: Sequence[RootedTree], depth: int) -> TypedDegreeTable:
    """Count the root-incident edges of every type across the collection.

    Raises DepthError (listing the offending indices) if any tree is deeper
    than `depth`; requires `depth` >= 1.  The trees are interned into one
    :class:`Forest`, so each distinct subtree is handled once and each
    distinct type's codes are looked up once.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    forest = Forest()
    roots = list(forest.intern(trees))
    too_deep = tuple(i for i, t in enumerate(roots) if forest.depths[t] > depth)
    if too_deep:
        raise DepthError(
            f"trees deeper than {depth} at indices {list(too_deep)}", indices=too_deep
        )
    n = len(roots)
    pairs_of: dict[int, list[tuple[int, int]]] = {}
    counts: dict[tuple[int, int], list[int]] = {}
    for i, root in enumerate(roots):
        pairs = pairs_of.get(root)
        if pairs is None:
            pairs = pairs_of[root] = _edge_pairs(forest, forest.kids[root], depth)
        for pair in pairs:
            vec = counts.get(pair)
            if vec is None:
                vec = counts[pair] = [0] * n
            vec[i] += 1
    codes = forest.codes
    typed = sorted(
        ((EdgeType(near=codes[near], far=codes[far]), vec) for (near, far), vec in counts.items()),
        key=lambda item: item[0].sort_key(),
    )
    degrees = {etype: tuple(vec) for etype, vec in typed}
    totals = {etype: sum(vec) for etype, vec in degrees.items()}
    degree_seq = tuple(len(forest.kids[t]) for t in roots)
    return TypedDegreeTable(
        n=n, depth=depth, degrees=degrees, totals=totals, degree_seq=degree_seq
    )


def inverse_pairs(table: TypedDegreeTable) -> list[EdgeType]:
    """The A-class member of each inverse pair with an occurring type, sorted."""
    reps = {
        e if e.klass is TypeClass.A else e.inverse()
        for e in table.degrees
        if e.klass is not TypeClass.DIAGONAL
    }
    return sorted(reps, key=EdgeType.sort_key)
