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

The table stores each type by its support only, the vertices with a nonzero
count, so a type costs time and memory in proportion to its support, never
to the number n of trees.  Dense length-n vectors are built on request.
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
    "pair_support",
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

    `supports` maps each occurring type to its support: the `(vertex,
    count)` pairs with a nonzero count, in vertex order.  `totals` holds the
    count sums; `degree_seq` is the plain root-degree sequence (the row sums
    over types).  The dense length-`n` vectors (`degrees`,
    :meth:`degree_vector`) are built on request only.
    """

    n: int
    depth: int
    supports: dict[EdgeType, tuple[tuple[int, int], ...]]
    totals: dict[EdgeType, int]
    degree_seq: tuple[int, ...]

    def occurring_types(self) -> list[EdgeType]:
        """All types with at least one edge, in deterministic order."""
        return sorted(self.supports, key=EdgeType.sort_key)

    def degree_vector(self, etype: EdgeType) -> tuple[int, ...]:
        """Length-`n` count vector for `etype`; all zeros if the type never occurs."""
        vec = [0] * self.n
        for v, count in self.supports.get(etype, ()):
            vec[v] = count
        return tuple(vec)

    @property
    def degrees(self) -> dict[EdgeType, tuple[int, ...]]:
        """Every occurring type's length-`n` count vector, built afresh on each access."""
        return {etype: self.degree_vector(etype) for etype in self.supports}

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
                    "degrees": list(self.degree_vector(etype)),
                }
                for etype in self.occurring_types()
            ],
        }


def build_table(trees: Sequence[RootedTree], depth: int) -> TypedDegreeTable:
    """Count the root-incident edges of every type across the collection.

    Raises DepthError (listing the offending indices) if any tree is deeper
    than `depth`; requires `depth` >= 1.  The trees are interned into one
    :class:`Forest`, so each distinct subtree is handled once and each
    distinct type's codes are looked up once.  Apart from the interning,
    the cost is O(n + root edges + types log types): each type's support is
    built from its own edges, never as a length-`n` vector.
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
    counts_of: dict[int, dict[tuple[int, int], int]] = {}
    support: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, root in enumerate(roots):
        counts = counts_of.get(root)
        if counts is None:
            counts = counts_of[root] = {}
            for pair in _edge_pairs(forest, forest.kids[root], depth):
                counts[pair] = counts.get(pair, 0) + 1
        for pair, count in counts.items():
            entries = support.get(pair)
            if entries is None:
                entries = support[pair] = []
            entries.append((i, count))
    codes = forest.codes
    typed = sorted(
        ((EdgeType(near=codes[near], far=codes[far]), entries) for (near, far), entries in support.items()),
        key=lambda item: item[0].sort_key(),
    )
    supports = {etype: tuple(entries) for etype, entries in typed}
    totals = {etype: sum(c for _, c in entries) for etype, entries in supports.items()}
    degree_seq = tuple(len(forest.kids[t]) for t in roots)
    return TypedDegreeTable(
        n=len(roots), depth=depth, supports=supports, totals=totals, degree_seq=degree_seq
    )


def inverse_pairs(table: TypedDegreeTable) -> list[EdgeType]:
    """The A-class member of each inverse pair with an occurring type, sorted."""
    reps = {
        e if e.klass is TypeClass.A else e.inverse()
        for e in table.supports
        if e.klass is not TypeClass.DIAGONAL
    }
    return sorted(reps, key=EdgeType.sort_key)


def pair_support(table: TypedDegreeTable, rep: EdgeType) -> tuple[list[int], list[tuple[int, int]]]:
    """The vertices where `rep` or its inverse occurs, ascending, and their (out, in) counts.

    Costs O(s log s) for a joint support of s vertices.
    """
    out = dict(table.supports.get(rep, ()))
    inn = dict(table.supports.get(rep.inverse(), ()))
    vertices = sorted(out.keys() | inn.keys())
    return vertices, [(out.get(v, 0), inn.get(v, 0)) for v in vertices]
