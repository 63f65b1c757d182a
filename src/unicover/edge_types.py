"""Types of root-incident edges and the typed degree table.

Cutting a root edge of a depth-bounded tree leaves two pieces.  The edge's
type records both, as canonical codes: the subtree hanging below the edge,
kept at its natural depth, and the component containing the root, truncated
one level shallower than the tree bound.  The pair is directional; swapping
the two codes gives the type the same edge would have when seen from its far
endpoint.

Both pieces are computed on interned ids of a :class:`~unicover.trees.Forest`
(far = the child's id, near = the node over the other children's truncated
ids).  Each distinct type's codes, class and sort key are worked out once,
and so is the table's plan: one entry per diagonal type and per inverse
pair, the unit that the check tests and the realizer builds.

The table stores each type by its support only, the vertices with a nonzero
count, so a type costs time and memory in proportion to its support, never
to the number n of trees.  Dense length-n vectors are built on request.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

from .errors import DepthError
from .trees import CanonCode, Forest, FrozenSlots, RootedTree, code_sort_key

__all__ = [
    "TypeClass",
    "EdgeType",
    "TypedDegreeTable",
    "build_table",
    "table_from_ids",
]


class TypeClass(str, Enum):
    """Partition of edge types: diagonal, or one half of an inverse pair."""

    DIAGONAL = "diag"
    A = "A"
    B = "B"


class EdgeType(NamedTuple):
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
    truncate, low = forest.truncate, depth - 2
    cuts = [truncate(c, low) for c in child_ids]
    near: dict[int, int] = {}
    for j, c in enumerate(child_ids):
        if c not in near:
            near[c] = forest.node(cuts[:j] + cuts[j + 1 :])
    return [(near[c], c) for c in child_ids]


class TypedDegreeTable(FrozenSlots):
    """Per-vertex, per-type counts of root-incident edges.

    `supports` maps each occurring type, in sort order, to its support: the
    `(vertex, count)` pairs with a nonzero count, in vertex order.  The
    dense length-`n` vectors (`degrees`, :meth:`degree_vector`) are built
    on request only.

    `plan` is what the check tests and the realizer builds, one
    `(etype, vertices, counts)` entry per unit: first each diagonal type in
    sort order, its support split into its vertices and its counts; then
    each inverse pair in sort order, named by its A-class member whether or
    not that occurs, with the vertices where either member occurs
    (ascending) and their (out, in) counts, out being the A member's count
    and in its inverse's.  An entry is an inverse pair exactly when
    `etype.near != etype.far`.

    Immutable (see :class:`~unicover.trees.FrozenSlots`); tables compare
    and hash by identity.
    """

    __slots__ = ("n", "depth", "supports", "plan")

    def __init__(
        self,
        n: int,
        depth: int,
        supports: dict[EdgeType, tuple[tuple[int, int], ...]],
        plan: tuple[tuple[EdgeType, tuple[int, ...], tuple], ...],
    ) -> None:
        for name, value in zip(self.__slots__, (n, depth, supports, plan)):
            object.__setattr__(self, name, value)

    def occurring_types(self) -> list[EdgeType]:
        """All types with at least one edge, in deterministic order."""
        return list(self.supports)

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
                    "N": sum([c for _, c in support]),
                    "degrees": list(self.degree_vector(etype)),
                }
                for etype, support in self.supports.items()
            ],
        }


def build_table(trees: Sequence[RootedTree], depth: int) -> TypedDegreeTable:
    """Count the root-incident edges of every type across the collection.

    Raises DepthError (listing the offending indices) if any tree is deeper
    than `depth`; requires `depth` >= 1.  The trees are interned into one
    :class:`Forest` and tabulated by :func:`table_from_ids`.
    """
    forest = Forest()
    return table_from_ids(forest, list(forest.intern(trees)), depth)


def table_from_ids(forest: Forest, roots: Sequence[int], depth: int) -> TypedDegreeTable:
    """:func:`build_table` for the trees with ids `roots` in `forest`.

    Costs O(n + root edges + types log types): each type's support is built
    from its own edges, never as a length-`n` vector.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
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
    codes, keys = forest.codes, forest.keys
    etypes = {pair: EdgeType(codes[pair[0]], codes[pair[1]]) for pair in support}
    order = sorted(support, key=lambda p: (keys[p[0]], keys[p[1]]))
    supports = {etypes[p]: tuple(support[p]) for p in order}
    # A diagonal type's support is never empty, so it splits into two tuples.
    plan = [(etypes[p], *zip(*supports[etypes[p]])) for p in order if p[0] == p[1]]
    # An inverse pair is named by its A-class member, whether or not it occurs.
    reps = sorted(
        {(near, far) if keys[near] < keys[far] else (far, near) for near, far in order if near != far},
        key=lambda p: (keys[p[0]], keys[p[1]]),
    )
    for near, far in reps:
        out = dict(support.get((near, far), ()))
        inn = dict(support.get((far, near), ()))
        vertices = tuple(sorted(out.keys() | inn.keys()))
        rep = etypes.get((near, far)) or EdgeType(codes[near], codes[far])
        plan.append((rep, vertices, tuple((out.get(v, 0), inn.get(v, 0)) for v in vertices)))
    return TypedDegreeTable(len(roots), depth, supports, tuple(plan))
