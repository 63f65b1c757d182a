"""Types of root-incident edges and the typed degree table.

Cutting a root edge of a depth-bounded tree leaves two pieces.  The edge's
type records both, as canonical codes: the subtree hanging below the edge,
kept at its natural depth, and the component containing the root, truncated
one level shallower than the tree bound.  The pair is directional; swapping
the two codes gives the same edge's type as seen from its far endpoint.

Both pieces are computed on interned ids of a :class:`~unicover.trees.Forest`
(far = the child's id, near = the node over the other children's truncated
ids).  The table's one store is its plan: one entry per unit that the check
tests and the realizer builds, a diagonal type or an inverse pair.  Each
distinct tree's root edges are counted straight into their units, and an entry
lists only the vertices where its unit occurs, so a unit costs time and memory
in proportion to its support, never to the number n of trees.  Supports by type
and dense length-n vectors are views of the plan, built on request.
"""

from __future__ import annotations

from enum import Enum
from operator import index
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    """Per-vertex, per-type counts of root-incident edges, stored as the plan.

    `plan` is what the check tests and the realizer builds: it maps each
    unit's type to its `(vertices, counts)`, the vertices ascending.  First
    come the diagonal types in sort order, each with the vertices where it
    occurs and their counts.  Then come the inverse pairs in sort order,
    each named by its A-class member whether or not that occurs, with the
    vertices where either member occurs and their (out, in) counts, out
    being the A member's count and in its inverse's.  An entry is an inverse
    pair exactly when `etype.near != etype.far`.

    `supports`, `degrees` and :meth:`degree_vector` are views of the plan,
    built on request only.

    Immutable (see :class:`~unicover.trees.FrozenSlots`); tables compare
    and hash by identity.
    """

    __slots__ = ("n", "depth", "plan")

    def __init__(self, n: int, depth: int, plan: dict[EdgeType, tuple[tuple[int, ...], tuple]]) -> None:
        for name, value in zip(self.__slots__, (n, depth, plan)):
            object.__setattr__(self, name, value)

    @property
    def supports(self) -> dict[EdgeType, tuple[tuple[int, int], ...]]:
        """Each occurring type, in sort order, with its `(vertex, count)` pairs of nonzero count."""
        found: dict[EdgeType, tuple[tuple[int, int], ...]] = {}
        for etype, (vertices, counts) in self.plan.items():
            if etype.near == etype.far:
                found[etype] = tuple((v, c) for v, c in zip(vertices, counts) if c)
                continue
            for member, side in ((etype, 0), (etype.inverse(), 1)):
                support = tuple((v, c[side]) for v, c in zip(vertices, counts) if c[side])
                if support:
                    found[member] = support
        return {etype: found[etype] for etype in sorted(found, key=EdgeType.sort_key)}

    def degree_vector(self, etype: EdgeType) -> tuple[int, ...]:
        """Length-`n` count vector for `etype`; all zeros if the type never occurs."""
        near, far = etype
        side, entry = 0, self.plan.get(etype)
        if entry is None and near != far:
            side, entry = 1, self.plan.get((far, near))
        pairs = zip(*entry) if entry is not None else ()
        return tuple(self._dense((v, count if near == far else count[side]) for v, count in pairs))

    @property
    def degrees(self) -> dict[EdgeType, tuple[int, ...]]:
        """Every occurring type's length-`n` count vector, built afresh on each access."""
        return {etype: tuple(self._dense(support)) for etype, support in self.supports.items()}

    def _dense(self, support: Iterable[tuple[int, int]]) -> list[int]:
        """The length-`n` list of counts, zero but at `support`'s (vertex, count) pairs."""
        vec = [0] * self.n
        for v, count in support:
            vec[v] = count
        return vec

    def json_types(self) -> Iterator[dict]:
        """The entries of `to_json_dict()["types"]`, one at a time."""
        for etype, support in self.supports.items():
            yield {
                "r": etype.near,
                "s": etype.far,
                "class": etype.klass.value,
                "N": sum([c for _, c in support]),
                "degrees": self._dense(support),
            }

    def to_json_dict(self) -> dict:
        return {"h": self.depth, "n": self.n, "types": list(self.json_types())}


def build_table(trees: Sequence[RootedTree], depth: int) -> TypedDegreeTable:
    """Count the root-incident edges of every type across the collection.

    `depth` is read by `operator.index` (TypeError for a non-integer), must be
    >= 1, and bounds every tree: DepthError lists the indices of deeper ones.
    The trees are interned into one :class:`Forest` and tabulated by :func:`table_from_ids`.
    """
    depth = index(depth)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    forest = Forest()
    roots = list(forest.intern(trees))
    too_deep = tuple(i for i, t in enumerate(roots) if forest.depths[t] > depth)
    if too_deep:
        raise DepthError(f"trees deeper than {depth} at indices {list(too_deep)}", indices=too_deep)
    return table_from_ids(forest, roots, depth)


def table_from_ids(forest: Forest, roots: Sequence[int], depth: int) -> TypedDegreeTable:
    """:func:`build_table` for checked root ids in `forest`: `depth` >= 1, and no tree deeper.

    Costs O(n + root edges + units log units), no unit's entry being built as a length-`n` vector.
    """
    keys = forest.keys
    # Per distinct root, each of its units' vertex and count lists and its count there.
    units_of: dict[int, list[tuple[list[int], list, object]]] = {}
    entries: dict[tuple[int, int], tuple[list[int], list]] = {}
    for i, root in enumerate(roots):
        units = units_of.get(root)
        if units is None:
            # A unit is a diagonal type or an inverse pair named by its A member.
            slots: dict[tuple[int, int], list[int]] = {}
            for near, far in _edge_pairs(forest, forest.kids[root], depth):
                unit, side = ((near, far), 0) if near == far or keys[near] < keys[far] else ((far, near), 1)
                slot = slots.get(unit)
                if slot is None:
                    slot = slots[unit] = [0, 0]
                slot[side] += 1
            units = units_of[root] = []
            for unit, (out, inn) in slots.items():
                entry = entries.get(unit)
                if entry is None:
                    entry = entries[unit] = ([], [])
                units.append((*entry, out if unit[0] == unit[1] else (out, inn)))
        for vertices, counts, count in units:
            vertices.append(i)
            counts.append(count)
    codes = forest.codes
    order = sorted(entries, key=lambda u: (u[0] != u[1], keys[u[0]], keys[u[1]]))
    plan = {EdgeType(codes[near], codes[far]): tuple(map(tuple, entries[near, far])) for near, far in order}
    return TypedDegreeTable(len(roots), depth, plan)
