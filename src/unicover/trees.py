"""Unlabeled rooted trees: parsing, canonical codes, and basic surgery.

A tree is written as one balanced-parentheses word: the outermost pair is the
root and each nested pair is a child subtree.  The canonical code of a tree
is the unique such word in which every node's child codes appear in ascending
:func:`code_sort_key` order, so two trees are isomorphic as rooted trees
exactly when their canonical codes are equal as strings.

Internally every tree lives in a :class:`Forest`, an Aho-Hopcroft-Ullman
hash-consing table that gives each distinct subtree one integer id.  Parsed
trees and whole collections come back with their children in canonical
order, and equal subtrees are one shared :class:`RootedTree` object.

Parsing is one left-to-right scan that interns each node as it closes.
Two C-speed string passes come first, one to reject any character other
than a parenthesis and one to fold every leaf "()" into a single
character, so the Python loop takes one step per leaf and two per
internal node.  Only a malformed word is scanned a second time, to name
its first fault and that fault's position.
"""

from __future__ import annotations

from operator import index
from typing import IO, Container, Iterable, Iterator

from .errors import ParseError

__all__ = [
    "FrozenSlots",
    "RootedTree",
    "CanonCode",
    "Forest",
    "code_sort_key",
    "parse_tree",
    "canonical_code",
    "depth",
    "truncate",
    "content_lines",
    "iter_collection",
    "read_collection",
    "write_collection",
]

# Canonical codes are plain strings over "(" and ")".
CanonCode = str


class FrozenSlots:
    """Base of immutable records: each `__slots__` field is set once, in `__init__`.

    `__init__` stores through `object.__setattr__`; afterwards assigning or
    deleting any attribute raises AttributeError.  `copy` and `pickle`
    rebuild a record by calling its class on its fields in slot order.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), tuple([getattr(self, name) for name in self.__slots__]))


class RootedTree(FrozenSlots):
    """Unlabeled rooted tree; the storage order of `children` carries no meaning.

    Immutable (see :class:`FrozenSlots`): `children` is stored as a tuple,
    whatever iterable it is given.  Equality and hashing are structural
    (order-sensitive); use canonical codes to compare trees up to
    isomorphism.  Both read one walk that numbers each distinct shape,
    with an explicit stack, once per distinct object, so depth is bounded
    only by memory; so do `repr`, and `copy`/`pickle`, which go through a
    flat table of rows that keeps the stored child order and the sharing
    of subtree objects.
    """

    __slots__ = ("children",)
    children: tuple[RootedTree, ...]

    def __init__(self, children: Iterable[RootedTree] = ()) -> None:
        object.__setattr__(self, "children", tuple(children))

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list[RootedTree | str] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append("RootedTree(children=(")
            stack.append(",))" if len(item.children) == 1 else "))")
            for j, kid in enumerate(reversed(item.children)):
                stack += [", ", kid] if j else [kid]
        return "".join(out)

    def __reduce__(self):
        # A flat table, so copy and pickle need no recursion: one row per
        # distinct object, children first, holding its children's rows in
        # stored order.
        row: dict[int, int] = {}
        rows: list[tuple[int, ...]] = []
        for node in _bottom_up(self, row):
            row[id(node)] = len(rows)
            rows.append(tuple([row[id(c)] for c in node.children]))
        return (_tree_from_rows, (tuple(rows),))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootedTree):
            return NotImplemented
        return self is other or self._shapes() == other._shapes()

    def __hash__(self) -> int:
        return hash(self._shapes())

    def _shapes(self) -> tuple[tuple[int, ...], ...]:
        """Each distinct shape, children first, as its children's shape numbers; equal exactly when the trees are."""
        number: dict[int, int] = {}
        shapes: dict[tuple[int, ...], int] = {}
        for node in _bottom_up(self, number):
            number[id(node)] = shapes.setdefault(tuple([number[id(c)] for c in node.children]), len(shapes))
        return tuple(shapes)


def _bottom_up(tree: RootedTree, done: Container[int]) -> Iterator[RootedTree]:
    """Nodes of `tree` not in `done` (by id), children first, once each; the caller adds each to `done`."""
    stack = [tree]
    while stack:
        top = stack[-1]
        if id(top) in done:
            stack.pop()
            continue
        pending = [c for c in top.children if id(c) not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        yield top


def _tree_from_rows(rows: tuple[tuple[int, ...], ...]) -> RootedTree:
    """Inverse of :meth:`RootedTree.__reduce__`: the tree of the last row."""
    made: list[RootedTree] = []
    for kids in rows:
        made.append(RootedTree(tuple([made[i] for i in kids])))
    return made[-1]


def code_sort_key(code: CanonCode) -> tuple[int, str]:
    """Total order on codes: shorter first, ties by the raw string."""
    return (len(code), code)


class Forest:
    """Interner giving every distinct rooted tree one dense integer id.

    A node is the tuple of its child ids sorted by the :func:`code_sort_key`
    order of their codes, so two trees get the same id exactly when they are
    isomorphic.  Children are interned before their parent, and each new id
    records once its canonical code (`codes`), the code's :func:`code_sort_key`
    (`keys`), its depth (`depths`) and its sorted child ids (`kids`), which
    are its one key in the interning table `_ids`, whatever child order it
    came in.  :meth:`tree` builds an id's :class:`RootedTree` on first
    request, children in canonical order and made of the children's shared
    objects.  Nothing here recurses, so input depth is bounded only by memory.
    """

    def __init__(self) -> None:
        self._ids: dict[tuple[int, ...], int] = {}
        self._cuts: dict[tuple[int, int], int] = {}
        self.kids: list[tuple[int, ...]] = []
        self.codes: list[CanonCode] = []
        self.keys: list[tuple[int, str]] = []
        self.depths: list[int] = []
        self._trees: dict[int, RootedTree] = {}
        self.leaf = self.node(())

    def node(self, child_ids: Iterable[int]) -> int:
        """Id of the tree whose root has the given child subtrees."""
        given = tuple(child_ids)
        tid = self._ids.get(given)
        if tid is None:
            kids = tuple(sorted(given, key=self.keys.__getitem__))
            tid = self._ids.get(kids)
            if tid is None:
                tid = self._ids[kids] = len(self.kids)
                code = "(" + "".join([self.codes[c] for c in kids]) + ")"
                self.kids.append(kids)
                self.codes.append(code)
                self.keys.append((len(code), code))
                self.depths.append(1 + max([self.depths[c] for c in kids]) if kids else 0)
        return tid

    def tree(self, tid: int) -> RootedTree:
        """The tree of `tid`, children in canonical order; built once per id."""
        made = self._trees
        if tid not in made:
            need, todo = {tid}, [tid]
            while todo:
                for c in self.kids[todo.pop()]:
                    if c not in made and c not in need:
                        need.add(c)
                        todo.append(c)
            # A child is always interned, so numbered, before its parent.
            for t in sorted(need):
                made[t] = RootedTree(tuple([made[c] for c in self.kids[t]]))
        return made[tid]

    def parse(self, text: str) -> int:
        """Id of one balanced-parentheses word (surrounding whitespace ignored).

        Raises ParseError on empty input, unbalanced parentheses, characters
        other than parentheses, or trailing garbage after the word.

        Once every leaf "()" is folded into one ".", each closed node's
        child tuple is looked up in the interning table directly, and
        :meth:`node` is called only for a node not seen before or written
        out of canonical order.  The outermost list collects the root, so the
        word is well formed exactly when the loop ends with no node open and
        one id in that list; otherwise :func:`_fault` names the first fault.
        """
        word = text.strip()
        if word and not word.translate(_DROP_PARENS):
            ids, node, leaf = self._ids, self.node, self.leaf
            open_kids: list[list[int]] = []
            kids: list[int] = []
            top = kids
            for ch in word.replace("()", "."):
                if ch == ".":
                    kids.append(leaf)
                elif ch == "(":
                    open_kids.append(kids)
                    kids = []
                else:
                    given = tuple(kids)
                    tid = ids.get(given)
                    if tid is None:
                        tid = node(given)
                    try:
                        kids = open_kids.pop()
                    except IndexError:  # a ")" with no open node
                        break
                    kids.append(tid)
            else:
                if not open_kids and len(top) == 1:
                    return top[0]
        raise ParseError(_fault(word))

    def intern(self, trees: Iterable[RootedTree]) -> Iterator[int]:
        """Ids of `trees`, lazily and in order; each distinct object is visited once.

        Subtree objects shared within or across the trees (as in any parsed
        collection) cost one visit, however often they occur.
        """
        memo: dict[int, int] = {}
        held: list[RootedTree] = []  # keeps every visited object alive while id() keys the memo
        for tree in trees:
            held.append(tree)
            for node in _bottom_up(tree, memo):
                memo[id(node)] = self.node([memo[id(c)] for c in node.children])
            yield memo[id(tree)]

    def truncate(self, tid: int, k: int) -> int:
        """Id of the subtree of all nodes at depth <= k (read as an integer); memoized per (id, k)."""
        k = index(k)
        if k < 0:
            raise ValueError("truncation depth must be >= 0")
        if self.depths[tid] <= k:
            return tid
        if k == 0:
            return self.leaf
        cut = self._cuts.get((tid, k))
        if cut is not None:
            return cut
        depths, cuts, kids, leaf = self.depths, self._cuts, self.kids, self.leaf
        # Only pairs (t, j) with depths[t] > j >= 1 are stacked and memoized.
        # A child cut to `low` is itself when it is no deeper than `low`, the
        # leaf when `low` is 0, and its memoized cut otherwise.
        stack = [(tid, k)]
        while stack:
            t, j = stack[-1]
            if (t, j) in cuts:
                stack.pop()
                continue
            low = j - 1
            pending = [(c, low) for c in kids[t] if low and depths[c] > low and (c, low) not in cuts]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            cuts[(t, j)] = self.node(
                [c if depths[c] <= low else cuts[(c, low)] if low else leaf for c in kids[t]]
            )
        return cuts[(tid, k)]


# Deletes both parentheses, so a word is all parentheses iff nothing is left.
_DROP_PARENS = str.maketrans("", "", "()")


def _fault(word: str) -> str:
    """Message for the first fault of a malformed word, found left to right."""
    if not word:
        return "empty tree text"
    level = 0
    for pos, ch in enumerate(word):
        if ch != "(" and ch != ")":
            return f"unexpected character {ch!r} at position {pos}"
        if ch == ")" and not level:
            return f"unbalanced ')' at position {pos}"
        level += 1 if ch == "(" else -1
        if not level and pos + 1 < len(word):
            return f"trailing characters after the tree at position {pos + 1}"
    return "unbalanced '(': tree text ends too early"


def _interned(tree: RootedTree) -> tuple[Forest, int]:
    forest = Forest()
    return forest, next(forest.intern([tree]))


def parse_tree(text: str) -> RootedTree:
    """Parse one balanced-parentheses word into a tree in canonical child order.

    Raises ParseError on empty input, unbalanced parentheses, characters
    other than parentheses, or trailing garbage after the word.
    """
    forest = Forest()
    return forest.tree(forest.parse(text))


def canonical_code(tree: RootedTree) -> CanonCode:
    """Canonical code; equal codes == isomorphic rooted trees.

    A leaf codes to "()"; an internal node codes to "(" plus its children's
    codes sorted ascending by :func:`code_sort_key` plus ")".
    """
    forest, tid = _interned(tree)
    return forest.codes[tid]


def depth(tree: RootedTree) -> int:
    """Depth of the tree: 0 for a lone root."""
    forest, tid = _interned(tree)
    return forest.depths[tid]


def truncate(tree: RootedTree, k: int) -> RootedTree:
    """Subtree of all nodes at depth <= k, in canonical child order; TypeError if `k` is not an integer."""
    forest, tid = _interned(tree)
    return forest.tree(forest.truncate(tid, k))


def content_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped text) of each line that is neither blank nor a '#' comment."""
    return ((i, line) for i, line in enumerate(map(str.strip, lines), start=1) if line and not line.startswith("#"))


def iter_collection(lines: Iterable[str], *, forest: Forest) -> Iterator[tuple[int, int]]:
    """Yield (line number, id in `forest`) for each tree line of a collection file.

    Only :func:`content_lines` are read, numbered as in the raw input.  A
    line that spells the canonical code of a tree already in `forest` is
    looked up, not parsed; each other distinct line is parsed once per call.
    """
    seen = {code: tid for tid, code in enumerate(forest.codes)}
    for lineno, line in content_lines(lines):
        tid = seen.get(line)
        if tid is None:
            try:
                tid = seen[line] = forest.parse(line)
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        yield lineno, tid


def read_collection(lines: Iterable[str]) -> list[RootedTree]:
    """Read a tree collection, one word per line; isomorphic subtrees are shared objects."""
    forest = Forest()
    return [forest.tree(tid) for _, tid in iter_collection(lines, forest=forest)]


def write_collection(trees: Iterable[RootedTree], out: IO[str]) -> None:
    """Write one canonical code per line, in input order."""
    forest = Forest()
    for tid in forest.intern(trees):
        out.write(forest.codes[tid] + "\n")
