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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .errors import ParseError

__all__ = [
    "RootedTree",
    "CanonCode",
    "Forest",
    "code_sort_key",
    "parse_tree",
    "canonical_code",
    "depth",
    "truncate",
    "count_nodes",
    "iter_collection",
    "read_collection",
    "write_collection",
]

# Canonical codes are plain strings over "(" and ")".
CanonCode = str


@dataclass(frozen=True)
class RootedTree:
    """Unlabeled rooted tree; the storage order of `children` carries no meaning.

    Equality and hashing are structural (order-sensitive); use canonical
    codes to compare trees up to isomorphism.
    """

    children: tuple["RootedTree", ...] = ()


def code_sort_key(code: CanonCode) -> tuple[int, str]:
    """Total order on codes: shorter first, ties by the raw string."""
    return (len(code), code)


class Forest:
    """Interner giving every distinct rooted tree one dense integer id.

    A node is the tuple of its child ids sorted by the :func:`code_sort_key`
    order of their codes, so two trees get the same id exactly when they are
    isomorphic.  Children are interned before their parent, and each new id
    records once its canonical code (`codes`), its depth (`depths`) and its
    sorted child ids (`kids`).  :meth:`tree` builds an id's
    :class:`RootedTree` on first request, children in canonical order and
    made of the children's shared objects.  Nothing here recurses, so input
    depth is bounded only by memory.
    """

    def __init__(self) -> None:
        self._ids: dict[tuple[int, ...], int] = {}
        self._keys: list[tuple[int, str]] = []
        self._cuts: dict[tuple[int, int], int] = {}
        self.kids: list[tuple[int, ...]] = []
        self.codes: list[CanonCode] = []
        self.depths: list[int] = []
        self._trees: dict[int, RootedTree] = {}
        self.leaf = self.node(())

    def node(self, child_ids: Iterable[int]) -> int:
        """Id of the tree whose root has the given child subtrees."""
        given = tuple(child_ids)
        tid = self._ids.get(given)
        if tid is None:
            kids = tuple(sorted(given, key=self._keys.__getitem__))
            tid = self._ids.get(kids)
            if tid is None:
                tid = self._ids[kids] = len(self.kids)
                code = "(" + "".join([self.codes[c] for c in kids]) + ")"
                self.kids.append(kids)
                self.codes.append(code)
                self._keys.append((len(code), code))
                self.depths.append(1 + max([self.depths[c] for c in kids]) if kids else 0)
            # The same children in the same order later skip the sort.
            self._ids[given] = tid
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
        """
        word = text.strip()
        if not word:
            raise ParseError("empty tree text")
        stack: list[list[int]] = []
        root: int | None = None
        for pos, ch in enumerate(word):
            if root is not None:
                raise ParseError(f"trailing characters after the tree at position {pos}")
            if ch == "(":
                stack.append([])
            elif ch == ")":
                if not stack:
                    raise ParseError(f"unbalanced ')' at position {pos}")
                kids = stack.pop()
                tid = self.node(kids) if kids else self.leaf
                if stack:
                    stack[-1].append(tid)
                else:
                    root = tid
            else:
                raise ParseError(f"unexpected character {ch!r} at position {pos}")
        if root is None:
            raise ParseError("unbalanced '(': tree text ends too early")
        return root

    def intern(self, trees: Iterable[RootedTree]) -> Iterator[int]:
        """Ids of `trees`, lazily and in order; each distinct object is visited once.

        Subtree objects shared within or across the trees (as in any parsed
        collection) cost one visit, however often they occur.
        """
        memo: dict[int, int] = {}
        held: list[RootedTree] = []  # keeps every visited object alive while id() keys the memo
        for tree in trees:
            held.append(tree)
            stack = [tree]
            while stack:
                top = stack[-1]
                if id(top) in memo:
                    stack.pop()
                    continue
                pending = [c for c in top.children if id(c) not in memo]
                if pending:
                    stack.extend(pending)
                    continue
                stack.pop()
                memo[id(top)] = self.node([memo[id(c)] for c in top.children])
            yield memo[id(tree)]

    def truncate(self, tid: int, k: int) -> int:
        """Id of the subtree of all nodes at depth <= k; memoized per (id, k)."""
        if k < 0:
            raise ValueError("truncation depth must be >= 0")
        depths, cuts = self.depths, self._cuts

        def done(t: int, j: int) -> int | None:
            if depths[t] <= j:
                return t
            return self.leaf if j == 0 else cuts.get((t, j))

        stack = [(tid, k)]
        while stack:
            t, j = stack[-1]
            if done(t, j) is not None:
                stack.pop()
                continue
            pending = [(c, j - 1) for c in self.kids[t] if done(c, j - 1) is None]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            cuts[(t, j)] = self.node([done(c, j - 1) for c in self.kids[t]])
        return done(tid, k)


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
    """Subtree of all nodes at depth <= k, in canonical child order."""
    forest, tid = _interned(tree)
    return forest.tree(forest.truncate(tid, k))


def count_nodes(tree: RootedTree) -> int:
    """Number of nodes, root included."""
    total = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        total += 1
        stack.extend(node.children)
    return total


def iter_collection(lines: Iterable[str]) -> Iterator[tuple[int, RootedTree]]:
    """Yield (line number, tree) for each tree line of a collection file.

    Blank lines and lines starting with '#' are skipped.  Line numbers are
    1-based and refer to the raw input.  All trees are parsed into one
    :class:`Forest`, so isomorphic subtrees across the whole collection are
    one shared object.
    """
    forest = Forest()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tid = forest.parse(line)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        yield lineno, forest.tree(tid)


def read_collection(lines: Iterable[str]) -> list[RootedTree]:
    """Read a tree collection, one balanced-parentheses word per line."""
    return [tree for _, tree in iter_collection(lines)]


def write_collection(trees: Iterable[RootedTree], out: IO[str]) -> None:
    """Write one canonical code per line, in input order."""
    forest = Forest()
    for tid in forest.intern(trees):
        out.write(forest.codes[tid] + "\n")
