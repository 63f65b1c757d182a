"""Simple graphs on vertices 0..n-1, plus file formats.

The edge-list file format is a header line ``n=<N>`` followed by one ``u v``
line per edge with u < v; blank lines and '#' comments are allowed anywhere.
"""

from __future__ import annotations

from operator import index
from typing import IO, Iterable

from .errors import GraphFormatError
from .trees import FrozenSlots, content_lines

# Largest `n=` header that read_graph accepts; the graph allocates per vertex.
MAX_VERTICES = 10**6

__all__ = [
    "MAX_VERTICES",
    "SimpleGraph",
    "read_graph",
    "write_graph",
    "to_dot",
]


def _add_edge(seen: set[tuple[int, int]], n: int, u: int, v: int) -> None:
    """Add (u, v) to `seen` as (min, max); ValueError if out of range, a loop or a repeat."""
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    key = (u, v) if u < v else (v, u)
    if key in seen:
        raise ValueError(f"parallel edge ({key[0]}, {key[1]})")
    seen.add(key)


class SimpleGraph(FrozenSlots):
    """Undirected graph without loops or parallel edges.

    Immutable (see :class:`~unicover.trees.FrozenSlots`).  `adj[v]` lists
    v's neighbours in ascending order, and is the graph's one store.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        n = index(n)
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            _add_edge(seen, n, index(u), index(v))
        self._index(n, seen)

    @classmethod
    def _from_checked(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        """Graph on `edges` already known to name each edge once, as a pair of distinct vertices in 0..n-1."""
        graph = cls.__new__(cls)
        graph._index(n, edges)
        return graph

    def _index(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        neigh: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            neigh[u].append(v)
            neigh[v].append(u)
        for v, ws in enumerate(neigh):  # sorted in place, and freed as its tuple is made
            ws.sort()
            neigh[v] = tuple(ws)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(neigh))

    def __reduce__(self):
        return (SimpleGraph._from_checked, (self.n, self.edges))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Each edge once as (u, v) with u < v, sorted; built from `adj` in O(m) on each access."""
        return tuple([(u, v) for u, ws in enumerate(self.adj) for v in ws if u < v])

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.adj == other.adj

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={list(self.edges)})"


def _integer(word: str) -> int:
    """`int(word)` for an ASCII `-?[0-9]+` word only; ValueError for anything else."""
    if not (word.isascii() and word.removeprefix("-").isdigit()):
        raise ValueError(word)
    return int(word)


def read_graph(lines: Iterable[str]) -> SimpleGraph:
    """Parse the edge-list format; raises GraphFormatError with line numbers.

    Counts and endpoints are ASCII `-?[0-9]+` words (no '+', '_' or other
    digits).  The header must give 0 <= n <= MAX_VERTICES.  Each edge line
    is checked on its own (range, loop, repeat of an earlier line), and the
    graph is built once at the end without checking the edges again.
    """
    rows = content_lines(lines)
    lineno, line = next(rows, (None, ""))
    if lineno is None:
        raise GraphFormatError("missing 'n=<count>' header")
    if not line.startswith("n="):
        raise GraphFormatError(f"line {lineno}: expected 'n=<count>' header")
    try:
        n = _integer(line[2:])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: bad vertex count {line[2:]!r}") from None
    if n < 0:
        raise GraphFormatError(f"line {lineno}: vertex count must be >= 0")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"line {lineno}: vertex count {n} exceeds the limit of {MAX_VERTICES}")
    seen: set[tuple[int, int]] = set()
    for lineno, line in rows:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = _integer(parts[0]), _integer(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer endpoint in {line!r}") from None
        try:
            _add_edge(seen, n, u, v)
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
    return SimpleGraph._from_checked(n, seen)


def write_graph(graph: SimpleGraph, out: IO[str]) -> None:
    """Write the edge-list format: header then 'u v' lines, u < v, sorted."""
    out.write(f"n={graph.n}\n")
    out.writelines(f"{u} {v}\n" for u, ws in enumerate(graph.adj) for v in ws if u < v)


def to_dot(graph: SimpleGraph) -> str:
    """Plain undirected DOT; every vertex declared so isolated ones survive."""
    lines = ["graph G {", *[f"  {v};" for v in range(graph.n)]]
    lines += [f"  {u} -- {v};" for u, ws in enumerate(graph.adj) for v in ws if u < v]
    lines.append("}")
    return "\n".join(lines) + "\n"
