"""Earlier forms of library code, kept as references for differential tests.

The quadratic scans and dense realizers that the support-only code
replaced: the linear subsum scans must return the same smallest witness k,
and the heap-based realizers the same edge lists, as these direct
transcriptions of the definitions.  The table as it was built when it
stored every type's support beside its plan, with the inverse-pair helpers
that formed the plan from those supports: `TypedDegreeTable.plan` must
name and fill the same entries in the same order, and its `supports` view
must equal the stored supports.  The parser that took one step per
character: `Forest.parse` must give the same id, or fail with the same
message, on every string.  The realization that recounted every part's
degrees from the table's supports, glued the parts and validated the union
again: `realize_table` must give the same graph, or raise the same error.  The
`verify` command as it was when it parsed every tree line before unfolding:
matching canonical lines by their code must not change an exit code or a
byte of output.  The cover balls written out walk by walk: `ball_ids` must
give every vertex the same canonical code as its explicit non-backtracking
walks.  And a node counter that walks `RootedTree.children` with no Forest.

The loopless-digraph forms that the bipartite check and realizer replaced
are kept as oracles too: Fulkerson–Chen–Anstee's test, whose smallest
violated k Gale–Ryser must reproduce on every bipartite vector,
Kleitman–Wang's general greedy, whose arcs the one-heap greedy must
reproduce, and the enumeration of every loopless digraph that certifies
the test on small inputs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterator, Sequence

from unicover import (
    DepthError,
    EdgeType,
    InternalInvariantError,
    ParseError,
    RootedTree,
    SimpleGraph,
    SimplicityViolation,
    SizeError,
    TypeClass,
    TypedDegreeTable,
    UnicoverError,
    havel_hakimi,
    kleitman_wang,
    read_graph,
)
from unicover.cli import _read_lines
from unicover.edge_types import _edge_pairs
from unicover.trees import Forest, iter_collection
from unicover.unfold import ball_ids, first_difference


def parse_by_character(forest: Forest, text: str) -> int:
    """`Forest.parse` as one branch per character, stopping at the first fault."""
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
            tid = forest.node(kids) if kids else forest.leaf
            if stack:
                stack[-1].append(tid)
            else:
                root = tid
        else:
            raise ParseError(f"unexpected character {ch!r} at position {pos}")
    if root is None:
        raise ParseError("unbalanced '(': tree text ends too early")
    return root


def count_nodes(tree: RootedTree) -> int:
    """Number of nodes, root included."""
    total = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        total += 1
        stack.extend(node.children)
    return total


def ball_codes_by_walks(graph: SimpleGraph, radius: int) -> list[str]:
    """Each vertex's radius-`radius` ball code, from its non-backtracking walks, with strings only.

    A walk is a tuple of vertices; its children extend it by a neighbour of
    its last vertex other than the one before that.  Codes are formed from
    the longest walks up, each node's child codes sorted by (length, code).
    """
    neighbours: list[set[int]] = [set() for _ in range(graph.n)]
    for u, v in graph.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    codes = []
    for v in range(graph.n):
        levels = [[(v,)]]
        for _ in range(radius):
            levels.append([
                walk + (x,)
                for walk in levels[-1]
                for x in sorted(neighbours[walk[-1]])
                if len(walk) == 1 or x != walk[-2]
            ])
        below: dict[tuple[int, ...], list[str]] = {}
        for level in reversed(levels):
            for walk in level:
                kids = sorted(below.pop(walk, []), key=lambda code: (len(code), code))
                below.setdefault(walk[:-1], []).append("(" + "".join(kids) + ")")
        codes.append(below[()][0])
    return codes


def first_subsum_violation(desc: Sequence[int]) -> int | None:
    """Smallest k with sum of the k largest > k(k-1) + capped tail; `desc` non-increasing."""
    lhs = 0
    for k in range(1, len(desc) + 1):
        lhs += desc[k - 1]
        rhs = k * (k - 1) + sum(min(d, k) for d in desc[k:])
        if lhs > rhs:
            return k
    return None


def first_directed_violation(ordered: Sequence[tuple[int, int]]) -> int | None:
    """Smallest k violating the loopless directed subsum inequality; `ordered` decreasing."""
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
    k = first_directed_violation(sorted(plist, reverse=True))
    return k is None, k


# 2^(n(n-1)) loopless digraphs; 4096 at the cap.
MAX_DIGRAPH_VERTICES = 4


def enumerate_digraphs(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The arcs of every labeled loopless digraph on n vertices, each digraph exactly once."""
    if not 0 <= n <= MAX_DIGRAPH_VERTICES:
        raise SizeError(f"digraph enumeration supports 0 <= n <= {MAX_DIGRAPH_VERTICES}, got {n}")
    slots = [(u, v) for u in range(n) for v in range(n) if u != v]
    for mask in range(1 << len(slots)):
        yield tuple(a for i, a in enumerate(slots) if mask >> i & 1)


def bidegrees(n: int, arcs: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The (out, in) pair of each vertex 0..n-1 under `arcs`."""
    out, inn = [0] * n, [0] * n
    for u, v in arcs:
        out[u] += 1
        inn[v] += 1
    return tuple(zip(out, inn))


def havel_hakimi_dense(degrees: Sequence[int]) -> list[tuple[int, int]]:
    """Havel-Hakimi's edges (u < v), in the order placed, scanning all vertices with `min` and `sorted` at every step."""
    res = list(degrees)
    n = len(res)
    edges: list[tuple[int, int]] = []
    while True:
        v = min(range(n), key=lambda i: (-res[i], i), default=-1)
        if v < 0 or res[v] == 0:
            break
        need = res[v]
        res[v] = 0
        targets = sorted(
            (i for i in range(n) if i != v and res[i] > 0), key=lambda i: (-res[i], i)
        )
        assert len(targets) >= need
        for t in targets[:need]:
            res[t] -= 1
            edges.append((v, t) if v < t else (t, v))
    return edges


def kleitman_wang_dense(pairs: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Kleitman-Wang's arcs on a loopless digraph, in the order placed, scanning all vertices with `min` and `sorted` at every step."""
    res_out = [a for a, _ in pairs]
    res_in = [b for _, b in pairs]
    n = len(res_out)
    arcs: list[tuple[int, int]] = []
    while True:
        v = min(range(n), key=lambda i: (-res_out[i], -res_in[i], i), default=-1)
        if v < 0 or res_out[v] == 0:
            break
        need = res_out[v]
        res_out[v] = 0
        targets = sorted(
            (i for i in range(n) if i != v and res_in[i] > 0),
            key=lambda i: (-res_in[i], -res_out[i], i),
        )
        assert len(targets) >= need
        for t in targets[:need]:
            res_in[t] -= 1
            arcs.append((v, t))
    return arcs


def supports_and_plan(forest: Forest, roots: Sequence[int], depth: int) -> tuple[dict, dict]:
    """Every occurring type's support, then the plan formed from those supports.

    The supports map each type, in `EdgeType.sort_key` order, to its
    `(vertex, count)` pairs with a nonzero count, in vertex order.  The plan
    maps each diagonal type to its support split in two, then each inverse
    pair's A member to :func:`pair_support`.
    """
    counts_of: dict[int, dict[tuple[int, int], int]] = {}
    support: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, root in enumerate(roots):
        counts = counts_of.get(root)
        if counts is None:
            counts = counts_of[root] = {}
            for pair in _edge_pairs(forest, forest.kids[root], depth):
                counts[pair] = counts.get(pair, 0) + 1
        for pair, count in counts.items():
            support.setdefault(pair, []).append((i, count))
    codes = forest.codes
    etypes = {pair: EdgeType(codes[pair[0]], codes[pair[1]]) for pair in support}
    supports = {etypes[p]: tuple(support[p]) for p in sorted(support, key=lambda p: etypes[p].sort_key())}
    plan = {etype: tuple(zip(*s)) for etype, s in supports.items() if etype.klass is TypeClass.DIAGONAL}
    for rep in inverse_pairs(supports):
        plan[rep] = pair_support(supports, rep)
    return supports, plan


def inverse_pairs(supports: dict[EdgeType, tuple]) -> list[EdgeType]:
    """The A-class member of each inverse pair with an occurring type, sorted."""
    reps = {
        e if e.klass is TypeClass.A else e.inverse()
        for e in supports
        if e.klass is not TypeClass.DIAGONAL
    }
    return sorted(reps, key=EdgeType.sort_key)


def pair_support(supports: dict[EdgeType, tuple], rep: EdgeType) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The vertices where `rep` or its inverse occurs, ascending, and their (out, in) counts."""
    out = dict(supports.get(rep, ()))
    inn = dict(supports.get(rep.inverse(), ()))
    vertices = sorted(out.keys() | inn.keys())
    return tuple(vertices), tuple((out.get(v, 0), inn.get(v, 0)) for v in vertices)


def glue_parts(table: TypedDegreeTable, parts: Sequence[Sequence[tuple[int, int]]]) -> SimpleGraph:
    """`glue` recounting every part's (bi)degrees from the supports and validating the union once more."""
    supports, n = table.supports, table.n
    if len(parts) != len(table.plan):
        raise ValueError(f"the plan has {len(table.plan)} entries but {len(parts)} parts were given")
    owner: dict[tuple[int, int], EdgeType] = {}
    for (etype, (vertices, _)), part in zip(table.plan.items(), parts):
        name = f"({etype.near},{etype.far})"
        if sorted(set(vertices)) != list(vertices) or (vertices and not 0 <= vertices[0] <= vertices[-1] < n):
            raise InternalInvariantError(f"plan vertices of type {name} must ascend within 0..{n - 1}")
        k = len(vertices)
        for u, v in part:
            if u == v or not (0 <= u < k and 0 <= v < k):
                raise InternalInvariantError(
                    f"part of type {name} has an edge ({u}, {v}) that is a loop or leaves its {k} vertices"
                )
        got = bidegrees(k, part)
        if etype.near == etype.far:
            got, want = tuple([a + b for a, b in got]), tuple([c for _, c in supports.get(etype, ())])
        else:
            out, inn = dict(supports.get(etype, ())), dict(supports.get(etype.inverse(), ()))
            want = tuple([(out.get(v, 0), inn.get(v, 0)) for v in vertices])
        if got != want:
            raise InternalInvariantError(f"part of type {name} does not have the table's degrees")
        for u, v in part:
            pair = (vertices[u], vertices[v]) if u < v else (vertices[v], vertices[u])
            clash = owner.get(pair)
            if clash is not None:
                raise SimplicityViolation(
                    f"pair {pair} given by type ({clash.near},{clash.far}) and again by {name}"
                )
            owner[pair] = etype
    return SimpleGraph(n, owner)


def realize_parts(table: TypedDegreeTable) -> SimpleGraph:
    """`realize_table` as one `havel_hakimi` or `kleitman_wang` part per plan entry, then `glue_parts`."""
    parts = [
        havel_hakimi([c for _, c in table.supports[etype]]) if etype.near == etype.far else kleitman_wang(counts)
        for etype, (_, counts) in table.plan.items()
    ]
    return glue_parts(table, parts)


def verify_by_parsing(args: argparse.Namespace) -> int:
    """`unicover verify` parsing every tree line, then unfolding at the radius it settles on."""
    if args.graph == "-" and args.trees == "-":
        raise UnicoverError("the graph and the trees cannot both be read from stdin ('-')")
    graph = read_graph(_read_lines(args.graph))
    forest = Forest()
    pairs = list(iter_collection(_read_lines(args.trees), forest=forest))
    roots = [t for _, t in pairs]
    if args.depth is None:
        depth = max(1, max([forest.depths[t] for t in roots], default=0))
    else:
        if args.depth < 1:
            raise DepthError("--depth must be >= 1")
        offenders = [i for i, (_, t) in enumerate(pairs) if forest.depths[t] > args.depth]
        if offenders:
            lines = [pairs[i][0] for i in offenders]
            raise DepthError(f"trees deeper than --depth {args.depth} on line(s) {lines}", indices=tuple(offenders))
        depth = args.depth
    if len(roots) != graph.n:
        raise UnicoverError(f"{len(roots)} trees for a graph on {graph.n} vertices")
    bad = first_difference(ball_ids(forest, graph, depth), roots)
    if bad is None:
        print(f"ok: all {graph.n} vertices match at depth {depth}", file=sys.stderr)
        return 0
    print(f"mismatch at vertex {bad}", file=sys.stderr)
    return 1
