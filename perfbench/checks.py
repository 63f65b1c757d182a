"""Output checks computed apart from the program under test.

Cover-ball partitions are compared with colour refinement, which matches
universal-cover unfolding (Angluin 1980; Krebs and Verbitsky 2015): two
vertices have isomorphic depth-h cover balls exactly when networkx's
Weisfeiler-Lehman subgraph hashes agree after h iterations.  The same hash
compares a vertex of a realized graph with the same index in the source
graph.  Sequence verdicts are compared with networkx ``is_graphical`` and
``is_digraphical``.

Every check returns None when the output is right and a one-line reason when
it is not.
"""

from __future__ import annotations

import json
import re
import warnings

import networkx as nx

def wl_hashes(n: int, edges, depth: int) -> list[str]:
    """Per-vertex Weisfeiler-Lehman hash after `depth` refinement rounds."""
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    with warnings.catch_warnings():
        # networkx 3.5 changed attribute-free hashes and warns on every call;
        # only hashes from the same installed version are compared here.
        warnings.simplefilter("ignore", UserWarning)
        hashes = nx.weisfeiler_lehman_subgraph_hashes(graph, iterations=depth)
    return [hashes[v][-1] for v in range(n)]


def partition(labels) -> list[int]:
    """Class index of each position, classes numbered by first occurrence."""
    ids: dict = {}
    return [ids.setdefault(label, len(ids)) for label in labels]


def walk_counts(n: int, edges, depth: int) -> list[tuple[int, ...]]:
    """Per vertex, the number of non-backtracking walks of each length 0..depth.

    These are the node counts at each level of the vertex's cover ball.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    # ahead[(u, v)]: walks of the current length that start with the step u -> v.
    ahead = {(u, v): 1 for u in range(n) for v in adj[u]}
    levels = [[1] * n]
    for _ in range(depth):
        levels.append([sum(ahead[(v, w)] for w in adj[v]) for v in range(n)])
        ahead = {(u, v): sum(ahead[(v, w)] for w in adj[v] if w != u) for (u, v) in ahead}
    return list(zip(*levels))


def level_counts(code: str) -> tuple[int, ...]:
    """Number of nodes at each depth of a balanced-parentheses word."""
    counts: list[int] = []
    level = 0
    for ch in code:
        if ch == "(":
            if level == len(counts):
                counts.append(0)
            counts[level] += 1
            level += 1
        else:
            level -= 1
    return tuple(counts)


def parse_graph(text: str) -> tuple[int, list[tuple[int, int]]] | str:
    """Parse the edge-list format strictly; a reason string on any defect."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("n="):
        return "no 'n=' header"
    try:
        n = int(lines[0][2:])
        edges = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
    except ValueError:
        return "non-integer field"
    if any(len(e) != 2 or not 0 <= e[0] < e[1] < n for e in edges):
        return "edge out of order or out of range"
    if len(set(edges)) != len(edges):
        return "repeated edge"
    return n, edges


def check_neighborhoods(rc: int, trees_text: str | None, walks, hashes) -> str | None:
    """`neighborhoods`: line i has vertex i's level sizes, and lines split the
    vertices exactly as colour refinement does."""
    if rc != 0:
        return f"exit {rc}, expected 0"
    if trees_text is None:
        return "no output file"
    codes = trees_text.splitlines()
    if len(codes) != len(walks):
        return f"{len(codes)} lines for {len(walks)} vertices"
    for v, code in enumerate(codes):
        got = level_counts(code)
        if got != walks[v][: len(got)] or any(walks[v][len(got):]):
            return f"line {v + 1}: level sizes {got}, vertex {v} has {walks[v]}"
    if partition(codes) != partition(hashes):
        return "vertex partition by ball differs from colour refinement"
    return None


def check_verdict(rc: int, stdout: str, reject: bool) -> str | None:
    """`check`: graphical on harvested collections; on a planted `(())`,
    not graphical with an odd diagonal sum on the type ((), ())."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if not isinstance(payload, dict):
        return "stdout is not a JSON object"
    if not reject:
        if rc != 0 or payload.get("graphical") is not True or payload.get("failures"):
            return f"exit {rc}, graphical={payload.get('graphical')}; expected a graphical verdict"
        return None
    if rc != 1 or payload.get("graphical") is not False:
        return f"exit {rc}, graphical={payload.get('graphical')}; expected not graphical"
    odd = [f for f in payload.get("failures", []) if f.get("kind") == "OddDiagonalSum"]
    if {"r": "()", "s": "()"} not in [f.get("type") for f in odd]:
        return "no OddDiagonalSum failure on type ((), ())"
    return None


def check_realized(rc: int, graph_text: str | None, reject: bool, n: int, depth: int, hashes) -> str | None:
    """`realize`: a simple graph whose vertex i has vertex i's ball; on a
    rejected collection, exit 1 and no file."""
    if reject:
        if rc != 1 or graph_text is not None:
            return f"exit {rc}, file written={graph_text is not None}; expected exit 1 and no file"
        return None
    if rc != 0 or graph_text is None:
        return f"exit {rc}, file written={graph_text is not None}; expected exit 0 and a file"
    parsed = parse_graph(graph_text)
    if isinstance(parsed, str):
        return f"realized graph: {parsed}"
    got_n, edges = parsed
    if got_n != n:
        return f"realized graph has {got_n} vertices, expected {n}"
    got = wl_hashes(n, edges, depth)
    for v in range(n):
        if got[v] != hashes[v]:
            return f"vertex {v} of the realized graph has another depth-{depth} ball"
    return None


def check_verify(rc: int, stderr: str, mismatch: int | None) -> str | None:
    """`verify`: exit 0 on a match; exit 1 naming the planted vertex."""
    if mismatch is None:
        return None if rc == 0 else f"exit {rc}, expected 0"
    found = re.search(r"mismatch at vertex (\d+)", stderr)
    if rc != 1 or found is None or int(found.group(1)) != mismatch:
        return f"exit {rc}, stderr {stderr.strip()!r}; expected a mismatch at vertex {mismatch}"
    return None


def check_explained_types(rc: int, stdout: str) -> str | None:
    """`check --explain`: each type's pass/fail equals networkx's verdict.

    A diagonal type passes iff its count vector is graphical; an inverse pair
    passes iff its (out, in) vectors are digraphical without loops.
    """
    if rc not in (0, 1):
        return f"exit {rc}, expected a verdict"
    try:
        payload = json.loads(stdout)
        n = payload["table"]["n"]
        types = payload["table"]["types"]
        failed = {(f["type"]["r"], f["type"]["s"]) for f in payload["failures"]}
    except (ValueError, KeyError, TypeError):
        return "stdout is not an explained verdict"
    vectors = {(t["r"], t["s"]): t["degrees"] for t in types}
    for t in types:
        key = (t["r"], t["s"])
        if t["class"] == "diag":
            ok = nx.is_graphical(t["degrees"])
        else:
            a_key = key if t["class"] == "A" else key[::-1]
            out_vec = vectors.get(a_key, [0] * n)
            in_vec = vectors.get(a_key[::-1], [0] * n)
            ok = nx.is_digraphical(in_vec, out_vec)
            key = a_key
        if ok == (key in failed):
            return f"type r={key[0]} s={key[1]}: program {'fails' if key in failed else 'passes'} it, networkx disagrees"
    return None
