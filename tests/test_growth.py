"""Growth gates: work counted in-process on doubling ladders of inputs.

Wall time drifts between runs and machines; counted work does not.  Each
rung is a graph file and its balls as the tree file, on two ladders:

- a seeded G(n, 2n) at h = 3, for n = 1,250, 2,500 and 5,000;
- a seeded random cubic graph less 6 edges at h = 12, for n = 200, 400 and
  800, whose balls are long distinct trees.

Every command runs through `main` in this process:

- `Forest.node` calls, counted per command, may grow at most 2.2× per
  doubling of n (today 1.8–2.0× on G(n, 2n) and 2.0× on the cubic
  ladder), so a layer that goes quadratic in the nodes it interns fails
  here on any machine;
- on G(n, 2n), the entries handed to `havel_hakimi` and `kleitman_wang` by
  `realize` may not exceed the sum of the root degrees, 2m: a vertex is in
  a unit's support only if it has an edge of that unit, so a realizer run
  on more vertices than its support fails here.  They are not gated per
  doubling, since more types reach a support of 3 or more as n grows.
"""

from __future__ import annotations

import contextlib
import io
import random
from typing import Iterator

import pytest

from treegen import cubic_minus, gnm
from unicover import SimpleGraph, realize, trees, write_graph
from unicover.cli import main

H = 3
LADDER = (1250, 2500, 5000)
CUBIC_H = 12
CUBIC_LADDER = (200, 400, 800)


@contextlib.contextmanager
def _counting() -> Iterator[dict[str, int]]:
    """Count `Forest.node` calls and realizer entries while the block runs."""
    monkeypatch = pytest.MonkeyPatch()
    calls = {"node": 0, "entries": 0}
    node = trees.Forest.node

    def counted_node(self, child_ids):
        calls["node"] += 1
        return node(self, child_ids)

    def counted(realizer):
        def run(degrees):
            calls["entries"] += len(degrees)
            return realizer(degrees)

        return run

    monkeypatch.setattr(trees.Forest, "node", counted_node)
    monkeypatch.setattr(realize, "havel_hakimi", counted(realize.havel_hakimi))
    monkeypatch.setattr(realize, "kleitman_wang", counted(realize.kleitman_wang))
    try:
        yield calls
    finally:
        monkeypatch.undo()


def _node_calls(calls: dict[str, int], commands: dict[str, list[str]]) -> dict[str, int]:
    """`Forest.node` calls of each command, run in order through `main`; each must exit 0."""
    nodes = {}
    for name, argv in commands.items():
        calls["node"] = 0
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0, argv
        nodes[name] = calls["node"]
    return nodes


def _graph_file(path: str, graph: SimpleGraph) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        write_graph(graph, handle)
    return path


@pytest.fixture(scope="module")
def counts(tmp_path_factory) -> dict[int, tuple[dict[str, int], int, int]]:
    """Per rung: `Forest.node` calls per command, realizer entries, and the sum of the root degrees."""
    work = tmp_path_factory.mktemp("growth")
    result = {}
    with _counting() as calls:
        for n in LADDER:
            graph = SimpleGraph(n, gnm(random.Random(1), n, 2 * n))
            g = _graph_file(str(work / f"g-{n}.txt"), graph)
            t, out = (str(work / f"{name}-{n}.txt") for name in ("t", "out"))
            nodes = _node_calls(
                calls,
                {
                    "neighborhoods": ["neighborhoods", g, "--depth", str(H), "-o", t],
                    "check": ["check", t],
                    "realize --verify": ["realize", "--verify", t, "-o", out],
                    "verify --depth 3": ["verify", g, t, "--depth", str(H)],
                },
            )
            result[n] = (nodes, calls["entries"], 2 * len(graph.edges))
            calls["entries"] = 0
    return result


@pytest.fixture(scope="module")
def cubic_counts(tmp_path_factory) -> dict[int, dict[str, int]]:
    """Per rung of the cubic ladder: `Forest.node` calls per command."""
    work = tmp_path_factory.mktemp("growth-cubic")
    result = {}
    with _counting() as calls:
        for n in CUBIC_LADDER:
            g = _graph_file(str(work / f"g-{n}.txt"), SimpleGraph(n, cubic_minus(random.Random(2), n, 6)))
            t = str(work / f"t-{n}.txt")
            result[n] = _node_calls(
                calls,
                {
                    "neighborhoods": ["neighborhoods", g, "--depth", str(CUBIC_H), "-o", t],
                    "verify --depth 12": ["verify", g, t, "--depth", str(CUBIC_H)],
                },
            )
    return result


def _grow_at_most_2_2_times(nodes: list[int], command: str) -> None:
    assert nodes[0] > 0
    for small, large in zip(nodes, nodes[1:]):
        assert large <= 2.2 * small, (command, nodes)


@pytest.mark.parametrize("command", ["neighborhoods", "check", "realize --verify", "verify --depth 3"])
def test_interned_nodes_grow_at_most_2_2_times_per_doubling(counts, command):
    _grow_at_most_2_2_times([counts[n][0][command] for n in LADDER], command)


@pytest.mark.parametrize("command", ["neighborhoods", "verify --depth 12"])
def test_interned_nodes_grow_at_most_2_2_times_per_doubling_of_a_cubic_graph(cubic_counts, command):
    _grow_at_most_2_2_times([cubic_counts[n][command] for n in CUBIC_LADDER], command)


def test_realizer_entries_stay_within_the_root_degrees(counts):
    for n in LADDER:
        _, entries, degree_sum = counts[n]
        assert 0 < entries <= degree_sum, (n, entries, degree_sum)
