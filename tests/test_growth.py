"""Growth gates: work counted in-process on a doubling ladder of inputs.

Wall time drifts between runs and machines; counted work does not.  Each
rung is a seeded G(n, 2n) at h = 3, for n = 1,250, 2,500 and 5,000: its
graph file, and its balls as the tree file.  Every command runs through
`main` in this process:

- `Forest.node` calls, counted per command, may grow at most 2.2× per
  doubling of n (today 1.8–2.0×), so a layer that goes quadratic in the
  nodes it interns fails here on any machine;
- the entries handed to `havel_hakimi` and `kleitman_wang` by `realize`
  may not exceed the sum of the root degrees, 2m: a vertex is in a unit's
  support only if it has an edge of that unit, so a realizer run on more
  vertices than its support fails here.  They are not gated per doubling,
  since more types reach a support of 3 or more as n grows.
"""

from __future__ import annotations

import contextlib
import io
import random

import pytest

from treegen import gnm
from unicover import SimpleGraph, realize, trees, write_graph
from unicover.cli import main

H = 3
LADDER = (1250, 2500, 5000)


@pytest.fixture(scope="module")
def counts(tmp_path_factory) -> dict[int, tuple[dict[str, int], int, int]]:
    """Per rung: `Forest.node` calls per command, realizer entries, and the sum of the root degrees."""
    monkeypatch = pytest.MonkeyPatch()
    work = tmp_path_factory.mktemp("growth")
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
    result = {}
    try:
        for n in LADDER:
            graph = SimpleGraph(n, gnm(random.Random(1), n, 2 * n))
            g, t, out = (str(work / f"{name}-{n}.txt") for name in ("g", "t", "out"))
            with open(g, "w", encoding="utf-8") as handle:
                write_graph(graph, handle)
            nodes = {}
            for name, argv in {
                "neighborhoods": ["neighborhoods", g, "--depth", str(H), "-o", t],
                "check": ["check", t],
                "realize --verify": ["realize", "--verify", t, "-o", out],
                "verify --depth 3": ["verify", g, t, "--depth", str(H)],
            }.items():
                calls["node"] = 0
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    assert main(argv) == 0, argv
                nodes[name] = calls["node"]
            result[n] = (nodes, calls["entries"], 2 * len(graph.edges))
            calls["entries"] = 0
    finally:
        monkeypatch.undo()
    return result


@pytest.mark.parametrize("command", ["neighborhoods", "check", "realize --verify", "verify --depth 3"])
def test_interned_nodes_grow_at_most_2_2_times_per_doubling(counts, command):
    nodes = [counts[n][0][command] for n in LADDER]
    assert nodes[0] > 0
    for small, large in zip(nodes, nodes[1:]):
        assert large <= 2.2 * small, (command, nodes)


def test_realizer_entries_stay_within_the_root_degrees(counts):
    for n in LADDER:
        _, entries, degree_sum = counts[n]
        assert 0 < entries <= degree_sum, (n, entries, degree_sum)
