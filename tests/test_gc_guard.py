"""No command leaves more for the cyclic collector on a larger input.

Each command's `args.func` runs in-process under `gc.DEBUG_SAVEALL`, which
keeps every object the collector finds unreachable in `gc.garbage` instead of
freeing it.  The count must be the same on the depth-3 balls of a seeded
G(100, 200) as on G(1,000, 2,000): a command whose count grows with the input
makes a reference cycle per item, and keeps the collector busy on the command
path.  The collector itself stays on.
"""

from __future__ import annotations

import gc
import os
import random
from contextlib import redirect_stdout

import pytest

from treegen import gnm
from unicover.cli import build_parser, main

COMMANDS = {
    "check": ["check", "{t}"],
    "check --explain": ["check", "{t}", "--explain"],
    "realize --verify": ["realize", "{t}", "--verify", "-o", "{out}"],
    "neighborhoods": ["neighborhoods", "{g}", "--depth", "3"],
    "verify": ["verify", "{g}", "{t}"],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Graph and ball files, by size, for G(n, 2n) at n = 100 and 1,000, seed 1."""
    work = tmp_path_factory.mktemp("gc")
    files = {}
    for n in (100, 1000):
        g, t = work / f"g{n}.txt", work / f"t{n}.txt"
        g.write_text(f"n={n}\n" + "".join(f"{u} {v}\n" for u, v in gnm(random.Random(1), n, 2 * n)), encoding="utf-8")
        assert main(["neighborhoods", str(g), "--depth", "3", "-o", str(t)]) == 0
        files[n] = {"g": str(g), "t": str(t), "out": str(work / f"out{n}.txt")}
    return files


def garbage_left(argv: list[str]) -> int:
    """Objects the collector finds unreachable after `args.func` of `argv`, its stdout going to the null device."""
    args = build_parser().parse_args(argv)
    with open(os.devnull, "w") as null, redirect_stdout(null):
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            args.func(args)
            gc.collect()
            return len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_leaves_as_much_garbage_on_a_larger_graph(inputs, command):
    counts = [garbage_left([a.format(**inputs[n]) for a in COMMANDS[command]]) for n in (100, 1000)]
    assert counts[0] == counts[1], counts
