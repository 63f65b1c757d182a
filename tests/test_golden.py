"""Replay the golden corpus: CLI outputs must match byte for byte.

The corpus (`golden_cli.json`, written by `make_golden.py`) holds about a
hundred small graphs and tree collections with the `neighborhoods`,
`check --explain`, `realize` and `verify` results recorded for them.  The
generator itself must also rewrite the corpus byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from make_golden import main_write
from unicover.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
CORPUS = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CORPUS, ids=[f"case{i}-{c['kind']}" for i, c in enumerate(CORPUS)])
def test_cli_outputs_match_the_corpus(case, tmp_path, capsys):
    paths = {"GRAPH": tmp_path / "g.txt", "TREES": tmp_path / "t.txt"}
    paths["GRAPH"].write_text(case["graph"], encoding="utf-8")
    paths["TREES"].write_text(case["trees"], encoding="utf-8")
    for want in case["runs"]:
        code = main([str(paths[a]) if a in paths else a for a in want["argv"]])
        got = capsys.readouterr()
        assert (code, got.out, got.err) == (want["exit"], want["stdout"], want["stderr"]), want["argv"]


def test_generator_rewrites_the_corpus_byte_for_byte(tmp_path):
    # Pins the generator's inputs too (graphs, shuffles, mutate_collection
    # draws), not only the outputs replayed above.
    main_write(tmp_path / "golden.json")
    assert (tmp_path / "golden.json").read_bytes() == GOLDEN.read_bytes()
