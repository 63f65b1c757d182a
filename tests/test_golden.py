"""Replay the golden corpus: CLI outputs must match byte for byte.

The corpus (`golden_cli.json`, written by `make_golden.py`) holds about a
hundred small graphs and tree collections with the `neighborhoods`,
`check --explain`, `realize` and `verify` results recorded for them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from unicover.cli import main

CORPUS = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CORPUS, ids=[f"case{i}-{c['kind']}" for i, c in enumerate(CORPUS)])
def test_cli_outputs_match_the_corpus(case, tmp_path, capsys):
    paths = {"GRAPH": tmp_path / "g.txt", "TREES": tmp_path / "t.txt"}
    paths["GRAPH"].write_text(case["graph"], encoding="utf-8")
    paths["TREES"].write_text(case["trees"], encoding="utf-8")
    for want in case["runs"]:
        code = main([str(paths[a]) if a in paths else a for a in want["argv"]])
        got = capsys.readouterr()
        assert (code, got.out, got.err) == (want["exit"], want["stdout"], want["stderr"]), want["argv"]
