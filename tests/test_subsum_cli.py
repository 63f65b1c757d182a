"""Replay the subsum-witness corpus: `check` and a rejecting `realize` must match byte for byte.

The golden corpus fails collections by balance and parity only; these
cases (`subsum_cli.json`, written by `make_subsum.py`) fail by the subsum
inequalities alone, so their outputs pin the witness k of both kinds.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from make_subsum import main_write
from unicover.cli import main

CORPUS_FILE = Path(__file__).with_name("subsum_cli.json")
CORPUS = json.loads(CORPUS_FILE.read_text(encoding="utf-8"))


def test_corpus_reaches_both_kinds_past_the_first_witness():
    found = {(f["kind"], f["k"]) for case in CORPUS for f in json.loads(case["stdout"])["failures"]}
    assert len(CORPUS) >= 20 and {case["exit"] for case in CORPUS} == {1}
    assert {kind for kind, _ in found} == {"EGViolation", "DirectedEGViolation"}
    assert {1, 2, 3} <= {k for _, k in found}


@pytest.mark.parametrize("case", CORPUS, ids=[f"case{i}" for i in range(len(CORPUS))])
def test_check_and_realize_match_the_corpus(case, tmp_path, capsys):
    trees = tmp_path / "t.txt"
    trees.write_text(case["trees"], encoding="utf-8")
    for command in ("check", "realize"):
        code = main([command, str(trees)])
        assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"]), command


def test_generator_rewrites_the_corpus_byte_for_byte(tmp_path):
    main_write(tmp_path / "subsum.json")
    assert (tmp_path / "subsum.json").read_bytes() == CORPUS_FILE.read_bytes()
