"""The process entry: `main()` with no arguments, as the `unicover` script calls it.

Such a process ends without interpreter teardown, so Python's flush at exit
never runs and whatever is still buffered is lost.  These tests start the
CLI the way the script does, with stdout block-buffered into a pipe, and
check that every result and diagnostic still arrives: a sample of the
golden corpus's runs (the first and the last case of each command and exit
code), the same results written to `-o FILE`, and the partial result of a
command that fails midway, which must equal what an in-process run writes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import child
from unicover.cli import main
from unicover.edge_types import TypedDegreeTable

CORPUS = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))

# Makes TypedDegreeTable.json_types fail after its first type, a bug in the middle of `check --explain`.
BREAK = (
    "from unicover.edge_types import TypedDegreeTable\n"
    "whole = TypedDegreeTable.json_types\n"
    "def json_types(self):\n"
    "    yield next(whole(self))\n"
    "    raise RuntimeError('the table broke after one type')\n"
    "TypedDegreeTable.json_types = json_types\n"
)


def sample() -> list[tuple[int, int]]:
    """(case, run) indices of the first and the last corpus run of each command and exit code."""
    runs: dict[tuple, list[tuple[int, int]]] = {}
    for i, case in enumerate(CORPUS):
        for j, run in enumerate(case["runs"]):
            runs.setdefault((run["argv"][0], run["exit"]), []).append((i, j))
    return sorted({at for ats in runs.values() for at in (ats[0], ats[-1])})


def process(work: Path, *argv: str, code: str = child.CLI) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of the CLI run as its own process in `work`, stdout block-buffered."""
    return child.run("-c", code, *argv, cwd=work, env={"PYTHONUNBUFFERED": None})


@pytest.mark.parametrize("at", sample(), ids=lambda at: f"case{at[0]}-{'-'.join(CORPUS[at[0]]['runs'][at[1]]['argv'])}")
def test_a_process_writes_the_corpus_results(tmp_path, at):
    case = CORPUS[at[0]]
    want = case["runs"][at[1]]
    (tmp_path / "GRAPH").write_text(case["graph"], encoding="utf-8")
    (tmp_path / "TREES").write_text(case["trees"], encoding="utf-8")
    expected = (want["exit"], want["stdout"].encode(), want["stderr"].encode())
    assert process(tmp_path, *want["argv"]) == expected
    if want["argv"][0] in ("neighborhoods", "realize") and want["exit"] == 0:
        assert process(tmp_path, *want["argv"], "-o", "out.txt") == (0, b"", expected[2])
        assert (tmp_path / "out.txt").read_bytes() == expected[1]


def test_a_process_that_fails_midway_still_writes_what_it_wrote(tmp_path, capsys, monkeypatch):
    (tmp_path / "t.txt").write_text("((()))\n(()(()))\n(()(()))\n((()))\n", encoding="utf-8")
    argv = ["check", "t.txt", "--explain"]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(TypedDegreeTable, "json_types", TypedDegreeTable.json_types)  # restored after the test
    exec(BREAK, {})
    assert main(argv) == 3
    partial = capsys.readouterr()
    err = "internal error (please report): RuntimeError: the table broke after one type\n"
    assert partial.err == err
    assert 0 < len(partial.out) < len(whole) and whole.startswith(partial.out)
    assert process(tmp_path, *argv, code=BREAK + child.CLI) == (3, partial.out.encode(), err.encode())
