"""Tests of the benchmark itself, at toy sizes.

Every workload runs end to end, untraced and traced, and each planted fault
in a program output must make the output checks count a failed command.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TOY = {
    "sparse-many-types": dict(n=40, param=80),
    "near-regular-deep": dict(n=24, param=2),
    "reject-wide": dict(n=40),
}


def toy(name: str):
    return dataclasses.replace(run.FAMILIES[name], **TOY[name])


@pytest.fixture
def bench_of(monkeypatch):
    """Prepared benches on toy inputs, removed afterwards."""
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    run.WORK.mkdir(exist_ok=True)
    dirs = []

    def make(name: str) -> run.Bench:
        work = Path(tempfile.mkdtemp(prefix="test-", dir=run.WORK))
        dirs.append(work)
        bench = run.Bench(toy(name), seed=7, work=work)
        bench.prepare()
        assert bench.failed == 0
        return bench

    yield make
    for work in dirs:
        shutil.rmtree(work, ignore_errors=True)


def declared(kind: str) -> set[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def test_workloads_match_the_declaration():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.FAMILIES)


@pytest.mark.parametrize("name", sorted(run.FAMILIES))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_clean(monkeypatch, name, trace):
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    result = run.run(toy(name), seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == declared("per_layer" if trace else "end_to_end")
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_repeat_for_a_seed(monkeypatch):
    """A traced run is only correct when every round counts the same work."""
    monkeypatch.setattr(run, "MIN_ROUNDS", 2)
    result = run.run(toy("sparse-many-types"), seed=5, seconds=0, trace=True)
    assert result["correct"]
    assert result["metrics"]["realize.kleitman_wang.calls"]["value"] > 0


def test_swapped_tree_line_fails(bench_of):
    bench = bench_of("sparse-many-types")
    inst = bench.inst
    child = bench.command("neighborhoods", inst)
    lines = child.output.splitlines()
    j = next(j for j, line in enumerate(lines) if len(line) != len(lines[0]))
    lines[0], lines[j] = lines[j], lines[0]
    bench.judge("neighborhoods", inst, dataclasses.replace(child, output="\n".join(lines) + "\n"))
    assert bench.failed == 1


def test_moved_edge_fails(bench_of):
    bench = bench_of("near-regular-deep")
    inst = bench.inst
    child = bench.command("realize", inst)
    header, *edges = child.output.splitlines()
    pairs = {tuple(map(int, e.split())) for e in edges}
    u, v = min(pairs)
    w = next(w for w in range(inst.n) if w != u and (min(u, w), max(u, w)) not in pairs)
    pairs = (pairs - {(u, v)}) | {(min(u, w), max(u, w))}
    moved = header + "\n" + "".join(f"{a} {b}\n" for a, b in sorted(pairs))
    bench.judge("realize", inst, dataclasses.replace(child, output=moved))
    assert bench.failed == 1


def test_rejected_collection_passed_off_as_graphical_fails(bench_of):
    bench = bench_of("reject-wide")
    inst = bench.inst
    child = bench.command("check", inst)
    assert bench.failed == 0
    h = inst.depth
    faked = json.dumps({"graphical": True, "h": h, "failures": []})
    bench.judge("check", inst, dataclasses.replace(child, rc=0, stdout=faked))
    graph = f"n={inst.n}\n"
    bench.judge("realize", inst, dataclasses.replace(child, rc=0, stdout="", output=graph))
    bench.judge("verify", inst, dataclasses.replace(child, rc=0, stdout="", stderr=""))
    assert bench.failed == 3


def test_explained_types_agree_with_networkx(bench_of):
    bench = bench_of("reject-wide")
    child = bench.command("check --explain", bench.inst)
    payload = json.loads(child.stdout)
    assert payload["failures"], "the planted collection must fail some type"
    assert bench.failed == 0
    # Claiming the failed types pass must be caught.
    payload["failures"] = []
    bench.judge("check --explain", bench.inst, dataclasses.replace(child, stdout=json.dumps(payload)))
    assert bench.failed == 1


def test_bare_directory_exits_nonzero():
    """Without the program's sources the benchmark refuses to run."""
    run.WORK.mkdir(exist_ok=True)
    tmp_path = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "reject-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
