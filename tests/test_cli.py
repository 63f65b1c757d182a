from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from unicover import cli
from unicover.cli import main
from treegen import cycle_graph, random_graph

import unicover


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_single_edge_pair(tmp_path, capsys):
    trees = write(tmp_path / "t.txt", "(())\n(())\n")
    code, out, _ = run(capsys, "check", trees)
    doc = json.loads(out)
    assert code == 0
    assert doc == {"graphical": True, "h": 1, "failures": []}


def test_check_unbalanced_pair_fails_with_named_type(tmp_path, capsys):
    trees = write(tmp_path / "t.txt", "(())\n((()))\n")
    code, out, _ = run(capsys, "check", trees, "--depth", "2")
    doc = json.loads(out)
    assert code == 1
    assert doc["graphical"] is False
    kinds = {(f["kind"], json.dumps(f["type"], sort_keys=True)) for f in doc["failures"]}
    assert ("UnbalancedPair", json.dumps({"r": "()", "s": "(())"}, sort_keys=True)) in kinds


def test_check_cycle_collection(tmp_path, capsys):
    trees = write(tmp_path / "t.txt", "((())(()))\n" * 4)
    code, out, _ = run(capsys, "check", trees)
    assert code == 0
    assert json.loads(out)["h"] == 2


def test_check_explain_includes_table(tmp_path, capsys):
    trees = write(tmp_path / "t.txt", "(())\n(())\n")
    code, out, _ = run(capsys, "check", trees, "--explain")
    doc = json.loads(out)
    assert code == 0
    assert doc["table"]["n"] == 2
    assert doc["table"]["types"][0]["class"] == "diag"


def test_check_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("(())\n(())\n"))
    code, out, _ = run(capsys, "check", "-")
    assert code == 0 and json.loads(out)["graphical"]


def test_check_parse_error_names_line(tmp_path, capsys):
    trees = write(tmp_path / "t.txt", "(())\n(()\n")
    code, _, err = run(capsys, "check", trees)
    assert code == 2
    assert "line 2" in err


def test_check_depth_too_small_names_line(tmp_path, capsys):
    trees = write(tmp_path / "t.txt", "(())\n((()))\n")
    code, _, err = run(capsys, "check", trees, "--depth", "1")
    assert code == 2
    assert "line(s) [2]" in err


def test_realize_writes_edge_list(tmp_path, capsys):
    trees = write(tmp_path / "t.txt", "(())\n(())\n")
    out_path = tmp_path / "g.txt"
    code, _, _ = run(capsys, "realize", trees, "-o", str(out_path))
    assert code == 0
    assert out_path.read_text() == "n=2\n0 1\n"


def test_realize_with_verify_and_dot(tmp_path, capsys):
    trees = write(tmp_path / "t.txt", "((())(()))\n" * 4)
    out_path = tmp_path / "g.dot"
    code, _, _ = run(capsys, "realize", trees, "-o", str(out_path), "--verify", "--format", "dot")
    assert code == 0
    assert "graph G {" in out_path.read_text()


def test_realize_nongraphical_writes_nothing(tmp_path, capsys):
    trees = write(tmp_path / "t.txt", "(())\n((()))\n")
    out_path = tmp_path / "g.txt"
    code, out, err = run(capsys, "realize", trees, "-o", str(out_path), "--depth", "2")
    assert code == 1
    assert not out_path.exists()
    assert "not graphical" in err
    assert json.loads(out)["graphical"] is False


def test_neighborhoods_of_single_edge(tmp_path, capsys):
    graph = write(tmp_path / "g.txt", "n=2\n0 1\n")
    code, out, _ = run(capsys, "neighborhoods", graph, "--depth", "1")
    assert code == 0
    assert out == "(())\n(())\n"


def test_neighborhoods_of_empty_graph(tmp_path, capsys):
    graph = write(tmp_path / "g.txt", "n=3\n")
    code, out, _ = run(capsys, "neighborhoods", graph, "--depth", "2")
    assert code == 0
    assert out == "()\n()\n()\n"


def test_neighborhoods_rejects_malformed_graph(tmp_path, capsys):
    graph = write(tmp_path / "g.txt", "n=2\n0 0\n")
    code, _, err = run(capsys, "neighborhoods", graph, "--depth", "1")
    assert code == 2
    assert "loop" in err


def test_verify_match_and_mismatch(tmp_path, capsys):
    graph = write(tmp_path / "g.txt", "n=2\n0 1\n")
    good = write(tmp_path / "good.txt", "(())\n(())\n")
    bad = write(tmp_path / "bad.txt", "(())\n(()())\n")
    assert run(capsys, "verify", graph, good)[0] == 0
    code, _, err = run(capsys, "verify", graph, bad)
    assert code == 1
    assert "vertex 1" in err


def test_verify_size_mismatch_is_input_error(tmp_path, capsys):
    graph = write(tmp_path / "g.txt", "n=3\n0 1\n")
    trees = write(tmp_path / "t.txt", "(())\n(())\n")
    code, out, err = run(capsys, "verify", graph, trees)
    assert (code, out, err) == (2, "", "error: 2 trees for a graph on 3 vertices\n")


def test_selftest_small(capsys):
    code, out, _ = run(capsys, "selftest", "--max-n", "2", "--depth", "2", "--mutants-per-case", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["disagreements_total"] == 0
    assert doc["cases_total"] == sum(r["cases_total"] for r in doc["runs"])


def test_composition_law(tmp_path, capsys):
    # neighborhoods | check | realize --verify | verify must all succeed
    rng = random.Random(2)
    for graph in (cycle_graph(5), random_graph(rng, 8, 0.3)):
        g_path = tmp_path / "g.txt"
        with open(g_path, "w") as handle:
            unicover.write_graph(graph, handle)
        t_path = tmp_path / "t.txt"
        code, out, _ = run(capsys, "neighborhoods", str(g_path), "--depth", "2", "-o", str(t_path))
        assert code == 0
        assert run(capsys, "check", str(t_path))[0] == 0
        r_path = tmp_path / "r.txt"
        assert run(capsys, "realize", str(t_path), "-o", str(r_path), "--verify")[0] == 0
        assert run(capsys, "verify", str(r_path), str(t_path))[0] == 0
        assert run(capsys, "verify", str(g_path), str(t_path), "--depth", "2")[0] == 0


def test_outputs_are_deterministic(tmp_path, capsys):
    trees = write(tmp_path / "t.txt", "((())(()))\n" * 4)
    first = run(capsys, "check", trees, "--explain")
    second = run(capsys, "check", trees, "--explain")
    assert first == second


def _chain(length: int) -> str:
    return "(" * length + ")" * length


def test_neighborhoods_of_a_long_path_at_great_depth(tmp_path, capsys):
    n, depth = 600, 590
    graph = write(tmp_path / "g.txt", f"n={n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    code, out, err = run(capsys, "neighborhoods", graph, "--depth", str(depth))
    assert (code, err) == (0, "")
    want = []
    for v in range(n):
        arms = sorted((min(v, depth), min(n - 1 - v, depth)))
        want.append("(" + "".join(_chain(a) for a in arms if a) + ")")
    assert out.splitlines() == want


def test_check_on_a_very_deep_pair_is_a_verdict(tmp_path, capsys):
    # A root over a leaf and a path `levels` deep, twice: at 400 levels this
    # rejects with two unbalanced pairs, and 700 levels must give the same
    # verdict, not a crash.
    for levels in (400, 700):
        path = _chain(levels + 1)
        trees = write(tmp_path / "t.txt", ("(()" + path + ")\n") * 2)
        code, out, err = run(capsys, "check", trees)
        doc = json.loads(out)
        assert code == 1 and err == ""
        assert doc["graphical"] is False
        assert doc["h"] == levels + 1
        kinds = [(f["kind"], f["type"]["r"], f["type"]["s"]) for f in doc["failures"]]
        assert kinds == [("UnbalancedPair", "()", path), ("UnbalancedPair", "(())", path)]


def test_unexpected_exception_exits_3_without_traceback(tmp_path, capsys, monkeypatch):
    def boom(_args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_check", boom)
    trees = write(tmp_path / "t.txt", "(())\n(())\n")
    code, out, err = run(capsys, "check", trees)
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["internal error (please report): RuntimeError: boom"]


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_process(work, hash_seed, *argv):
    """Run the CLI as its own process in `work` under a fixed PYTHONHASHSEED."""
    path = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=os.pathsep.join(path))
    entry = "import sys; from unicover.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", entry, *argv], cwd=work, env=env, capture_output=True, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    rng = random.Random(60)
    graph = random_graph(rng, 60, 0.05)
    buf = io.StringIO()
    unicover.write_graph(graph, buf)
    mutant = unicover.neighborhood_collection(graph, 3)
    for _ in range(3):
        mutant = unicover.mutate_collection(mutant, rng)
    mutant_text = io.StringIO()
    unicover.write_collection(mutant, mutant_text)
    results = []
    for hash_seed in (0, 1):
        work = tmp_path / f"hash{hash_seed}"
        work.mkdir()
        write(work / "g.txt", buf.getvalue())
        write(work / "mutant.txt", mutant_text.getvalue())
        runs = [
            run_process(work, hash_seed, "neighborhoods", "g.txt", "--depth", "3", "-o", "balls.txt"),
            run_process(work, hash_seed, "check", "balls.txt", "--explain"),
            run_process(work, hash_seed, "realize", "balls.txt", "--verify", "-o", "out.graph"),
            run_process(work, hash_seed, "check", "mutant.txt", "--explain"),
        ]
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        results.append((runs, files))
    assert results[0] == results[1]
    runs, files = results[0]
    assert [code for code, _, _ in runs] == [0, 0, 0, 1]
    assert sorted(files) == ["balls.txt", "g.txt", "mutant.txt", "out.graph"]
