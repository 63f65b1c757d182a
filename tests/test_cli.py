from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import random

import pytest

from unicover import cli, graphs, oracle, trees
from unicover.cli import main
from unicover.trees import Forest
import child
from treegen import cycle_graph, gnm, random_graph

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


def test_non_utf8_tree_file_names_the_file_and_offset(tmp_path, capsys):
    bad = tmp_path / "t.txt"
    bad.write_bytes(b"(())\n(\xff)\n")
    code, out, err = run(capsys, "check", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {bad}: not UTF-8 text (byte 0xff at offset 6)\n"


def test_crlf_tree_file_reads_like_lf(tmp_path, capsys):
    lf, crlf, cr = tmp_path / "lf.txt", tmp_path / "crlf.txt", tmp_path / "cr.txt"
    lf.write_bytes(b"((())(()))\n" * 4)
    crlf.write_bytes(b"((())(()))\r\n" * 4)
    cr.write_bytes(b"((())(()))\r" * 4)
    assert run(capsys, "check", str(crlf), "--explain") == run(capsys, "check", str(lf), "--explain")
    assert run(capsys, "check", str(cr), "--explain") == run(capsys, "check", str(lf), "--explain")


SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_tree_file_breaks_lines_only_where_the_library_does(tmp_path, capsys):
    # `str.splitlines` would read each separator as a line break and pass the file.
    for sep in SEPARATORS:
        path = write(tmp_path / "t.txt", f"(())\n(()){sep}(())\n")
        code, out, err = run(capsys, "check", path)
        assert (code, out) == (2, ""), repr(sep)
        assert err.startswith("error: line 2: trailing characters"), (repr(sep), err)
        with open(path, encoding="utf-8") as handle, pytest.raises(trees.ParseError, match="line 2: trailing"):
            trees.read_collection(handle)
    path = write(tmp_path / "t.txt", "()\f()\n(((\n")
    code, _, err = run(capsys, "check", path)
    assert code == 2 and err.startswith("error: line 1: "), err


def test_graph_file_breaks_lines_only_where_the_library_does(tmp_path, capsys):
    path = write(tmp_path / "g.txt", "n=2\f0 1\n")
    code, out, err = run(capsys, "neighborhoods", path, "--depth", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: line 1: bad vertex count"), err


def test_stdin_breaks_lines_only_where_the_library_does(capsys, monkeypatch):
    text = "(())\n(())\u2028(())\n"
    for stdin in (io.StringIO(text), io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")):
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "check", "-")
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2: trailing characters"), err


def test_graph_numbers_are_plain_ascii_digits(tmp_path, capsys):
    for text, line in [("n=5_0\n", 1), ("n=+3\n", 1), ("n=\u0663\n", 1), ("n=20\n1_0 2\n", 2)]:
        path = write(tmp_path / "g.txt", text)
        code, out, err = run(capsys, "neighborhoods", path, "--depth", "1")
        assert (code, out) == (2, ""), text
        assert err.startswith(f"error: line {line}: "), err


def test_non_utf8_graph_file_names_the_file(tmp_path, capsys):
    bad = tmp_path / "g.txt"
    bad.write_bytes(b"n=2\n0 \xfe1\n")
    code, out, err = run(capsys, "neighborhoods", str(bad), "--depth", "1")
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {bad}: not UTF-8 text (byte 0xfe at offset 6)\n"


def test_non_utf8_stdin_is_named_stdin(capsys, monkeypatch):
    # A real stdin may decode with surrogateescape (as in UTF-8 mode); the
    # bytes are decoded strictly all the same.
    stdin = io.TextIOWrapper(io.BytesIO(b"(())\n\xff\n"), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "check", "-")
    assert (code, out) == (2, "")
    assert err == "error: cannot read stdin: not UTF-8 text (byte 0xff at offset 5)\n"


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


def test_depth_error_lists_tree_positions_and_names_lines(tmp_path, capsys):
    # The comment line makes the deep tree's position (1) differ from its line (3).
    trees = write(tmp_path / "t.txt", "# a path's end and middle\n(())\n((()))\n")
    with pytest.raises(unicover.DepthError) as err:
        cli._roots(cli._read_lines(trees), 1, Forest())
    assert err.value.indices == (1,)
    code, out, err = run(capsys, "check", trees, "--depth", "1")
    assert (code, out, err) == (2, "", "error: trees deeper than --depth 1 on line(s) [3]\n")


def test_check_rejects_depth_zero(tmp_path, capsys):
    trees = write(tmp_path / "t.txt", "(())\n(())\n")
    code, out, err = run(capsys, "check", trees, "--depth", "0")
    assert (code, out, err) == (2, "", "error: --depth must be >= 1\n")


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


def test_oversized_graph_header_is_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(graphs, "MAX_VERTICES", 3)
    graph = write(tmp_path / "g.txt", "n=4\n0 1\n")
    code, out, err = run(capsys, "neighborhoods", graph, "--depth", "1")
    assert (code, out) == (2, "")
    assert err == "error: line 1: vertex count 4 exceeds the limit of 3\n"


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


def test_verify_rejects_stdin_for_both_inputs(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("n=2\n0 1\n"))
    code, out, err = run(capsys, "verify", "-", "-")
    assert (code, out) == (2, "")
    assert err == "error: the graph and the trees cannot both be read from stdin ('-')\n"


def test_selftest_rejects_values_that_run_no_case(capsys):
    # Each of these ran zero cases and passed.
    for args in (["--depth", "0"], ["--max-n", "-1"], ["--mutants-per-case", "-1", "--max-n", "1"]):
        code, out, err = run(capsys, "selftest", *args)
        assert (code, out) == (2, ""), args
        assert err.startswith("error: --") and "must be >=" in err, args


def test_selftest_rejects_max_n_above_the_brute_force_cap(capsys, monkeypatch):
    # The cap is checked before any case: n = 7 alone is 2^21 graphs to brute-force.
    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("a case ran")

    # cli imports the oracle inside cmd_selftest, so patch it at home.
    monkeypatch.setattr(oracle, "cross_validate", refuse)
    code, out, err = run(capsys, "selftest", "--max-n", "9", "--depth", "1")
    assert (code, out, calls) == (2, "", [])
    assert err == "error: --max-n must be <= 7, the brute-force cap on graph size\n"


def test_neighborhoods_rejects_negative_depth_before_reading_the_graph(tmp_path, capsys):
    # On the unreadable path, the depth error wins because nothing is read.
    graph = write(tmp_path / "g.txt", "n=2\n0 1\n")
    for path in (graph, str(tmp_path / "missing.txt")):
        code, out, err = run(capsys, "neighborhoods", path, "--depth", "-1")
        assert (code, out, err) == (2, "", "error: --depth must be >= 0\n"), path


def test_each_command_parses_into_one_forest(tmp_path, capsys, monkeypatch):
    rng = random.Random(8)
    graph = random_graph(rng, 12, 0.25)
    g_path = tmp_path / "g.txt"
    with open(g_path, "w") as handle:
        unicover.write_graph(graph, handle)
    t_path = tmp_path / "t.txt"
    with open(t_path, "w") as handle:
        unicover.write_collection(unicover.neighborhood_collection(graph, 3), handle)
    made = []
    init = trees.Forest.__init__

    def counted(self):
        made.append(self)
        init(self)

    monkeypatch.setattr(trees.Forest, "__init__", counted)
    g, t = str(g_path), str(t_path)
    for argv in (
        ["check", t],
        ["check", t, "--explain"],
        ["realize", t],
        ["realize", t, "--verify"],
        ["verify", g, t],
        ["neighborhoods", g, "--depth", "3"],
    ):
        made.clear()
        code, _, _ = run(capsys, *argv)
        assert (code, len(made)) == (0, 1), argv
    # selftest builds one Forest per cross_validate run: n = 0..3 times h = 1, 2.
    made.clear()
    code, _, _ = run(capsys, "selftest", "--max-n", "3", "--depth", "2")
    assert (code, len(made)) == (0, 8)


def test_selftest_small(capsys):
    code, out, _ = run(capsys, "selftest", "--max-n", "2", "--depth", "2", "--mutants-per-case", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["disagreements_total"] == 0
    assert doc["cases_total"] == sum(r["cases_total"] for r in doc["runs"])


def test_selftest_output_is_pinned(capsys):
    # Runs the table, the check and the realizer on 912 cases against brute force.
    code, out, err = run(capsys, "selftest", "--max-n", "4", "--depth", "3", "--mutants-per-case", "3", "--seed", "0")
    cases = {0: 4, 1: 4, 2: 8, 3: 32, 4: 256}
    runs = [
        {"n": n, "h": h, "cases_total": cases[n], "agreements": cases[n], "disagreements": []}
        for n in range(5)
        for h in (1, 2, 3)
    ]
    payload = {"cases_total": 912, "agreements": 912, "disagreements_total": 0, "runs": runs}
    assert (code, out, err) == (0, json.dumps(payload, indent=2) + "\n", "")
    # The digest that CHANGES.md quotes for this command's stdout.
    assert hashlib.sha256(out.encode()).hexdigest() == "929bf07550c49ecc9044b0287577a9739f5264f25d3f60e25357d83a1698396d"


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
    # Only a UnicoverError is bad input; a bare ValueError is a bug like any other.
    for error, message in (
        (RuntimeError, "RuntimeError: boom"),
        (ValueError, "ValueError: boom"),
        (cli.InternalInvariantError, "boom"),
    ):

        def boom(_args):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_check", boom)
        trees = write(tmp_path / "t.txt", "(())\n(())\n")
        code, out, err = run(capsys, "check", trees)
        assert code == 3
        assert out == ""
        assert err.splitlines() == [f"internal error (please report): {message}"]


class FullStream(io.TextIOBase):
    """A text stream whose every write fails as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failed_stdout_write_exits_2_for_every_command(tmp_path, capsys, monkeypatch):
    trees = write(tmp_path / "t.txt", "(())\n(())\n")
    bad = write(tmp_path / "bad.txt", "(())\n((()))\n")
    graph = write(tmp_path / "g.txt", "n=2\n0 1\n")
    monkeypatch.setattr("sys.stdout", FullStream())
    for argv in (
        ["check", trees],
        ["check", trees, "--explain"],
        ["check", bad, "--depth", "2"],
        ["realize", trees],
        ["realize", trees, "--format", "dot"],
        ["realize", bad, "--depth", "2"],
        ["neighborhoods", graph, "--depth", "1"],
        ["selftest", "--max-n", "2", "--depth", "1"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.splitlines()[-1] == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}", argv


def test_failed_file_write_exits_2(tmp_path, capsys):
    trees = write(tmp_path / "t.txt", "(())\n(())\n")
    graph = write(tmp_path / "g.txt", "n=2\n0 1\n")
    target = str(tmp_path / "missing" / "out.txt")
    for argv in (["realize", trees], ["neighborhoods", graph, "--depth", "1"]):
        code, out, err = run(capsys, *argv, "-o", target)
        assert (code, out) == (2, ""), argv
        assert err == f"error: cannot write {target}: No such file or directory\n", argv


def cli_process(work, hash_seed, *argv, **popen):
    """The CLI started by `child.launch` (which takes `cap`) in `work` under a fixed PYTHONHASHSEED.

    stdout is buffered, as Python sets it up by default.
    """
    return child.launch("-c", child.CLI, *argv, cwd=work, env=cli_env(hash_seed), **popen)


def run_process(work, hash_seed, *argv, **popen):
    """Run the CLI as its own process, as `cli_process` starts it; its exit code, stdout and stderr."""
    return child.run("-c", child.CLI, *argv, cwd=work, env=cli_env(hash_seed), **popen)


def cli_env(hash_seed):
    return {"PYTHONHASHSEED": str(hash_seed), "PYTHONUNBUFFERED": None}


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


def dumped_verdict(balls, depth, explain):
    """The verdict on `balls` at `depth`, and its table if `explain`, as `print(json.dumps(payload, indent=2))` does."""
    table = unicover.build_table(balls, depth)
    verdict = unicover.check_neighborhood(table)
    payload = {"graphical": verdict.graphical, "h": depth, "failures": [f.to_json_dict() for f in verdict.failures]}
    if explain:
        payload["table"] = table.to_json_dict()
    return json.dumps(payload, indent=2) + "\n"


VERDICTS = {
    # One vertex, one edge of a diagonal type: the support is one vertex, and k is null.
    "odd-diagonal-sum": "(())\n",
    "unbalanced-pair": "(())\n((()))\n",
    "eg-violation": "(()()())\n(()()())\n(())\n(())\n",
    "directed-eg-violation": "((()())(()()))\n((()())(()()))\n((()()))\n(()()(()))\n((())(())(()))\n((()()))\n",
    "no-trees": "",
    "no-failures": "((()))\n(()(()))\n(()(()))\n((()))\n",
    # The star K1,12 at depth 1: the centre's count, 12, takes two digits.
    "two-digit-count": "(" + "()" * 12 + ")\n" + "(())\n" * 12,
}


def collection(text):
    """The trees in `text` and the depth `check` reads them at: the deepest tree's, at least 1."""
    balls = unicover.read_collection(text.splitlines())
    return balls, max([1, *map(trees.depth, balls)])


@pytest.mark.parametrize("explain", [False, True], ids=["plain", "explain"])
@pytest.mark.parametrize("name", VERDICTS)
def test_check_writes_the_verdict_as_json_dumps_does(tmp_path, capsys, name, explain):
    want = dumped_verdict(*collection(VERDICTS[name]), explain)
    path = write(tmp_path / "t.txt", VERDICTS[name])
    code, out, err = run(capsys, "check", path, *(["--explain"] if explain else []))
    assert (code, out, err) == (0 if json.loads(want)["graphical"] else 1, want, "")
    if code == 1 and not explain:  # a rejecting realize writes the same verdict
        assert run(capsys, "realize", path)[:2] == (1, want)


def test_the_verdicts_cover_every_failure_kind_a_null_k_and_empty_lists():
    verdicts = [json.loads(dumped_verdict(*collection(text), True)) for text in VERDICTS.values()]
    failures = [f for v in verdicts for f in v["failures"]]
    assert {f["kind"] for f in failures} == {kind.value for kind in unicover.FailureKind}
    assert None in [f["k"] for f in failures] and [] in [v["failures"] for v in verdicts]
    assert {"h": 1, "n": 0, "types": []} in [v["table"] for v in verdicts]
    assert [1] in [t["degrees"] for v in verdicts for t in v["table"]["types"]]
    assert max(d for v in verdicts for t in v["table"]["types"] for d in t["degrees"]) >= 10
    # The one odd diagonal sum, whose k is null, and the one inverse pair that fails Gale-Ryser, at k = 2.
    named = dict(zip(VERDICTS, verdicts))
    odd = [{"type": {"r": "()", "s": "()"}, "kind": "OddDiagonalSum", "k": None}]
    subsum = [{"type": {"r": "(())", "s": "(()())"}, "kind": "DirectedEGViolation", "k": 2}]
    assert (named["odd-diagonal-sum"]["failures"], named["directed-eg-violation"]["failures"]) == (odd, subsum)


def test_check_explain_streams_the_dense_table_under_a_memory_cap(tmp_path):
    # 18.8 MB of output; built whole, the payload needs about 145 MB and fails under the cap.
    pytest.importorskip("resource")
    n = 600
    graph = unicover.SimpleGraph(n, gnm(random.Random(1), n, 2 * n))
    balls = unicover.neighborhood_collection(graph, 3)
    write(tmp_path / "t.txt", "".join(unicover.canonical_code(b) + "\n" for b in balls))
    want = dumped_verdict(balls, 3, True)
    del balls
    assert run_process(tmp_path, 0, "check", "--explain", "t.txt", cap=100 * 2**20) == (0, want.encode(), b"")


def test_check_streams_a_wide_root_verdict_under_a_memory_cap(tmp_path):
    # One root with 1,000 distinct children: 88 KB of input, 88.9 MB of output, since each
    # failure names a near side as long as the input.  Built whole, the verdict text needs
    # about 280 MB and fails under the cap; written one failure at a time, about 110 MB.
    pytest.importorskip("resource")
    pairs = [(a, s - a) for s in range(45) for a in range(s + 1)][:1000]
    line = "(" + "".join("(" + "()" * a + "(())" * b + ")" for a, b in pairs) + ")"
    write(tmp_path / "t.txt", line + "\n")
    verdict = unicover.check_neighborhood(unicover.build_table([unicover.parse_tree(line)], 4))
    assert len(verdict.failures) == 1000
    payload = {"graphical": verdict.graphical, "h": 4, "failures": [f.to_json_dict() for f in verdict.failures]}
    want = hashlib.sha256()
    for chunk in json.JSONEncoder(indent=2).iterencode(payload):
        want.update(chunk.encode())
    want.update(b"\n")
    del verdict, payload
    got = hashlib.sha256()
    with cli_process(tmp_path, 0, "check", "--depth", "4", "t.txt", cap=180 * 2**20) as proc:
        while chunk := proc.stdout.read(2**20):
            got.update(chunk)
        err = proc.stderr.read()
        proc.wait(timeout=120)
    assert (proc.returncode, err) == (1, b"")
    assert got.hexdigest() == want.hexdigest()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_stdout_on_a_full_device_exits_2(tmp_path):
    write(tmp_path / "t.txt", "(())\n(())\n")
    with open("/dev/full", "w") as full:
        code, _, err = run_process(tmp_path, 0, "check", "t.txt", stdout=full)
    assert (code, err.decode()) == (2, f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")


def test_stdout_into_a_closed_pipe_exits_2(tmp_path):
    n = 30000  # 450 KB of balls, more than a pipe holds
    write(tmp_path / "g.txt", f"n={n}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1)))
    with cli_process(tmp_path, 0, "neighborhoods", "g.txt", "--depth", "3") as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=120)
    assert (proc.returncode, err.decode()) == (2, f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n")
