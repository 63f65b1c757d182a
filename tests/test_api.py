"""Design rules checked on the source, the docs and the exported records."""

from __future__ import annotations

import ast
import copy
import pickle
import re
import shlex
from importlib import import_module
from pathlib import Path

import pytest

import child
import unicover
from unicover import (
    Disagreement,
    EdgeType,
    FailureKind,
    FailureRecord,
    OracleReport,
    SimpleGraph,
    Verdict,
    build_table,
    cross_validate,
    parse_tree,
)
from unicover.cli import main

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "unicover").glob("*.py"))


def _section(heading: str) -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _session() -> list[tuple[list[str], str]]:
    """README's command-line session: each `$` command, split as sh splits it, and the text shown under it."""
    steps: list[tuple[list[str], list[str]]] = []
    for line in _section("Command line").split("```sh\n", 1)[1].split("```", 1)[0].splitlines(keepends=True):
        if line.startswith("$ "):
            steps.append((shlex.split(line[2:], comments=True), []))
        else:
            steps[-1][1].append(line)
    return [(argv, "".join(shown)) for argv, shown in steps]


def _self_calls(tree: ast.Module) -> list[str]:
    """Functions that call themselves by name (or as `self.name`/`cls.name`)."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(func):
            if not isinstance(call, ast.Call):
                continue
            target = call.func
            if isinstance(target, ast.Name) and target.id == func.name:
                found.append(f"{func.name} (line {call.lineno})")
            elif (
                isinstance(target, ast.Attribute)
                and target.attr == func.name
                and isinstance(target.value, ast.Name)
                and target.value.id in ("self", "cls")
            ):
                found.append(f"{func.name} (line {call.lineno})")
    return found


def test_no_function_calls_itself():
    # Input sizes set the depth of trees and walks, so nothing may recurse.
    assert SOURCES
    offenders = {
        path.name: calls
        for path in SOURCES
        if (calls := _self_calls(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}


def test_only_trees_reads_the_forest_internals():
    # Forest's interning tables and memos are its own; other modules go through its methods.
    private = {"_cuts", "_ids", "_trees"}
    readers = {
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "trees.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in private
    }
    assert readers == set()


def test_guard_sees_direct_and_method_recursion():
    code = (
        "def walk(t):\n    return [walk(c) for c in t]\n"
        "class A:\n    def m(self):\n        return self.m()\n"
        "def cut(forest):\n    return forest.cut()\n"
    )
    assert _self_calls(ast.parse(code)) == ["walk (line 2)", "m (line 5)"]


def test_readme_library_names_every_export():
    section = _section("Library")
    spans = re.findall(r"```.*?```|`[^`\n]+`", section, flags=re.S)
    named = set(re.findall(r"[A-Za-z_]\w*", " ".join(spans)))
    assert sorted(set(unicover.__all__) - named) == []


def test_readme_library_example_uses_only_exports():
    used = set(re.findall(r"\buc\.(\w+)", _section("Library")))
    assert used and used <= set(unicover.__all__)


def test_readme_command_line_session_runs_as_shown(tmp_path, monkeypatch, capsysbinary):
    # What each command writes (stdout, then stderr), and each file that `cat` shows, must be README's bytes.
    monkeypatch.chdir(tmp_path)
    steps = _session()
    assert [argv[0] for argv, _ in steps] == ["printf", "unicover", "cat", "unicover", "unicover", "unicover"]
    for argv, shown in steps:
        if argv[0] == "printf":  # printf FORMAT > FILE, where \n is the format's one escape
            [text, redirect, name] = argv[1:]
            assert redirect == ">" and "%" not in text
            Path(name).write_bytes(text.replace("\\n", "\n").encode())
        elif argv[0] == "cat":
            [name] = argv[1:]
            assert Path(name).read_bytes() == shown.encode(), name
        else:
            assert main(argv[1:]) == 0, argv
            out, err = capsysbinary.readouterr()
            assert out + err == shown.encode(), argv


def test_readme_library_example_runs_in_dev_mode(tmp_path):
    trees = next(shown for argv, shown in _session() if argv == ["cat", "path.trees"])
    (tmp_path / "path.trees").write_text(trees, encoding="utf-8")
    example = _section("Library").split("```python\n", 1)[1].split("```", 1)[0]
    code, _, err = child.run("-X", "dev", "-W", "error::ResourceWarning", "-c", example, cwd=tmp_path, text=True)
    assert (code, err) == (0, "")


def test_readme_library_helpers_exist():
    # A helper deleted without its README line fails here.
    dotted = re.findall(r"\bunicover\.(\w+)\.(\w+)", _section("Library"))
    assert len(dotted) > 5
    assert [f"{m}.{n}" for m, n in dotted if not hasattr(import_module(f"unicover.{m}"), n)] == []


def test_records_are_immutable():
    # README: "All values are immutable after construction".
    diag = EdgeType("()", "()")
    table = build_table([parse_tree("(())")] * 2, 1)
    records = [
        (parse_tree("(())"), "children"),
        (diag, "near"),
        (table, "plan"),
        (FailureRecord(diag, FailureKind.ODD_DIAGONAL_SUM), "witness_k"),
        (Verdict(True), "failures"),
        (SimpleGraph(3, [(0, 1)]), "n"),
        (cross_validate(2, 1, mutants_per_case=1), "disagreements"),
    ]
    for record, field in records:
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_records_copy_and_pickle():
    tree = parse_tree("(()(()))")
    table = build_table([tree, parse_tree("(())"), parse_tree("()"), parse_tree("(())")], 2)
    graph = SimpleGraph(4, [(2, 0), (1, 2)])
    report = cross_validate(2, 1, mutants_per_case=1)
    for clone in (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))):
        assert clone(tree) == tree
        assert clone(report) == report
        for record in (table, graph):
            twin = clone(record)
            assert [getattr(twin, name) for name in record.__slots__] == [
                getattr(record, name) for name in record.__slots__
            ]


def test_tables_compare_and_hash_by_identity():
    trees = [parse_tree("(())")] * 2
    first, second = build_table(trees, 1), build_table(trees, 1)
    assert first == first and first != second
    assert hash(first) == object.__hash__(first)
    assert len({first, second}) == 2


def test_named_tuple_records_keep_their_repr_and_compare_as_tuples():
    assert repr(EdgeType("()", "(())")) == "EdgeType(near='()', far='(())')"
    assert EdgeType("()", "(())") == ("()", "(())")
    assert Verdict(True) == (True, ())
    disagreement, report = Disagreement(("()",), True, False), OracleReport(1, 1, 2, 2, ())
    assert repr(disagreement) == "Disagreement(collection=('()',), checker=True, oracle=False, detail='')"
    assert disagreement == (("()",), True, False, "")
    assert repr(report) == "OracleReport(n=1, depth=1, cases_total=2, agreements=2, disagreements=())"
    assert report == (1, 1, 2, 2, ())


def test_cli_writes_results_only_through_write():
    # One function owns stdout, so every failed write of a result exits 2.
    tree = ast.parse((ROOT / "src" / "unicover" / "cli.py").read_text(encoding="utf-8"))
    inside = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name == "_write"
        for node in ast.walk(func)
    }
    offenders = [
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "stdout"
            and isinstance(node.value, ast.Name)
            and node.value.id == "sys"
            and id(node) not in inside
        )
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
            and not any(k.arg == "file" for k in node.keywords)
        )
    ]
    assert inside and offenders == []
