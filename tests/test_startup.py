"""What a process loads: each command imports only the modules it runs.

Importing `dataclasses` drags in `inspect`, `ast`, `dis` and `tokenize`, so
no command, `selftest` included, loads any of them: the result records are
named tuples.  The brute-force oracle and `json` are only for `selftest`, so
no other command loads them: a verdict is written from its fixed schema,
without `json`.  The package resolves its exports lazily, so `import
unicover` alone loads no submodule.  Each probe runs in a fresh interpreter,
because this test process has long since imported everything.
"""

from __future__ import annotations

import json
from importlib import import_module

import pytest

import child
import unicover

# Runs one CLI command, then reports on stderr's last line what it loaded, recorded before the report imports json.
PROBE = (
    "import sys\n"
    "from unicover.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "loaded = sorted(sys.modules)\n"
    "import json\n"
    "sys.stderr.write('\\n' + json.dumps(loaded))\n"
    "sys.exit(code)\n"
)
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def python(work, code: str, *argv: str) -> tuple[int, str, str]:
    return child.run("-c", code, *argv, cwd=work, text=True)


def loaded_by(work, *argv: str, exit_code: int = 0) -> set[str]:
    code, _, err = python(work, PROBE, *argv)
    assert code == exit_code, (argv, err)
    return set(json.loads(err.splitlines()[-1]))


def test_commands_other_than_selftest_load_no_dataclasses_and_no_oracle(tmp_path):
    (tmp_path / "g.txt").write_text("n=4\n0 1\n1 2\n2 3\n0 3\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("((())(()))\n" * 4, encoding="utf-8")
    (tmp_path / "u.txt").write_text("(())\n((()))\n", encoding="utf-8")  # an unbalanced pair: a failure is written
    for argv, exit_code in (
        (["check", "t.txt"], 0),
        (["check", "t.txt", "--explain"], 0),
        (["check", "u.txt", "--explain"], 1),
        (["realize", "u.txt"], 1),
        (["realize", "t.txt", "--verify", "-o", "out.txt"], 0),
        (["neighborhoods", "g.txt", "--depth", "2"], 0),
        (["verify", "g.txt", "t.txt"], 0),
    ):
        loaded = loaded_by(tmp_path, *argv, exit_code=exit_code)
        assert loaded & (HEAVY | {"unicover.oracle", "json"}) == set(), argv


def test_selftest_still_loads_the_oracle(tmp_path):
    loaded = loaded_by(tmp_path, "selftest", "--max-n", "2", "--depth", "1")
    assert {"unicover.oracle", "json"} <= loaded and loaded & HEAVY == set()


def test_importing_the_package_loads_no_submodule(tmp_path):
    probe = (
        "import json, sys, unicover\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('unicover.')), dir(unicover)]))\n"
    )
    code, out, err = python(tmp_path, probe)
    assert code == 0, err
    submodules, names = json.loads(out)
    assert submodules == []
    assert set(unicover.__all__) <= set(names)


def test_every_export_is_its_home_modules_object():
    assert len(unicover.__all__) == len(set(unicover.__all__)) == 42
    for name in unicover.__all__:
        value = getattr(unicover, name)
        assert value.__module__.startswith("unicover."), name
        assert getattr(import_module(value.__module__), name) is value, name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from unicover import *", namespace)
    assert {name: namespace[name] for name in unicover.__all__} == {
        name: getattr(unicover, name) for name in unicover.__all__
    }


def test_unknown_and_unexported_names_raise_attribute_error():
    for name in ("no_such_name", "Forest", "table_from_ids"):
        with pytest.raises(AttributeError, match=name):
            getattr(unicover, name)
