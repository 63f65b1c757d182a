"""Design rules checked on the source and the docs rather than on behaviour."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import unicover

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "unicover").glob("*.py"))


def _library_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


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


def test_guard_sees_direct_and_method_recursion():
    code = (
        "def walk(t):\n    return [walk(c) for c in t]\n"
        "class A:\n    def m(self):\n        return self.m()\n"
        "def cut(forest):\n    return forest.cut()\n"
    )
    assert _self_calls(ast.parse(code)) == ["walk (line 2)", "m (line 5)"]


def test_readme_library_names_every_export():
    section = _library_section()
    spans = re.findall(r"```.*?```|`[^`\n]+`", section, flags=re.S)
    named = set(re.findall(r"[A-Za-z_]\w*", " ".join(spans)))
    assert sorted(set(unicover.__all__) - named) == []


def test_readme_library_example_uses_only_exports():
    used = set(re.findall(r"\buc\.(\w+)", _library_section()))
    assert used and used <= set(unicover.__all__)
