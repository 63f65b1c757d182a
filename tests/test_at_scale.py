"""Byte identity at scale: the sha256 of every CLI output on three seeded inputs.

The golden corpus (`test_golden.py`) pins about a hundred graphs of at most
six vertices.  This pins, for each input below, the exit code and the
sha256 of stdout, stderr and every file written by `neighborhoods`,
`check`, `realize --verify -o` and `verify --depth H`:

- G(10⁴, 2·10⁴) at h = 3, its balls as the trees;
- a random cubic graph on 400 vertices less 6 edges at h = 12, likewise;
- G(2000, 4000) at h = 2 with tree 7 replaced by "(())", which no graph
  realizes, so `check`, `realize` and `verify` give negative verdicts.

The inputs come from the seeded generators in `treegen.py`, and their files
are pinned too.  Regenerate only when an output is meant to change:

    PYTHONPATH=src:tests python tests/test_at_scale.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from treegen import cubic_minus, gnm
from unicover.cli import main

# name: (graph edges from a seeded generator, n, h, line replaced by "(())" or None)
INPUTS = {
    "gnm-10000": (lambda: gnm(random.Random(1), 10_000, 20_000), 10_000, 3, None),
    "cubic-400": (lambda: cubic_minus(random.Random(2), 400, 6), 400, 12, None),
    "reject-2000": (lambda: gnm(random.Random(3), 2000, 4000), 2000, 2, 7),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(work: Path, *argv: str) -> list[object]:
    """Exit code and the sha256 of stdout and stderr of one in-process CLI run in `work`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(work / a) if a.endswith((".graph", ".trees")) else a for a in argv])
    return [code, _sha(out.getvalue().encode()), _sha(err.getvalue().encode())]


def digests_of(name: str, work: Path) -> dict[str, object]:
    """Every command's result on input `name`, then the sha256 of every file in `work`."""
    make, n, h, planted = INPUTS[name]
    (work / "g.graph").write_text(f"n={n}\n" + "".join(f"{u} {v}\n" for u, v in make()), encoding="utf-8")
    runs = {"neighborhoods": _run(work, "neighborhoods", "g.graph", "--depth", str(h), "-o", "balls.trees")}
    trees = "balls.trees"
    if planted is not None:
        lines = (work / "balls.trees").read_text(encoding="utf-8").splitlines(keepends=True)
        lines[planted] = "(())\n"
        (work / "planted.trees").write_text("".join(lines), encoding="utf-8")
        trees = "planted.trees"
    runs["check"] = _run(work, "check", trees)
    runs["realize --verify"] = _run(work, "realize", trees, "--verify", "-o", "out.graph")
    runs["verify"] = _run(work, "verify", "g.graph", trees, "--depth", str(h))
    files = {p.name: _sha(p.read_bytes()) for p in sorted(work.iterdir())}
    return {"runs": runs, "files": files}


def test_every_output_matches_its_pinned_digest(tmp_path):
    for name in INPUTS:
        (tmp_path / name).mkdir()
        assert digests_of(name, tmp_path / name) == PINNED[name], name


PINNED: dict[str, dict[str, object]] = {
    "gnm-10000": {
        "runs": {
            "neighborhoods": [
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ],
            "check": [
                0,
                "f60b262f8131c2bfb03dbd49c2f93cb68f61b33d25e5e8b43e81e9afdbc0f938",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ],
            "realize --verify": [
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ],
            "verify": [
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "2fd98e3796895c761138641c0f0c19a77bb61b636a17a4dac11dc03e87b0c29d",
            ],
        },
        "files": {
            "balls.trees": "1e6382f8e7ecc45174d51eb3f0fdcd57a800a79eb8f4d17c91f83cfb79504c69",
            "g.graph": "8d528709d08f491013782e276c8f9733f6266c92246947e6954938daa5436491",
            "out.graph": "dd31ba8d59ec166c7cc071bf913bad341e6e121929b4d197f4c9a55a7e3d5eaf",
        },
    },
    "cubic-400": {
        "runs": {
            "neighborhoods": [
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ],
            "check": [
                0,
                "423f3477693f859332d8eed46e172a31669c508e8c582670bf5ca236b2147e2b",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ],
            "realize --verify": [
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ],
            "verify": [
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "1566c38a43a02fc4d133dc715be9115a7895793d4386b3525183844f019afedf",
            ],
        },
        "files": {
            "balls.trees": "dafe2e929ce875286c1263fad913b3d975adbc44cfb34fd2185b1ff5b6535bfd",
            "g.graph": "0f64480d1d0818dca3af4bc67afc8acbaac37a0934d3c133957f84c4a2f1f7dd",
            "out.graph": "0f64480d1d0818dca3af4bc67afc8acbaac37a0934d3c133957f84c4a2f1f7dd",
        },
    },
    "reject-2000": {
        "runs": {
            "neighborhoods": [
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ],
            "check": [
                1,
                "52bf4a1a59258f1adc656217e5fbcce2dae468c250a93119bcbc138c0857f678",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ],
            "realize --verify": [
                1,
                "52bf4a1a59258f1adc656217e5fbcce2dae468c250a93119bcbc138c0857f678",
                "cbe1d5c367501dabec4fbab973326c678d484d307737e5002748b7918408527b",
            ],
            "verify": [
                1,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "f57054afd2e7c66c6c97025faee28cc9760f8a8cab50578b492caa4d25e34a73",
            ],
        },
        "files": {
            "balls.trees": "9751d0e8894304fb150035b6d2f0444caa34e49107f2328ad519eb63f001fdff",
            "g.graph": "84ece7752d3f537cdc3477d462fde03a336e1bc58754b627d2f5eb60f2162b62",
            "planted.trees": "bb620a3f7d69f7e3b154e0d78eda701798149ea1fffaa1c4c71dd3d79f3d4849",
        },
    },
}

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        found = {}
        for name in INPUTS:
            (Path(tmp) / name).mkdir()
            found[name] = digests_of(name, Path(tmp) / name)
    json.dump(found, sys.stdout, indent=4)
    print()
