"""Write the subsum-witness corpus that test_subsum_cli.py replays.

Usage: PYTHONPATH=src python tests/make_subsum.py [OUT]

Each case is a `treegen.swapped_balls` collection (n = 6-12, h = 2) that
fails the check by subsum inequalities only, with the `check` result
recorded for it.  Draws are kept while they add a (kind, k) failure seen
fewer than QUOTA times, so the reported witnesses k reach past the first
entry for both kinds.  Regenerate only when an output is meant to change.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

from make_golden import run_cli
from treegen import swapped_balls
from unicover import build_table, canonical_code, check_neighborhood

SEED = 20261020
DRAWS = 2000
QUOTA = 6
DEFAULT_OUT = Path(__file__).with_name("subsum_cli.json")


def main_write(out: Path) -> None:
    rng = random.Random(SEED)
    seen: Counter = Counter()
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"TREES": Path(tmp) / "t.txt"}
        for _ in range(DRAWS):
            trees = swapped_balls(rng, rng.randrange(6, 13))
            if trees is None:
                continue
            found = {(f.kind, f.witness_k) for f in check_neighborhood(build_table(trees, 2)).failures}
            if not found or all(seen[f] >= QUOTA for f in found):
                continue
            seen.update(found)
            text = "".join(canonical_code(t) + "\n" for t in trees)
            paths["TREES"].write_text(text, encoding="utf-8")
            run = run_cli(["check", "TREES"], paths)
            cases.append({"trees": text, "exit": run["exit"], "stdout": run["stdout"]})
    out.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main_write(Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUT)
