"""Benchmark of the unicover command line on seeded input families.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run generates its workload's inputs from the seed, then repeats whole
rounds of the pipeline commands -- ``neighborhoods``, ``check``,
``realize -o FILE`` and ``verify`` -- for about S seconds.  Every command is
its own ``unicover`` child process started by this single-threaded client,
so nothing cached in one process carries to the next and every cost a user
pays is counted.  Every output is checked against results computed apart
from the program (see checks.py).  The last line of stdout is one JSON
object: with ``--trace 0`` the end-to-end metrics, each a median over the
run's rounds; with ``--trace 1`` the per-layer metrics of tracer.py and the
tracing overhead of each command against untraced runs of the same round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from inputs import Family, graph_text, make_graph, plant_site

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

ENTRY = "import sys; from unicover.cli import main; sys.exit(main())"

FAMILIES = {
    f.name: f
    for f in (
        Family("sparse-many-types", depth=3, kind="gnm", n=500, param=1000, reject=False),
        Family("near-regular-deep", depth=7, kind="cubic-minus", n=240, param=16, reject=False),
        Family("reject-wide", depth=2, kind="degrees-234", n=1200, param=0, reject=True),
    )
}
COMMANDS = ("neighborhoods", "check", "realize", "verify")
MIN_ROUNDS = 3

LAYER_TIMES = (
    "graphs.read_graph",
    "graphs.write_graph",
    "trees.iter_collection",
    "trees.serialize",
    "edge_types.build_table",
    "sequences.check_neighborhood",
    "realize.realize_neighborhood",
    "realize.havel_hakimi",
    "realize.kleitman_wang",
    "realize.glue",
    "unfold.neighborhood_collection",
    "unfold.first_mismatch",
    "cli.main",
)
LAYER_COUNTS = (
    "graphs.edges_read",
    "trees.nodes_parsed",
    "edge_types.types",
    "edge_types.support",
    "sequences.largest_support",
    "realize.havel_hakimi.calls",
    "realize.kleitman_wang.calls",
    "realize.edges_written",
    "unfold.ball_nodes",
)
PEAK_COUNTS = {"sequences.largest_support"}


@dataclass
class Instance:
    """The generated input of a run and what its outputs must satisfy."""

    n: int
    depth: int
    walks: list[tuple[int, ...]]  # non-backtracking walks of each length <= depth, per vertex
    hashes: list[str]  # colour-refinement hash of each vertex after `depth` rounds
    mismatch: int | None  # vertex whose tree was replaced by "(())", if any


@dataclass
class Child:
    rc: int
    wall_s: float
    rss_kb: int
    stdout: str
    stderr: str
    output: str | None  # contents of the -o file, None if none was written


def self_times(spans) -> dict[str, float]:
    """Per span name, total duration minus the durations of direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, *_), ns in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + ns / 1e9
    return totals


class Bench:
    """Runs and checks the commands of one workload."""

    def __init__(self, family: Family, seed: int, work: Path):
        self.family = family
        self.seed = seed
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            # A fixed hash seed, so set iteration inside the program cannot
            # differ from one repetition to the next.
            PYTHONHASHSEED="0",
            PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        )
        self.attempted = 0
        self.failed = 0
        self.verdicts: dict[tuple, str | None] = {}
        self.inst: Instance | None = None

    # -- child processes -------------------------------------------------

    def spawn(self, args: list[str], output: str | None = None, trace: str | None = None) -> Child:
        """Run one CLI process to completion; wall time covers fork to reap."""
        if output is not None:
            (self.work / output).unlink(missing_ok=True)
        if trace is None:
            argv = [sys.executable, "-c", ENTRY, *args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), trace, *args]
        with open(self.work / "stdout", "wb") as out, open(self.work / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=self.work, env=self.env
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        written = None
        if output is not None and (self.work / output).exists():
            written = (self.work / output).read_text(encoding="utf-8")
        return Child(
            rc=proc.returncode,
            wall_s=wall,
            rss_kb=usage.ru_maxrss,
            stdout=(self.work / "stdout").read_text(encoding="utf-8"),
            stderr=(self.work / "stderr").read_text(encoding="utf-8"),
            output=written,
        )

    def judge(self, what: str, inst: Instance | None, child: Child) -> None:
        """Count one attempted command; a failed output check counts it failed.

        The program is deterministic, so a verdict is cached per distinct
        (exit code, stdout, stderr, output file).
        """
        self.attempted += 1
        digest = hashlib.blake2b(digest_size=16)
        for part in (child.stdout, child.stderr, child.output or "\0none"):
            digest.update(part.encode())
            digest.update(b"\0")
        key = (what, child.rc, digest.hexdigest())
        if key not in self.verdicts:
            self.verdicts[key] = self.check(what, inst, child)
        reason = self.verdicts[key]
        if reason is not None:
            self.failed += 1
            print(f"FAILED {what}: {reason}", file=sys.stderr)

    # -- the commands ----------------------------------------------------

    @staticmethod
    def argv(what: str, inst: Instance | None) -> tuple[list[str], str | None]:
        """Arguments of one command and the file it writes, if any."""
        if inst is None:
            return ["check", "setup.trees"], None
        h = str(inst.depth)
        if what == "neighborhoods":
            return ["neighborhoods", "graph.txt", "--depth", h, "-o", "balls.txt"], "balls.txt"
        if what == "check":
            return ["check", "trees.txt", "--depth", h], None
        if what == "check --explain":
            return ["check", "trees.txt", "--depth", h, "--explain"], None
        if what == "realize":
            return ["realize", "trees.txt", "--depth", h, "-o", "out.txt"], "out.txt"
        if what == "verify":
            graph = "realized.txt" if inst.mismatch is None else "graph.txt"
            return ["verify", graph, "trees.txt", "--depth", h], None
        raise ValueError(what)

    @staticmethod
    def check(what: str, inst: Instance | None, c: Child) -> str | None:
        if inst is None:
            return checks.check_verdict(c.rc, c.stdout, reject=False)
        reject = inst.mismatch is not None
        if what == "neighborhoods":
            return checks.check_neighborhoods(c.rc, c.output, inst.walks, inst.hashes)
        if what == "check":
            return checks.check_verdict(c.rc, c.stdout, reject)
        if what == "check --explain":
            return checks.check_explained_types(c.rc, c.stdout)
        if what == "realize":
            return checks.check_realized(c.rc, c.output, reject, inst.n, inst.depth, inst.hashes)
        if what == "verify":
            return checks.check_verify(c.rc, c.stderr, inst.mismatch)
        raise ValueError(what)

    def command(self, what: str, inst: Instance | None, trace: str | None = None) -> Child:
        args, output = self.argv(what, inst)
        child = self.spawn(args, output=output, trace=trace)
        self.judge(what, inst, child)
        return child

    # -- preparation -----------------------------------------------------

    def prepare(self) -> None:
        """Write the inputs; harvest, check and (if graphical) realize them once.

        These untimed runs also fill the bytecode cache, so the timed rounds
        see what an installed tool sees.
        """
        (self.work / "setup.trees").write_text("()\n")
        self.command("setup", None)
        fam = self.family
        rng = random.Random(f"{fam.name}:{self.seed}")
        edges = make_graph(fam, rng)
        inst = self.inst = Instance(
            n=fam.n, depth=fam.depth,
            walks=checks.walk_counts(fam.n, edges, fam.depth),
            hashes=checks.wl_hashes(fam.n, edges, fam.depth), mismatch=None,
        )
        (self.work / "graph.txt").write_text(graph_text(fam.n, edges))
        trees = (self.command("neighborhoods", inst).output or "").splitlines()
        if fam.reject:
            inst.mismatch = plant_site(rng, fam.n, edges)
            trees[inst.mismatch] = "(())"
            # A "(())" ball is a vertex whose only neighbour has no other
            # neighbour: a K2 component.  Its two ends pair up, so an odd
            # number of such balls cannot be realized by any graph.
            degrees = [walks[1] for walks in inst.walks]
            k2_ends = 2 * sum(1 for u, v in edges if degrees[u] == degrees[v] == 1)
            if (k2_ends - (degrees[inst.mismatch] == 1) + 1) % 2 == 0:
                raise RuntimeError("the planted collection is not provably impossible")
        (self.work / "trees.txt").write_text("".join(t + "\n" for t in trees))
        if fam.reject:
            self.command("check --explain", inst)
        else:
            realized = self.command("realize", inst).output or ""
            (self.work / "realized.txt").write_text(realized)

    # -- rounds ----------------------------------------------------------

    def rounds(self, seconds: float, one_round) -> list[dict]:
        """Whole rounds until the next one would end after `seconds`."""
        done: list[dict] = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(done) >= MIN_ROUNDS and elapsed + elapsed / len(done) > seconds:
                return done
            done.append(one_round())

    def plain_round(self) -> dict:
        sample: dict = {"setup": [], "rss_kb": 0}
        for name in COMMANDS:
            if name in ("neighborhoods", "realize"):
                probe = self.command("setup", None)
                sample["setup"].append(probe.wall_s)
                sample["rss_kb"] = max(sample["rss_kb"], probe.rss_kb)
            child = self.command(name, self.inst)
            sample[name] = child.wall_s
            sample["rss_kb"] = max(sample["rss_kb"], child.rss_kb)
        return sample

    def traced_round(self) -> dict:
        trace = str(self.work / "trace.json")
        layers = {name: 0.0 for name in LAYER_TIMES}
        counts = {name: 0 for name in LAYER_COUNTS}
        overhead = {}
        for name in COMMANDS:
            plain = self.command(name, self.inst)
            traced = self.command(name, self.inst, trace=trace)
            overhead[name] = traced.wall_s - plain.wall_s
            with open(trace, encoding="utf-8") as handle:
                record = json.load(handle)
            for layer, seconds in self_times(record["spans"]).items():
                if layer in layers:
                    layers[layer] += seconds
            for counter, value in record["counts"].items():
                if counter in PEAK_COUNTS:
                    counts[counter] = max(counts[counter], value)
                else:
                    counts[counter] += value
        return {"layers": layers, "counts": counts, "overhead": overhead}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(samples: list[dict]) -> dict:
    med = statistics.median
    out = {"setup_s": metric(med(s for r in samples for s in r["setup"]), "s")}
    for name in COMMANDS:
        out[f"{name}_s"] = metric(med(r[name] for r in samples), "s")
    out["peak_rss_mb"] = metric(med(r["rss_kb"] for r in samples) / 1024, "MB")
    return out


def per_layer(samples: list[dict]) -> tuple[dict, bool]:
    """Median self times and overheads; counts must repeat in every round."""
    out = {}
    for name in LAYER_TIMES:
        out[f"{name}.self_s"] = metric(statistics.median(r["layers"][name] for r in samples), "s")
    steady = True
    for name in LAYER_COUNTS:
        values = {r["counts"][name] for r in samples}
        steady &= len(values) == 1
        out[name] = metric(max(values), "count")
    for name in COMMANDS:
        out[f"trace.{name}.overhead_s"] = metric(statistics.median(r["overhead"][name] for r in samples), "s")
    return out, steady


def run(family: Family, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        bench = Bench(family, seed, work)
        bench.prepare()
        samples = bench.rounds(seconds, bench.traced_round if trace else bench.plain_round)
        steady = True
        if trace:
            metrics, steady = per_layer(samples)
            if not steady:
                print("a work count differed between rounds of the same inputs", file=sys.stderr)
        else:
            metrics = end_to_end(samples)
        print(f"{family.name}: {len(samples)} rounds", file=sys.stderr)
        return {
            "correct": bench.failed == 0 and steady,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FAMILIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A plain SIGTERM would skip the cleanup that stops a running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "unicover" / "cli.py").is_file():
        print(f"no unicover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(FAMILIES[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
