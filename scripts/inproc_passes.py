#!/usr/bin/env python3
"""Cold and warm passes of one benchmark workload, timed in one process.

    python3 scripts/inproc_passes.py [--tree DIR] --workload invariants \\
        --seed 16001 [--builds 1] [--passes 4]

Builds the workload's tasks from the source tree DIR (default: this
checkout), importing `singlink` from DIR/src and the workload from
DIR/perfbench, so that two trees, say a parent extracted with `git
archive` and a change, run the same way in separate processes.  It runs
--passes passes over the tasks, each task called once per pass in task
order, with a garbage collection before each pass.  A pass's time is the
sum of its calls' times (time.perf_counter_ns); the checks run outside
it.  The first pass is the cold one: it builds what the library keeps
with its objects (tables, plans, colorings, relation instances), which a
command-line call pays once.  Later passes find those kept.  With
--builds K the tasks are built K times, each build with new objects and
so its own cold pass; one cold pass is a single sample, and the least of
several is steadier.  Every output of every pass is checked by its
task's check and, where the task has one, against its digest in
DIR/perfbench/reference.json.

Prints one JSON line: the tree, workload, seed and task count, `cold_ms`
(the least cold pass), `warm_ms` (the least later pass), every pass's
time per build, and the failures.  Exits 1 when a check failed.  The
times are raw, not scaled to the benchmark's reference speed, so compare
trees by alternating their processes on one host.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(tree: Path):
    """The `workloads` and `child` modules of tree's perfbench, with
    `singlink` imported from tree/src."""
    sys.path[:0] = [str(tree / "perfbench"), str(tree / "src")]
    import singlink
    if Path(singlink.__file__).resolve().parent != (tree / "src" / "singlink").resolve():
        raise SystemExit(f"error: singlink was already imported from {singlink.__file__}")
    import child
    import workloads
    return workloads, child


def run_passes(workload: str, tasks, reference: dict, verify, passes: int):
    """Per pass, its time in ms and the failure messages of its checks."""
    times, failures = [], []
    for _ in range(passes):
        gc.collect()
        outs, elapsed = [], 0
        for task in tasks:
            t0 = time.perf_counter_ns()
            try:
                out = task.run()
            except Exception as e:          # a raising task is a failed task
                out = e
            elapsed += time.perf_counter_ns() - t0
            outs.append(out)
        times.append(elapsed / 1e6)
        for task, out in zip(tasks, outs):
            err = (f"raised {out!r}" if isinstance(out, Exception)
                   else verify(workload, task, out, reference))
            if err:
                failures.append(f"{task.name}: {err}")
    return times, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=ROOT,
                    help="source tree with src/ and perfbench/ (default: this checkout)")
    ap.add_argument("--workload", required=True, choices=("tables", "closures", "invariants"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--builds", type=int, default=1,
                    help="times the tasks are built, each with a cold pass")
    ap.add_argument("--passes", type=int, default=4,
                    help="passes per build, the cold one included (at least 2)")
    args = ap.parse_args(argv)
    if args.passes < 2 or args.builds < 1:
        ap.error("--passes must be at least 2, one cold pass and one warm one, "
                 "and --builds at least 1")
    tree = args.tree.resolve()
    if not (tree / "perfbench" / "workloads.py").is_file():
        ap.error(f"{tree} has no perfbench/workloads.py")
    workloads, child = load(tree)
    reference = json.loads((tree / "perfbench" / "reference.json").read_text())
    times, failures = [], []
    for _ in range(args.builds):
        tasks = workloads.build(args.workload, args.seed)
        ms, fails = run_passes(args.workload, tasks, reference, child._verify,
                               args.passes)
        times.append([round(t, 3) for t in ms])
        failures += fails
    print(json.dumps({"tree": str(tree), "workload": args.workload, "seed": args.seed,
                      "tasks": len(tasks), "cold_ms": min(t[0] for t in times),
                      "warm_ms": min(min(t[1:]) for t in times), "pass_ms": times,
                      "correct": not failures, "failures": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
