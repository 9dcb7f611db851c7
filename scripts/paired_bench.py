#!/usr/bin/env python3
"""Interleaved parent/change pairs of the benchmark, with their summary.

    python3 scripts/paired_bench.py --parent REV --workload closures \\
        --seeds 14901-14910 [--json BENCH_N.json]

Both sides run committed files, like the benchmark: the parent side is the
tree of REV and the change side the tree of HEAD, each extracted with
`git archive` into a temporary directory that is removed on exit (so an
interrupted run leaves nothing in the repository).  Uncommitted edits in
the checkout are not run; commit them first.  Both run the unchanged
`perfbench/run.py --trace 0` of their own tree for BENCHMARK.json's
run_seconds, one benchmark at a time, once per seed: the parent first on
odd seeds, the change first on even ones.  For every end-to-end metric of
BENCHMARK.json the script prints each side's median and quartiles
(statistics.quantiles, method='inclusive'), the pairs the change won,
the ratio of the medians and a verdict (see `verdict`), then the
attempted and failed task counts.  A seed where either side's run exits
non-zero is dropped from both sides and listed under "failed_seeds"; the
pairs of the other seeds are still reported, and the script then exits
with 1.
--json writes the same figures as the workload's entry in the
`paired_bench` block of a BENCH_*.json file, creating the file or keeping
what else it holds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tables", "closures", "invariants")


def seed_list(text: str) -> list[int]:
    """'14901-14910' or '14901,14905' as a list of seeds."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    if not out:
        raise argparse.ArgumentTypeError("no seeds")
    return out


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = (round(q, 4) for q in
                      statistics.quantiles(values, n=4, method="inclusive"))
    return {"median": median, "q1": q1, "q3": q3}


def verdict(metric: dict, q: dict, won: int, pairs: int) -> str:
    """One metric's verdict from each side's quartiles q and the pairs the
    change won: "gain" when it won at least 9 pairs in 10 and its median
    is better by more than the parent's IQR; "regression" when its median
    is worse than the parent's by more than the metric's relative
    `bound`; otherwise "unresolved" when either side's IQR exceeds the
    bound times its median, and "level" when neither does.  A metric
    with no bound is a gain or level."""
    sign = 1 if metric["better"] == "lower" else -1
    parent, change = q["parent"], q["change"]
    gain = sign * (parent["median"] - change["median"])
    if 10 * won >= 9 * pairs and gain > parent["q3"] - parent["q1"]:
        return "gain"
    bound = metric.get("bound")
    if bound is None:
        return "level"
    if -gain > bound * abs(parent["median"]):
        return "regression"
    wide = any(s["q3"] - s["q1"] > bound * abs(s["median"]) for s in (parent, change))
    return "unresolved" if wide else "level"


def summarize(seeds, runs, spec) -> dict:
    """The paired_bench entry of one workload; runs[side] holds run.py's
    final JSON per seed, side 'parent' or 'change'."""
    sides = ("parent", "change")
    entry = {"seeds": list(seeds),
             "failed": {s: sum(r["failed"] for r in runs[s]) for s in sides},
             "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in sides},
             "all_correct": all(r["correct"] for s in sides for r in runs[s]),
             "metrics": {}}
    for m in spec["end_to_end"]:
        per = {s: [round(r["metrics"][m["name"]]["value"], 4) for r in runs[s]]
               for s in sides}
        sign = 1 if m["better"] == "lower" else -1
        won = sum(sign * (c - p) < 0 for p, c in zip(per["parent"], per["change"]))
        q = {s: quartiles(per[s]) for s in sides}
        entry["metrics"][m["name"]] = {
            **q, "per_seed": per,
            "change_better_pairs": f"{won}/{len(seeds)}",
            "ratio_of_medians": round(q["change"]["median"] / q["parent"]["median"], 4)
            if q["parent"]["median"] else None,
            "parent_iqr": round(q["parent"]["q3"] - q["parent"]["q1"], 4),
            "verdict": verdict(m, q, won, len(seeds))}
    return entry


def report(workload: str, entry: dict) -> str:
    lines = [f"{workload}: seeds {entry['seeds'][0]}-{entry['seeds'][-1]}, "
             "median (q1-q3) parent -> change, pairs the change won, verdict"]
    for name, m in entry["metrics"].items():
        p, c = m["parent"], m["change"]
        lines.append(f"  {name}: {p['median']:.4g} ({p['q1']:.4g}-{p['q3']:.4g}) -> "
                     f"{c['median']:.4g} ({c['q1']:.4g}-{c['q3']:.4g}); "
                     f"{m['change_better_pairs']}, ratio {m['ratio_of_medians']}: "
                     f"{m['verdict']}")
    lines.append("  attempted {parent} / {change}".format(**entry["attempted"])
                 + ", failed {parent} / {change}".format(**entry["failed"]))
    return "\n".join(lines)


class RunFailed(Exception):
    """A benchmark run that exited non-zero; the message ends with the
    tail of its stderr."""


def run_bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise RunFailed(f"{' '.join(cmd)} in {tree} exited with "
                        f"{out.returncode}: {out.stderr.strip()[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_pairs(trees: dict, workload: str, seeds, seconds: int):
    """Run both sides once per seed, the parent first on odd seeds.  A
    seed where either run fails is dropped from both sides, its stderr
    tail printed; returns the runs per side, the seeds kept and the seeds
    failed."""
    runs, kept, failed = {"parent": [], "change": []}, [], []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pair = {}
        try:
            for side in order:
                pair[side] = run_bench(trees[side], workload, seed, seconds)
                wall = pair[side]["metrics"]["wall_s"]["value"]
                print(f"[{i + 1}/{len(seeds)}] seed {seed} {side}: wall_s {wall:.4g}",
                      file=sys.stderr, flush=True)
        except RunFailed as e:
            print(f"[{i + 1}/{len(seeds)}] seed {seed} {side} failed, seed dropped: {e}",
                  file=sys.stderr, flush=True)
            failed.append(seed)
            continue
        for side in runs:
            runs[side].append(pair[side])
        kept.append(seed)
    return runs, kept, failed


def write_block(path: Path, workload: str, entry: dict, seconds: int):
    data = json.loads(path.read_text()) if path.exists() else {}
    block = data.setdefault("paired_bench", {})
    block.update({
        "command": f"python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {seconds} --trace 0",
        "order": "odd seeds parent first, even seeds change first, one benchmark at a time",
        "quartiles": "statistics.quantiles(method='inclusive') over the runs of each side",
        workload: entry})
    path.write_text(json.dumps(data, indent=1) + "\n")


def extract_trees(parent: str, tmp: Path) -> tuple[dict, dict]:
    """The commits of parent and HEAD, and their committed files extracted
    into tmp/parent and tmp/change."""
    revs = {side: subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                capture_output=True, check=True, text=True).stdout.strip()
            for side, rev in (("parent", parent), ("change", "HEAD"))}
    trees = {side: tmp / side for side in revs}
    for side, rev in revs.items():
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 capture_output=True, check=True).stdout
        trees[side].mkdir()
        subprocess.run(["tar", "-x", "-C", str(trees[side])], input=archive,
                       check=True)
    return revs, trees


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seeds", type=seed_list, required=True,
                    help="e.g. 14901-14910 or 14901,14903")
    ap.add_argument("--json", type=Path, help="BENCH_*.json to write the block into")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # SIGTERM unwinds like Ctrl-C, so the temporary tree is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seconds = spec["run_seconds"]
    tmp = Path(tempfile.mkdtemp(prefix="paired_bench-"))
    try:
        revs, trees = extract_trees(args.parent, tmp)
        runs, kept, failed = run_pairs(trees, args.workload, args.seeds, seconds)
    except subprocess.CalledProcessError as e:
        detail = e.stderr or b""
        detail = (detail if isinstance(detail, str)
                  else detail.decode(errors="replace")).strip()
        raise SystemExit(f"error: {' '.join(e.cmd)} failed: {detail}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not kept:
        raise SystemExit(f"error: the runs of every seed failed: {failed}")
    entry = {"revisions": revs, **summarize(kept, runs, spec), "failed_seeds": failed}
    print(report(args.workload, entry))
    if failed:
        print(f"  failed seeds, dropped from both sides: {failed}")
    if args.json:
        write_block(args.json, args.workload, entry, seconds)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
