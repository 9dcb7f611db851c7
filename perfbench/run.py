#!/usr/bin/env python3
"""The singlink benchmark.

    python3 perfbench/run.py --workload {tables,closures,invariants}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/`.  A run starts WORKERS fresh interpreters one after another, each
with PYTHONHASHSEED fixed and one thread, and each sets the workload up
(timed from process start: the `setup_s` samples) and runs passes over
the task list (child.py) for its share of --seconds, checking every
output.  The passes of all of them are pooled, so no one process's luck
with memory layout or host load sets a figure.  Every time is reported at
child.py's reference speed (see there): scaled by the times of a fixed
probe run during it, so that the host's speed swings cancel; the raw times
are printed in words.  The last line of standard output is one JSON
object; the lines before it give every figure in words.  With --trace 1
one process runs for all of --seconds, its metrics are the per-layer
ones, and the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import PROBE_REF_NS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tables", "closures", "invariants")
WORKERS = 3
DEADLINE_S = 175


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, extra, deadline):
    """Start child.py, time it to its `ready` line; returns (raw set-up
    seconds, the JSON it printed last)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if first.strip() != "ready":
            raise BenchError(f"set-up failed (child said {first.strip()!r})")
        rest = proc.stdout.read()
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    if not rest.strip():
        raise BenchError("workload process printed no result")
    return setup, json.loads(rest.strip().splitlines()[-1])


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (ROOT / "src" / "singlink" / "__init__.py").is_file():
        raise BenchError(f"no singlink sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S

    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_out = out_dir / f"trace-{args.workload}-{args.seed}.json"
        runs = [run_child(args, ["--seconds", str(args.seconds), "--trace", "1",
                                 "--trace-out", str(trace_out)], deadline)]
    else:
        runs = [run_child(args, ["--seconds", str(args.seconds / WORKERS)], deadline)
                for _ in range(WORKERS)]
    res = runs[-1][1]
    passes = [p for _, r in runs for p in r["pass_task_ms"]]
    raw_passes = [p for _, r in runs for p in r["pass_task_raw_ms"]]
    failures = [msg for _, r in runs for msg in r["failures"]]
    attempted = sum(r["attempted"] for _, r in runs)

    failed = len(failures)
    for msg in failures[:10]:
        print(f"FAIL {msg}", file=sys.stderr)
    lat = [statistics.median(t) for t in zip(*passes)]
    print(f"workload {args.workload}: seed {args.seed}, {len(lat)} tasks per pass, "
          f"{len(passes)} untraced passes in {len(runs)} processes; task latency "
          f"quantiles over the {len(lat)} per-task medians")
    print(f"fail_rate {failed / attempted:.4g} ({failed} of {attempted} tasks)")

    if args.trace:
        metrics = layer_metrics(spec, res)
        task_s, layer_s, glue_s = res["trace_accounting"]
        print(f"traced task time {task_s:.4f} s = layer self time {layer_s:.4f} s "
              f"+ task glue {glue_s:.4f} s")
    else:
        wall = [sum(p) / 1e3 for p in passes]
        raw_setups = [s for s, _ in runs]
        setups = [(s - r["setup_stolen_s"]) * r["setup_speed"] for s, r in runs]
        values = {
            "wall_s": statistics.median(wall),
            "task_p50_ms": statistics.median(lat),
            "task_p90_ms": quantile(lat, 90),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for _, r in runs),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        raw_lat = [statistics.median(t) for t in zip(*raw_passes)]
        raw_wall = [sum(p) / 1e3 for p in raw_passes]
        speeds = ", ".join(f"{r['speed']:.3f}" for _, r in runs)
        print(f"wall_s per pass: {', '.join(f'{w:.4f}' for w in wall)}")
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
        print(f"raw (unscaled) times: wall_s {statistics.median(raw_wall):.6g}, "
              f"task_p50_ms {statistics.median(raw_lat):.6g}, "
              f"task_p90_ms {quantile(raw_lat, 90):.6g}, "
              f"setup_s {statistics.median(raw_setups):.6g}; host speed "
              f"{speeds} of the reference "
              f"(probe {PROBE_REF_NS / 1e3:.0f} us) in the processes")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(spec, res):
    layers = dict(res["layers"])
    calls = layers.get("pairs.make_tau_phi.calls", 0)
    layers["pairs.make_tau_phi.useful_ratio"] = (
        layers.get("pairs.make_tau_phi.useful", 0) / calls if calls else 0.0)
    layers["trace_overhead"] = res["trace_overhead"]
    task_s, layer_s, _ = res["trace_accounting"]
    layers["trace.attributed_share"] = layer_s / task_s if task_s else 0.0
    out = {}
    for m in spec["per_layer"]:
        v = layers.get(m["name"], 0)
        if m["unit"] == "count":
            v = round(v)
        out[m["name"]] = {"value": v, "unit": m["unit"]}
    return out


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
