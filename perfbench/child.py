"""One fresh benchmark process: set up a workload, run it, report as JSON.

Started by run.py (never by hand) with PYTHONHASHSEED fixed and one
thread.  It prints `ready` as soon as set-up is done, so the parent can
time set-up from process start, then runs passes over the task list until
--seconds have elapsed and prints one JSON line.  With --trace 1 set-up
is traced, and untraced and traced passes alternate, so the same process
gives both the per-layer figures and the tracing overhead.

Times are reported at a reference speed.  A shared host's speed can swing
by 2x for tens of seconds at a time, which no run length averages away.
So a timer runs a fixed pure-Python probe (`probe_ns`) every
PROBE_INTERVAL_S, from process start on, and each timed call is scaled by
the median of PROBE_REF_NS / (probe time) over the probes that ran during
it or within PROBE_MARGIN_NS of it: that is the time the call would take
on a host where the probe takes PROBE_REF_NS.  The probes' own time is
taken out of the calls they interrupt.  The probe is the benchmark's own
code, so no change to singlink moves it.  Raw times are reported beside
the scaled ones.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROBE_REF_NS = 150_000          # about the probe's time on a 2-core x86-64 sandbox
PROBE_INTERVAL_S = 0.01
PROBE_MARGIN_NS = 50_000_000

# The probe mixes what singlink's inner loops do: dict lookups on tuple
# keys and list indexing, `get` on a small dict keyed by edge names, and
# copies of such a dict.  Each part tracks the host's swings on its own; the
# mix tracks them best.  Collection is off while it runs, so no garbage
# collection lands in it.
_PROBE_KEYS = tuple((i % 13, i % 7) for i in range(600))
_PROBE_TABLE = {k: (3 * k[0] + k[1]) % 11 for k in set(_PROBE_KEYS)}
_PROBE_ROWS = tuple([(r * c) % 11 for c in range(11)] for r in range(11))
_PROBE_COLORING = {f"e{i}": i % 5 for i in range(0, 80, 2)}
_PROBE_EDGES = tuple(f"e{(i * 37) % 80}" for i in range(800))


def probe_ns():
    table, rows, col = _PROBE_TABLE, _PROBE_ROWS, _PROBE_COLORING
    gc_on = gc.isenabled()
    gc.disable()
    acc = 0
    t0 = time.perf_counter_ns()
    for k in _PROBE_KEYS:
        acc = rows[table[k]][acc]
    for e in _PROBE_EDGES:
        v = col.get(e)
        if v is not None:
            acc += v
    for _ in range(120):
        trial = dict(col)
        trial["e1"] = acc
    t1 = time.perf_counter_ns()
    if gc_on:
        gc.enable()
    return t1 - t0


class Speedometer:
    """Runs probe_ns from a SIGALRM handler every PROBE_INTERVAL_S and
    keeps (start, PROBE_REF_NS / probe time) of each; `stolen_ns` is the
    handler's total time, to be taken out of the calls it interrupted."""

    def __init__(self):
        self.samples: list[tuple[int, float]] = []
        self.stolen_ns = 0
        self.probing = False

    def _sample(self, signum, frame):
        if self.probing:        # a probe held up past the next tick
            return
        self.probing = True
        t0 = time.perf_counter_ns()
        self.samples.append((t0, PROBE_REF_NS / probe_ns()))
        self.stolen_ns += time.perf_counter_ns() - t0
        self.probing = False

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    @staticmethod
    def settle():
        """Keep busy for PROBE_MARGIN_NS, so that calls that just ended
        have probes after them."""
        end = time.perf_counter_ns() + PROBE_MARGIN_NS
        while time.perf_counter_ns() < end:
            pass

    def stop(self):
        self.settle()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, t0, t1):
        """Median relative speed over the probes from PROBE_MARGIN_NS
        before t0 to PROBE_MARGIN_NS after t1 (the median, as a probe that
        the host held up reads near zero)."""
        samples = self.samples
        lo = bisect.bisect_left(samples, (t0 - PROBE_MARGIN_NS,))
        hi = bisect.bisect_left(samples, (t1 + PROBE_MARGIN_NS + 1,))
        if lo == hi:
            raise RuntimeError("no speed probe near a timed call")
        return statistics.median(s for _, s in samples[lo:hi])


def _verify(workload, task, out, reference):
    err = task.check(out)
    if err is None and task.digest is not None:
        from workloads import digest_of
        want = reference.get(workload, {}).get(task.name)
        got = digest_of(task.digest(out))
        if want is None:
            err = "no reference digest recorded"
        elif got != want:
            err = f"output digest {got} differs from reference {want}"
    return err


def schedule(tasks):
    """Call order for an untraced pass: round k runs the k-th task that is
    called once, then one more call of each task that repeats and has calls
    left.  A repeated task's calls are spread over the pass, so its median
    does not hang on the machine's speed in one short stretch."""
    once = {i: k for k, i in enumerate(i for i, t in enumerate(tasks) if t.repeat == 1)}
    rounds = max([len(once)] + [t.repeat for t in tasks])
    order = []
    for k in range(rounds):
        order += [i for i, t in enumerate(tasks)
                  if once.get(i) == k or k < t.repeat != 1]
    return order


def run_pass(workload, tasks, reference, meter, tracer=None):
    """Run every task: once each under tracer, else in `schedule` order;
    returns (calls as (task, start ns, end ns, raw ns without the probes'
    time), failure messages)."""
    calls = []
    outs, fails = {}, {}
    for i in range(len(tasks)) if tracer else schedule(tasks):
        if i in fails:
            continue
        task = tasks[i]
        stolen = meter.stolen_ns
        t0 = time.perf_counter_ns()
        try:
            outs[i] = tracer.run_task(i, task.run) if tracer else task.run()
        except Exception as e:          # a raising task is a failed task
            fails[i] = f"{task.name}: raised {e!r}"
        t1 = time.perf_counter_ns()
        calls.append((i, t0, t1, t1 - t0 - (meter.stolen_ns - stolen)))
    for i, task in enumerate(tasks):
        if i not in fails:
            err = _verify(workload, task, outs[i], reference)
            if err:
                fails[i] = f"{task.name}: {err}"
    return calls, list(fails.values())


def per_task(ntasks, calls, scale):
    """Latency of each task in one pass, the median over its calls, with
    each call's raw time multiplied by scale(call)."""
    times = [[] for _ in range(ntasks)]
    for call in calls:
        times[call[0]].append(call[3] * scale(call))
    return [statistics.median(t) for t in times]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    meter = Speedometer()
    meter.start()
    tracer = None
    if args.trace:
        import singlink  # noqa: F401  (every layer module, for rebinding)
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
    import workloads
    tasks = workloads.build(args.workload, args.seed)
    ready_ns, setup_stolen_ns = time.perf_counter_ns(), meter.stolen_ns
    print("ready", flush=True)
    meter.settle()
    setup = {"setup_stolen_s": setup_stolen_ns / 1e9,
             "setup_speed": meter.speed(0, ready_ns)}
    reference = json.loads((HERE / "reference.json").read_text())
    setup_counts = {}
    if tracer:
        tracer.enabled = False
        setup_counts = dict(tracer.counts)
    plain, traced_passes, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(traced_passes) < len(plain)
        if tracer:
            tracer.enabled = traced
        calls, fails = run_pass(args.workload, tasks, reference, meter,
                                tracer if traced else None)
        attempted += len(tasks)
        failures += fails
        (traced_passes if traced else plain).append(calls)
        done = time.perf_counter() - start >= args.seconds
        if tracer:
            if done and traced_passes and len(traced_passes) == len(plain):
                break
        elif done:
            break
    if tracer:
        tracer.enabled = False
    meter.stop()

    def scaled(call):
        return meter.speed(call[1], call[2])

    def pass_lat(passes, scale):
        return [per_task(len(tasks), calls, scale) for calls in passes]

    lat = pass_lat(plain, scaled)
    raw_lat = pass_lat(plain, lambda call: 1.0)
    result = {
        "workload": args.workload,
        "tasks": len(tasks),
        "attempted": attempted,
        "failures": failures,
        "pass_task_ms": [[ns / 1e6 for ns in p] for p in lat],
        "pass_task_raw_ms": [[ns / 1e6 for ns in p] for p in raw_lat],
        "speed": statistics.median(s for _, s in meter.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **setup,
    }
    if tracer:
        traced_ns = [sum(p) for p in pass_lat(traced_passes, scaled)]
        result["layers"] = layer_metrics(tracer, setup_counts, len(traced_passes))
        result["trace_overhead"] = (statistics.median(traced_ns)
                                    / statistics.median(sum(p) for p in lat) - 1)
        task_s, layer_s, glue_s = tracer.task_accounting()
        result["trace_accounting"] = [task_s, layer_s, glue_s]
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


def layer_metrics(tracer, setup_counts, passes):
    """Figures for one fresh run: set-up once plus one pass of the tasks
    (the traced passes are identical, so they are averaged)."""
    out = dict(tracer.summary(in_tasks=False))
    for k, v in tracer.summary(in_tasks=True).items():
        out[k] = out.get(k, 0.0) + v / passes
    for k, v in tracer.counts.items():
        setup = setup_counts.get(k, 0)
        out[k] = setup + (v - setup) / passes
    return out


if __name__ == "__main__":
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    sys.exit(main())
