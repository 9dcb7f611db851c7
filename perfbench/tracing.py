"""In-memory spans around the public functions of each singlink layer.

`Tracer.install()` wraps every function in LAYERS and rebinds each name
that any `singlink` module imported, so a call
made inside the library, such as nc_invariant -> enumerate_colorings, is
recorded as a child span.  `SingularDiagram` construction is traced
through its `__post_init__`.  Spans are kept in memory as
(name, start_ns, end_ns, parent, task) and written out once at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _sized(x):
    return len(x) if hasattr(x, "__len__") else 0


# counters recorded at the boundary: f(args, result) -> {metric: increment}
def _coloring_counts(args, res):
    return {"coloring.enumerate_colorings.colorings_out": len(res),
            "coloring.enumerate_colorings.crossings_in": len(args[0].crossings)}


def _nc_counts(args, res):
    cols = len(res.per_coloring)
    return {"invariant.colorings_evaluated": cols,
            "invariant.crossing_visits": cols * 2 * len(args[0].crossings)}


def _ss_counts(args, res):
    cols = res.coefficient_sum()
    return {"invariant.colorings_evaluated": cols,
            "invariant.crossing_visits": cols * len(args[0].crossings)}


LAYERS = {
    "pairs": {
        "enumerate_taus": None,
        "enumerate_left_right_invertible": None,
        "check_singular_pair": None,
        "classify_isomorphism": lambda a, r: {
            "pairs.classify_isomorphism.pairs_in": _sized(a[0]),
            "pairs.classify_isomorphism.classes_out": len(r)},
        "automorphism_group": lambda a, r: {"pairs.automorphism_group.size": len(r)},
        "tau_phi_family": lambda a, r: {"pairs.tau_phi_family.size": len(r)},
        "make_tau_phi": lambda a, r: {"pairs.make_tau_phi.useful": int(r is not None)},
        "tau_phi_iso_count": None,
    },
    "coloring": {
        "enumerate_colorings": _coloring_counts,
        "count_colorings": None,
    },
    "diagram": {
        "find_move_sites": None,
        "apply_move": None,
    },
    "presentation": {
        "build_unc_presentation": lambda a, r: {"presentation.relations": len(r.relations)},
        "build_ab_presentation": lambda a, r: {"presentation.relations": len(r.relations)},
        "abelianize": None,
        "smith_normal_form": lambda a, r: {
            "presentation.snf_cells": len(a[0]) * (len(a[0][0]) if a[0] else 0)},
    },
    "invariant": {
        "universal_nc_cocycle": None,
        "universal_ab_cocycle": None,
        "check_nc_cocycle": None,
        "check_ab_cocycle": None,
        "nc_invariant": _nc_counts,
        "state_sum": _ss_counts,
    },
}

TASK = "task"


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self.stack: list[int] = []          # indices of open spans
        self.task = None
        self.counts: dict[str, int] = defaultdict(int)

    # -- recording --------------------------------------------------------
    def _open(self, name):
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self.stack[-1] if self.stack else -1, self.task])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()

    def run_task(self, task_id, fn):
        """Run fn inside a root span for task `task_id`."""
        self.task = task_id
        self._open(TASK)
        try:
            return fn()
        finally:
            self._close()
            self.task = None

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._close()
            tracer.counts[name + ".calls"] += 1
            if counter is not None:
                for k, v in counter(args, res).items():
                    tracer.counts[k] += v
            return res

        return traced

    def install(self):
        """Wrap LAYERS and rebind their names in every imported singlink
        module; returns the number of rebound names.  Callers must reach
        the layers through module attributes, as the workloads do."""
        import singlink.diagram

        mods = [m for name, m in list(sys.modules.items())
                if name == "singlink" or name.startswith("singlink.")]
        rebound = 0
        for layer, funcs in LAYERS.items():
            module = sys.modules[f"singlink.{layer}"]
            for fname, counter in funcs.items():
                orig = getattr(module, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig, counter)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                            rebound += 1
        cls = singlink.diagram.SingularDiagram
        cls.__post_init__ = self._wrap("diagram.SingularDiagram",
                                       cls.__post_init__, None)
        return rebound

    # -- summaries ----------------------------------------------------------
    def _child_ns(self):
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def summary(self, in_tasks: bool) -> dict[str, float]:
        """Busy time (outermost spans of a name) and self time per span
        name, over the spans inside tasks or over those outside them."""
        busy: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        child = self._child_ns()
        for i, (name, start, end, parent, task) in enumerate(self.spans):
            if (task is not None) != in_tasks:
                continue
            self_ns[name] += end - start - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                busy[name] += end - start
        out = {}
        for name in busy:
            out[f"{name}.s"] = busy[name] / 1e9
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        return out

    def task_accounting(self) -> tuple[float, float, float]:
        """(sum of task durations, self time of the layer spans inside
        tasks, self time of the task spans themselves) in seconds.  The
        last two add up to the first: every traced nanosecond of a task is
        either in some layer's self time or in the task's own glue."""
        task_ns = layer_ns = glue_ns = 0
        child = self._child_ns()
        for i, (name, start, end, parent, task) in enumerate(self.spans):
            if task is None:
                continue
            own = end - start - child[i]
            if name == TASK:
                task_ns += end - start
                glue_ns += own
            else:
                layer_ns += own
        return task_ns / 1e9, layer_ns / 1e9, glue_ns / 1e9

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "task"],
                       "spans": self.spans}, fh, separators=(",", ":"))
