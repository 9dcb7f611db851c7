#!/usr/bin/env python3
"""Record perfbench/reference.json: the digest of every task output that
has no printed value or oracle to check it against.

    python3 perfbench/record_reference.py

Only seed-independent tasks carry digests; each is computed under two
seeds and must agree.  Re-record only when an output is meant to change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402


def digests(workload, seed):
    out = {}
    for task in workloads.build(workload, seed):
        res = task.run()
        err = task.check(res)
        if err:
            raise SystemExit(f"{workload} / {task.name}: {err}")
        if task.digest is not None:
            out[task.name] = workloads.digest_of(task.digest(res))
    return out


def main():
    ref = {}
    for workload in workloads.WORKLOADS:
        a, b = digests(workload, 0), digests(workload, 1)
        if a != b:
            raise SystemExit(f"{workload}: digests depend on the seed")
        if a:
            ref[workload] = a
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
