import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "inproc_passes.py"


def run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_times_cold_and_warm_passes_of_checked_tasks():
    out = run("--workload", "tables", "--seed", "1", "--builds", "2", "--passes", "3")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 1
    res = json.loads(lines[0])
    assert res["tree"] == str(ROOT) and res["workload"] == "tables"
    assert res["tasks"] == 19 and res["correct"] and res["failures"] == []
    builds = res["pass_ms"]
    assert len(builds) == 2 and all(len(b) == 3 for b in builds)
    assert res["cold_ms"] == min(b[0] for b in builds)
    assert res["warm_ms"] == min(t for b in builds for t in b[1:]) > 0


def test_refuses_a_tree_without_the_benchmark(tmp_path):
    out = run("--tree", str(tmp_path), "--workload", "tables", "--seed", "1")
    assert out.returncode == 2 and "has no perfbench/workloads.py" in out.stderr
    out = run("--workload", "tables", "--seed", "1", "--passes", "1")
    assert out.returncode == 2 and "--passes must be at least 2" in out.stderr
    out = run("--workload", "tables", "--seed", "1", "--builds", "0")
    assert out.returncode == 2 and "--builds at least 1" in out.stderr
