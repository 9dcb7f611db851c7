"""`scripts/reproduce_tables.py`, the end-to-end reproduction, prints what
it printed when `reproduce_tables.txt` was recorded: every line but its
`total time:` line, which varies from run to run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).resolve().parent / "reproduce_tables.txt"


def test_fast_mode_prints_the_recorded_lines():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce_tables.py")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert sum(line.startswith("total time: ") for line in lines) == 1
    shown = [line for line in lines if not line.startswith("total time: ")]
    assert shown == RECORDED.read_text().splitlines()
