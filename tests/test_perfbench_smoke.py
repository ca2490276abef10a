"""The benchmark's traced replay still runs against the oracle's API."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_compare_bie_run_is_correct():
    """perfbench/run.py --trace 1 replays compare in-process: it calls
    assemble_bie(..., quad_order=), reads system.matrix.shape and system.L,
    and checks every output of the CLI run. Its last line is the JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
         "compare_bie", "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
