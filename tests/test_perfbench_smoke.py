"""The benchmark's traced replay still runs against the package's API."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["solve_dense", "compare_bie", "sweep_rate"])
def test_traced_run_is_correct(workload):
    """perfbench/run.py --trace 1 replays each workload in-process: solve
    reads sol.diagnostics and calls invertibility_report, compare calls
    assemble_bie(..., quad_order=) and reads system.matrix.shape and
    system.L, and sweep calls convergence_study and fit_rate. Each run checks
    every output of the CLI run; its last line is the JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
