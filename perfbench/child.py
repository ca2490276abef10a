"""Run one child process and report its wall time, peak RSS and output."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

THREADS = "2"
# the variables the CLI sets from FOLDYLAX_THREADS before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Child:
    wall_s: float
    maxrss_mb: float
    returncode: int
    stdout: str
    stderr: str


def child_env(root: Path, work: Path) -> dict:
    """Environment of every child: the checkout's sources, FOLDYLAX_THREADS=2."""
    return dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(work),
                FOLDYLAX_THREADS=THREADS)


def pin_own_threads():
    """Give this process the BLAS thread cap the CLI gives itself.

    Must run before numpy is imported.
    """
    os.environ.update({var: THREADS for var in THREAD_VARS},
                      FOLDYLAX_THREADS=THREADS)


def run_child(args: list[str], env: dict, log: Path, timeout: float) -> Child:
    """Run ``python3 <args>`` to completion, killing it after ``timeout`` s.

    Peak RSS is this child's own ``ru_maxrss`` from ``os.wait4``, not the
    running maximum over all children that ``RUSAGE_CHILDREN`` would give.
    """
    out, err = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out, "w") as fo, open(err, "w") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env, stdout=fo,
                                stderr=fe, stdin=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall_s=wall, maxrss_mb=usage.ru_maxrss / 1024.0,
                 returncode=proc.returncode, stdout=out.read_text(),
                 stderr=err.read_text())
