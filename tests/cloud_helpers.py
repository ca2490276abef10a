"""Builders of the clouds and incident waves the tests share, a packed
matrix that fails any dense read, a runner of code in a fresh interpreter, a
reader of the CSVs foldylax.io writes, and the a-priori charge bound.

They live apart from conftest.py, which holds only fixtures: another test
directory's conftest module of the same name may be loaded first in one
pytest session, so nothing imports from conftest.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import foldylax
from foldylax import IncidentWave, ScattererCloud, assemble

THREADS = (1, 2, 3)  # 1 is the serial case; 3 oversubscribes a 2-core host


def make_wave(kappa=1.0, theta=(0.0, 0.0, 1.0)):
    th = np.asarray(theta, dtype=float)
    return IncidentWave(kappa=float(kappa), theta=th / np.linalg.norm(th))


def make_cloud(centers, radius, impedance, regime=None, areas=None):
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    m = len(centers)
    return ScattererCloud(centers=centers,
                          radii=np.full(m, float(radius)),
                          impedances=np.full(m, impedance, dtype=complex),
                          regime=regime, areas=areas)


def assembled_per_thread_count(monkeypatch, cloud, wave):
    """(threads, assemble's system) for each worker count in THREADS, with the
    workers switched as often as the interpreter allows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in THREADS:
            monkeypatch.setenv("FOLDYLAX_THREADS", str(threads))
            yield threads, assemble(cloud, wave, "general")
    finally:
        sys.setswitchinterval(interval)


class WatchedMatrix:
    """A packed matrix (B or the BIE's A), counting its products with vectors;
    any other read of its entries fails (a row, a strip, a dense copy), its
    diagonal and its certificate aside."""

    products = 0

    def __init__(self, packed):
        self._packed = packed

    def __getattr__(self, name):  # q, and B's ||Re B_n||_F and gamma for the report
        if name in ("q", "frobenius_offdiag_real", "gamma"):
            return getattr(self._packed, name)
        raise AttributeError(name)

    def __matmul__(self, other):
        assert np.ndim(other) == 1
        WatchedMatrix.products += 1
        return self._packed @ other

    def diagonal(self):
        return self._packed.diagonal()

    def __array__(self, *args, **kwargs):
        raise AssertionError("matrix densified")


def read_csv(path):
    """Read back a CSV written by foldylax.io: (comment lines, data lines)."""
    comments, lines = [], []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            (comments if line.startswith("#") else lines).append(line)
    return comments, lines


def charge_bound_check(solution, regime, c_tilde=10.0):
    """The a-priori charge bound max|Q_m| <= c_tilde * a^(2-beta)."""
    return bool(np.max(np.abs(solution.charges)) <= c_tilde * regime.a ** (2.0 - regime.beta))


def run_python(code, cwd):
    """Last line code prints in a fresh interpreter that imports this foldylax."""
    src = str(Path(foldylax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=cwd, env=env)
    return out.stdout.splitlines()[-1]
