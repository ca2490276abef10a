"""Helmholtz kernels and direction grids.

Conventions used throughout the package:

    Phi_kappa(x, y) = exp(i*kappa*|x - y|) / (4*pi*|x - y|)

is the radiating fundamental solution of Delta + kappa^2 (time convention
exp(-i*omega*t)); foldy.assemble writes -Phi_kappa(z_m, z_j) off the diagonal
of its system. Far fields are normalized by

    u_s(x) ~ exp(i*kappa*|x|) / (4*pi*|x|) * Uinf(xhat),

so the far-field kernel attached to a point source at z is exp(-i*kappa*xhat.z).
plane_wave and farfield_kernel are the package's one evaluation of these phases;
the unit rule for directions is geometry._require_unit.
All functions broadcast over leading axes; points are 3-vectors on the last axis.
"""

from __future__ import annotations

import numpy as np

from .geometry import UNIT_TOL, _require_memory, _require_unit

# a run's peak bytes per direction, its grids and their CSV text (measured
# on 10^6 directions: 468 for solve, 513 for compare at L = 12)
DIRECTION_BYTES = 640


def _dot3(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x.y over the last axis, of length 3, as (x0*y0 + x1*y1) + x2*y2: the
    sum numpy's np.sum(x * y, axis=-1) takes, without its reduction machinery."""
    return (x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1]) + x[..., 2] * y[..., 2]


def plane_wave(kappa: float, theta, x) -> complex | np.ndarray:
    """Incident plane wave U^i(x) = e^{i kappa x.theta}."""
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    val = np.exp(1j * kappa * _dot3(x, theta))
    return val[()] if val.ndim == 0 else val


def farfield_kernel(kappa: float, xhat, z) -> complex | np.ndarray:
    """Far-field phase factor e^{-i kappa xhat.z}; each xhat must be unit to UNIT_TOL."""
    xhat = np.asarray(xhat, dtype=float)
    z = np.asarray(z, dtype=float)
    _require_unit(xhat, UNIT_TOL)
    val = np.exp(-1j * kappa * _dot3(xhat, z))
    return val[()] if val.ndim == 0 else val


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform grid of n unit directions (golden spiral);
    raises InsufficientMemory first where n * DIRECTION_BYTES does not fit."""
    if n < 1:
        raise ValueError("need at least one direction")
    _require_memory(DIRECTION_BYTES * n, f"a grid of {n} directions",
                    "its far fields and their CSV text")
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    az = golden * i
    dirs = np.column_stack([rho * np.cos(az), rho * np.sin(az), z])
    # renormalize so downstream unit checks at 1e-10 hold exactly
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return dirs
