"""Spherical-harmonic bases and product quadrature on the unit sphere.

Coefficient convention: a surface density on a sphere of radius r is expanded
in unit-sphere orthonormal harmonics of its direction argument,

    sigma(s) = sum_{l<=L} sum_{|m|<=l} c_{lm} Y_l^m(shat),

so ||sigma||_{L^2(dD)} = r * ||c||_2. Coefficients are stored flat in
(l, m) order: (0,0), (1,-1), (1,0), (1,1), (2,-2), ...

The quadrature grid is Gauss-Legendre in cos(polar) x uniform azimuth, exact
for harmonics up to polar degree 2*n-1 and azimuthal order < 2*n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import sph_harm_y


def n_coeffs(L: int) -> int:
    return (L + 1) * (L + 1)


@dataclass(frozen=True)
class SphereQuadrature:
    """Product quadrature nodes on the unit sphere; weights sum to 4*pi."""

    points: np.ndarray   # (P, 3) unit vectors
    weights: np.ndarray  # (P,)
    order: int

    @property
    def size(self) -> int:
        return len(self.weights)


def sphere_quadrature(order: int) -> SphereQuadrature:
    """Gauss-Legendre (order nodes in cos(theta)) x uniform (2*order in phi)."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    z, wz = np.polynomial.legendre.leggauss(order)
    n_az = 2 * order
    phi = 2.0 * np.pi * np.arange(n_az) / n_az
    rho = np.sqrt(1.0 - z**2)
    pts = np.empty((order, n_az, 3))
    pts[..., 0] = rho[:, None] * np.cos(phi)[None, :]
    pts[..., 1] = rho[:, None] * np.sin(phi)[None, :]
    pts[..., 2] = z[:, None]
    w = np.broadcast_to(wz[:, None] * (2.0 * np.pi / n_az), (order, n_az))
    points = pts.reshape(-1, 3)
    weights = np.ascontiguousarray(w.reshape(-1))
    points.setflags(write=False)
    weights.setflags(write=False)
    return SphereQuadrature(points=points, weights=weights, order=order)


def unit_angles(points: np.ndarray):
    """Polar/azimuth angles of unit vectors (theta in [0,pi], phi in [0,2pi))."""
    pts = np.asarray(points, dtype=float)
    theta = np.arccos(np.clip(pts[..., 2], -1.0, 1.0))
    phi = np.arctan2(pts[..., 1], pts[..., 0])
    return theta, phi


def harmonic_matrix(L: int, points: np.ndarray) -> np.ndarray:
    """Matrix Y[p, (l,m)] of orthonormal harmonics at unit points."""
    theta, phi = unit_angles(points)
    cols = []
    for l in range(L + 1):
        for m in range(-l, l + 1):
            cols.append(sph_harm_y(l, m, theta, phi))
    return np.column_stack(cols)

