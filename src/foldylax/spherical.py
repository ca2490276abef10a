"""Spherical-harmonic bases and product quadrature on the unit sphere.

Coefficient convention: a surface density on a sphere of radius r is expanded
in unit-sphere orthonormal harmonics of its direction argument,

    sigma(s) = sum_{l<=L} sum_{|m|<=l} c_{lm} Y_l^m(shat),

so ||sigma||_{L^2(dD)} = r * ||c||_2. Coefficients are stored flat in
(l, m) order: (0,0), (1,-1), (1,0), (1,1), (2,-2), ...

The quadrature grid is Gauss-Legendre in cos(polar) x uniform azimuth, exact
for harmonics up to polar degree 2*n-1 and azimuthal order < 2*n.

The special functions the oracles need are computed here with numpy alone,
each for all degrees 0..L at once (trailing axis), by standard recurrences:
spherical Bessel j_l by its power series below SERIES_MAX_Z, Miller's
downward recurrence from there up to the degree and upward recurrence above
it, y_l by upward recurrence, derivatives by f_l' = f_{l-1} - (l+1) f_l / z,
Legendre polynomials by Bonnet's recurrence, Gauss-Legendre nodes by Newton's
method on them, and the harmonics from fully normalized associated Legendre
functions (Holmes & Featherstone, J. Geodesy 76, 2002). The tests check them
against scipy.special and numpy.polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SERIES_MAX_Z = 1.0  # j_l by power series below, by Miller's recurrence above
SERIES_TERMS = 12   # z^2/2 < 1/2, so term k is below 2^-k / (k! (2k+1)!!): 5e-17 at k = 8
MILLER_RESCALE = 1e200  # the downward recurrence grows like (2N+1)!!/z^N
NEWTON_STEPS = 20  # gauss_legendre: Tricomi's estimates converge in 3 to 5


def n_coeffs(L: int) -> int:
    return (L + 1) * (L + 1)


@dataclass(frozen=True)
class SphereQuadrature:
    """Product quadrature nodes on the unit sphere; weights sum to 4*pi."""

    points: np.ndarray   # (P, 3) unit vectors
    weights: np.ndarray  # (P,)

    @property
    def size(self) -> int:
        return len(self.weights)


def sphere_quadrature(order: int) -> SphereQuadrature:
    """Gauss-Legendre (order nodes in cos(theta)) x uniform (2*order in phi)."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    z, wz = gauss_legendre(order)
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
    return SphereQuadrature(points=points, weights=weights)


def gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n from Tricomi's estimates cos(pi (k - 1/4)/(n + 1/2)),
    P_n' from (1 - x^2) P_n' = n (P_{n-1} - x P_n), weights 2/((1 - x^2) P_n'^2);
    nodes and weights are then made exactly symmetric about 0.
    """
    if n < 1:
        raise ValueError("need n >= 1 nodes")
    x = -np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(NEWTON_STEPS):
        p = legendre_p(n, x)
        step = p[:, n] * (1.0 - x * x) / (n * (p[:, n - 1] - x * p[:, n]))
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    p = legendre_p(n, x)
    w = 2.0 * (1.0 - x * x) / (n * (p[:, n - 1] - x * p[:, n])) ** 2
    return (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0


def unit_angles(points: np.ndarray):
    """Polar/azimuth angles of unit vectors (theta in [0,pi], phi in (-pi,pi]).

    theta is arctan2(hypot(x, y), z), accurate to an ulp everywhere: arccos(z)
    is off by eps/theta near the poles, 1e-9 at a tilt of 1e-7.
    """
    pts = np.asarray(points, dtype=float)
    theta = np.arctan2(np.hypot(pts[..., 0], pts[..., 1]), pts[..., 2])
    phi = np.arctan2(pts[..., 1], pts[..., 0])
    return theta, phi


def harmonic_matrix(L: int, points: np.ndarray) -> np.ndarray:
    """Matrix Y[p, (l,m)] of orthonormal harmonics at unit points.

    Y_l^m = pbar_l^m(cos theta) e^{i m phi} with the Condon-Shortley phase,
    as scipy.special.sph_harm_y, and Y_l^-m = (-1)^m conj(Y_l^m). The fully
    normalized pbar_l^m run up the three-term recurrence in l at fixed m from
    the sectoral pbar_m^m = -sqrt((2m+1)/(2m)) sin(theta) pbar_{m-1}^{m-1},
    which is stable (Holmes & Featherstone, J. Geodesy 76, 2002).
    """
    theta, phi = unit_angles(np.asarray(points, dtype=float).reshape(-1, 3))
    phase = np.exp(1j * phi[:, None] * _degrees_orders(L)[1])
    return _legendre_columns(L, np.cos(theta), np.sin(theta)) * phase


def _degrees_orders(L: int):
    """The degree l and the order m of each flat (l, m) coefficient, l = 0..L."""
    ls = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
    return ls, np.arange(len(ls)) - ls * (ls + 1)


def _legendre_columns(L: int, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Y[p, (l,m)] of harmonic_matrix without its factor e^{i m phi}, from
    cos theta = t and sin theta = u.

    A caller that has t and u from Cartesian components passes them here
    directly, without the round trip through theta.
    """
    p = np.zeros((len(t), L + 1, L + 1))  # p[:, l, m] = pbar_l^m, 0 <= m <= l
    p[:, 0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for l in range(1, L + 1):
        m = np.arange(l - 1)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) * (2 * l + 1) / ((l * l - m * m) * (2 * l - 3)))
        p[:, l, :l - 1] = a * t[:, None] * p[:, l - 1, :l - 1] - b * p[:, l - 2, :l - 1]
        p[:, l, l - 1] = math.sqrt(2 * l + 1) * t * p[:, l - 1, l - 1]
        p[:, l, l] = -math.sqrt((2 * l + 1) / (2 * l)) * u * p[:, l - 1, l - 1]
    ls, ms = _degrees_orders(L)
    sign = np.where((ms < 0) & (ms % 2 == 1), -1.0, 1.0)
    return p[:, ls, np.abs(ms)] * sign


def spherical_jn(L: int, z, derivative: bool = False) -> np.ndarray:
    """Spherical Bessel j_l(z) (or j_l'(z)), l = 0..L, for real z >= 0 (z > 0
    for the derivative); shape z.shape + (L+1,).

    Below SERIES_MAX_Z the power series
    j_l = z^l/(2l+1)!! sum_k (-z^2/2)^k / (k! (2l+3)(2l+5)...(2l+2k+1)).
    From there up to max(L, 1) Miller's downward recurrence from a degree N
    past both L and z, where j_N/y_N is below roundoff, N set by each element's
    own z so that no value depends on the other arguments, normalized by sin z/z
    or by j_1 = (j_0 - cos z)/z, whichever is larger, so that a zero of sin z
    cannot amplify roundoff; j_0 and j_1 are then taken from those closed forms.
    Above max(L, 1) each degree is below z, and the upward recurrence is stable.
    """
    z = np.asarray(z, dtype=float)
    top = max(L, 1)
    out = np.empty(z.shape + (top + 1,))
    small, large = z < SERIES_MAX_Z, z > top
    out[small] = _jn_series(top, z[small])
    out[~small & ~large] = _jn_miller(top, z[~small & ~large])
    j0 = np.sin(z[large]) / z[large]
    out[large] = _upward(j0, (j0 - np.cos(z[large])) / z[large], z[large], top)
    return _derivative(out, z, L) if derivative else out[..., :L + 1]


def _jn_series(L: int, z: np.ndarray) -> np.ndarray:
    l = np.arange(L + 1)
    step = z[..., None] / (2 * l + 1)
    step[..., 0] = 1.0
    lead = np.cumprod(step, axis=-1)  # z^l / (2l+1)!!
    k = np.arange(1, SERIES_TERMS + 1)[:, None]
    terms = np.cumprod((-0.5 * z * z)[..., None, None] / (k * (2 * l + 2 * k + 1)), axis=-2)
    return lead * (1.0 + terms.sum(axis=-2))


def _jn_miller(L: int, z: np.ndarray) -> np.ndarray:
    if z.size == 0:
        return np.empty(z.shape + (L + 1,))
    start = L + 15 + (z + 4.0 * z ** (1.0 / 3.0)).astype(int)
    N = int(start.max())
    f = np.zeros(z.shape + (N + 2,))
    f[..., N] = start == N
    for l in range(N, 0, -1):
        f[..., l - 1] = (2 * l + 1) / z * f[..., l] - f[..., l + 1] + (start == l - 1)
        big = np.abs(f[..., l - 1]) > MILLER_RESCALE
        if big.any():
            f[big, l - 1:] /= MILLER_RESCALE
    j0 = np.sin(z) / z
    j1 = (j0 - np.cos(z)) / z
    by_j0 = np.abs(j0) >= np.abs(j1)
    scale = np.where(by_j0, j0, j1) / np.where(by_j0, f[..., 0], f[..., 1])
    out = f[..., :L + 1] * scale[..., None]
    out[..., 0], out[..., 1] = j0, j1
    return out


def spherical_yn(L: int, z, derivative: bool = False) -> np.ndarray:
    """Spherical Bessel y_l(z) (or y_l'(z)), l = 0..L, for real z > 0; shape
    z.shape + (L+1,). Upward recurrence from y_0 = -cos z/z and
    y_1 = (y_0 - sin z)/z, which is stable because y_l grows with l."""
    z = np.asarray(z, dtype=float)
    y0 = -np.cos(z) / z
    out = _upward(y0, (y0 - np.sin(z)) / z, z, max(L, 1))
    return _derivative(out, z, L) if derivative else out[..., :L + 1]


def _upward(f0, f1, z: np.ndarray, top: int) -> np.ndarray:
    """f_0..f_top from f_0 and f_1 by f_{l+1} = (2l+1)/z f_l - f_{l-1}."""
    out = np.empty(z.shape + (top + 1,))
    out[..., 0], out[..., 1] = f0, f1
    for l in range(1, top):
        out[..., l + 1] = (2 * l + 1) / z * out[..., l] - out[..., l - 1]
    return out


def _derivative(f: np.ndarray, z: np.ndarray, L: int) -> np.ndarray:
    """f_l', l = 0..L, from f_0..f_max(L,1): f_0' = -f_1, f_l' = f_{l-1} - (l+1) f_l/z."""
    d = np.empty(f.shape[:-1] + (L + 1,))
    d[..., 0] = -f[..., 1]
    d[..., 1:] = f[..., :L] - np.arange(2, L + 2) * f[..., 1:L + 1] / z[..., None]
    return d


def legendre_p(L: int, x) -> np.ndarray:
    """Legendre polynomials P_l(x), l = 0..L; shape x.shape + (L+1,).

    Bonnet's recurrence (l+1) P_{l+1} = (2l+1) x P_l - l P_{l-1}.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (L + 1,))
    out[..., 0] = 1.0
    if L:
        out[..., 1] = x
    for l in range(1, L):
        out[..., l + 1] = ((2 * l + 1) * x * out[..., l] - l * out[..., l - 1]) / (l + 1)
    return out

