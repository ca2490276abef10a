"""Brute-force quadrature references that the closed forms in foldylax.oracle
are checked against, the separation-of-variables (Mie) far field of one
sphere that the boundary-integral solver is checked against at M = 1, and
the energy identity that far fields are checked against. Written
independently of the package's formulas."""

from dataclasses import dataclass

import numpy as np

from foldylax.errors import SeriesNotConverged
from foldylax.foldy import FarFieldGrid
from foldylax.geometry import UNIT_TOL, IncidentWave, _require_unit
from foldylax.oracle import DEFAULT_L, _hankel
from foldylax.spherical import harmonic_matrix, legendre_p, sphere_quadrature, spherical_jn

CHUNK = 512
SERIES_TAIL_TOL = 1e-12


def coupling_block(kappa, lam_m, center_m, radius_m, center_j, radius_j, L, order):
    """Product-Gauss block mapping harmonic coefficients on sphere j to the
    projected (d/dnu + lambda_m)-trace of their single layer on sphere m.

    Targets are taken CHUNK at a time so that the (P, Q) kernel is never
    held at once.
    """
    quad = sphere_quadrature(order)
    Y = harmonic_matrix(L, quad.points)
    sources = center_j + radius_j * quad.points                   # (Q, 3)
    src = (radius_j**2 * quad.weights)[:, None] * Y               # surface measure on j
    block = np.zeros((Y.shape[1], Y.shape[1]), dtype=complex)
    for start in range(0, quad.size, CHUNK):
        nu = quad.points[start:start + CHUNK]
        diff = (center_m + radius_m * nu)[:, None, :] - sources[None, :, :]
        rho = np.linalg.norm(diff, axis=-1)
        ph = np.exp(1j * kappa * rho) / (4.0 * np.pi * rho)
        cosang = np.einsum("pqi,pi->pq", diff, nu) / rho
        K = (1j * kappa - 1.0 / rho) * ph * cosang + lam_m * ph
        wY = quad.weights[start:start + CHUNK, None] * Y[start:start + CHUNK]
        block += wY.conj().T @ (K @ src)
    return block


def nystrom_apply(kappa: float, radius: float, density, targets: np.ndarray,
                  order: int = 40, operator: str = "single") -> np.ndarray:
    """Independent dense Nystrom evaluation of S or K* on one sphere at the origin.

    Written as a validation oracle for sphere_operator_spectra: the weakly
    singular kernels are integrated in rotated polar coordinates about each
    target, where the surface element cancels the singularity exactly:

        S:  (r/4pi) e^{2 i kappa r sin(g/2)} cos(g/2)
        K*: [i kappa sin(g/2) - 1/(2r)] (r/4pi) e^{2 i kappa r sin(g/2)} cos(g/2)

    with g the polar angle from the target. density maps unit vectors (N,3)
    to values (N,); targets are unit vectors.
    """
    if operator not in ("single", "adjoint"):
        raise ValueError("operator must be 'single' or 'adjoint'")
    targets = np.asarray(targets, dtype=float).reshape(-1, 3)
    u, wu = np.polynomial.legendre.leggauss(order)
    g = 0.5 * np.pi * (u + 1.0)
    wg = 0.5 * np.pi * wu
    n_az = 2 * order
    az = 2.0 * np.pi * np.arange(n_az) / n_az
    w_az = 2.0 * np.pi / n_az
    # local frame points around the north pole, to be rotated onto each target
    sin_g, cos_g = np.sin(g), np.cos(g)
    local = np.empty((order, n_az, 3))
    local[..., 0] = sin_g[:, None] * np.cos(az)[None, :]
    local[..., 1] = sin_g[:, None] * np.sin(az)[None, :]
    local[..., 2] = cos_g[:, None]
    half = g / 2.0
    radial = np.exp(2j * kappa * radius * np.sin(half)) * np.cos(half) * (radius / (4 * np.pi))
    if operator == "adjoint":
        radial = radial * (1j * kappa * np.sin(half) - 1.0 / (2.0 * radius))
    weight = (radial * wg)[:, None] * w_az  # (order, 1) broadcast over azimuth
    out = np.empty(len(targets), dtype=complex)
    for i, xhat in enumerate(targets):
        R = _rotation_to(xhat)
        pts = local @ R.T
        vals = np.asarray(density(pts.reshape(-1, 3)), dtype=complex).reshape(order, n_az)
        out[i] = np.sum(weight * vals)
    return out


def _rotation_to(xhat: np.ndarray) -> np.ndarray:
    """Rotation matrix taking e_z to the unit vector xhat (Rodrigues)."""
    ez = np.array([0.0, 0.0, 1.0])
    c = float(np.clip(xhat @ ez, -1.0, 1.0))
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        return np.diag([1.0, -1.0, -1.0])
    axis = np.cross(ez, xhat)
    s = np.linalg.norm(axis)
    axis = axis / s
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + s * K + (1 - c) * (K @ K)


@dataclass(frozen=True)
class OpticalTheoremCheck:
    """Scattered power integral vs extinction (16*pi^2/kappa)*Im Uinf(theta)."""

    scattered: float
    extinction: float

    @property
    def residual(self) -> float:
        return abs(self.scattered - self.extinction) / max(self.scattered, 1e-300)

    @property
    def absorbing_sign_ok(self) -> bool:
        """Extinction >= scattered power (equality for real impedance)."""
        return self.extinction >= self.scattered * (1.0 - 1e-9)


def optical_theorem_residual(evaluate, wave, quad_order: int = 32) -> OpticalTheoremCheck:
    """Energy-identity check for a far field given as a callable on directions.

    evaluate(directions (N,3)) must return Uinf values (N,). The identity,
    derived from Green's identity under the e^{i kappa r}/(4 pi r) farfield
    normalization, is

        int_{S^2} |Uinf|^2 dOmega = (16 pi^2 / kappa) Im Uinf(theta)

    for non-absorbing (real-impedance) scatterers, and <= for Im(lambda) > 0.
    """
    quad = sphere_quadrature(quad_order)
    vals = np.asarray(evaluate(quad.points), dtype=complex).reshape(-1)
    if len(vals) != quad.size:
        raise ValueError("evaluate() returned wrong number of values")
    scattered = float(np.sum(quad.weights * np.abs(vals) ** 2))
    forward = complex(np.asarray(evaluate(wave.theta.reshape(1, 3))).reshape(()))
    extinction = float(16.0 * np.pi**2 / wave.kappa * forward.imag)
    return OpticalTheoremCheck(scattered=scattered, extinction=extinction)


def mie_reference(wave: IncidentWave, radius: float, impedance: complex,
                  directions: np.ndarray, L: int = DEFAULT_L) -> FarFieldGrid:
    """Separation-of-variables far field for one impedance sphere at the origin.

    Uinf(xhat) = (-4*pi*i/kappa) * sum_l (2l+1) a_l P_l(xhat.theta) with
    a_l = -(kappa j_l'(z) + lambda j_l(z)) / (kappa h_l'(z) + lambda h_l(z)),
    z = kappa*radius.

    Raises:
        SeriesNotConverged: the degree-L tail is above 1e-12 of the result,
            or a modal denominator vanished.
    """
    kappa = wave.kappa
    if radius <= 0 or L < 0:
        raise ValueError("need radius > 0, L >= 0")
    directions = np.asarray(directions, dtype=float).reshape(-1, 3)
    _require_unit(directions, UNIT_TOL)  # first: a NaN direction would fail the series check
    z = kappa * radius
    j = spherical_jn(L, z)
    jp = spherical_jn(L, z, derivative=True)
    h = _hankel(L, z)
    hp = _hankel(L, z, derivative=True)
    denom = kappa * hp + impedance * h
    if np.any(np.abs(denom) == 0) or not np.all(np.isfinite(denom)):
        raise SeriesNotConverged("modal denominator vanished (impedance resonance)")
    a_l = -(kappa * jp + impedance * j) / denom
    mu = np.clip(directions @ wave.theta, -1.0, 1.0)
    values = legendre_p(L, mu) @ ((2 * np.arange(L + 1) + 1) * a_l)
    values *= -4j * np.pi / kappa
    tail = float((2 * L + 1) * abs(a_l[L]) * 4.0 * np.pi / kappa)
    ref = float(np.max(np.abs(values)))
    if not np.isfinite(ref) or tail > SERIES_TAIL_TOL * max(ref, 1e-300):
        raise SeriesNotConverged(
            f"degree-{L} tail {tail:g} above {SERIES_TAIL_TOL:g} of |Uinf| ~ {ref:g}")
    return FarFieldGrid(directions=directions, values=values, wave=wave)

