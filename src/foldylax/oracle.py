"""Boundary-integral reference solver for clouds of impedance spheres.

Independent of the point-scatterer route: the scattered field is an
ansatz of single-layer potentials, u_s = sum_m S_m[sigma_m], and the
impedance condition (d/dnu + lambda_m) u = 0 on each sphere yields the
coupled system

    (-1/2 + K*_mm + lambda_m S_mm) sigma_m
        + sum_{j != m} (d/dnu_m + lambda_m) S_mj sigma_j
        = -(d/dnu_m + lambda_m) U^i    on dD_m.

On a sphere of radius r both self blocks diagonalize in the orthonormal
spherical-harmonic basis:

    S     -> s_l     = i kappa   r^2 j_l(kappa r) h_l(kappa r)
    K*    -> dstar_l = 1/2 + i kappa^2 r^2 j_l(kappa r) h_l'(kappa r)

(h_l is the spherical Hankel function of the first kind; static limits
s_0 -> r and dstar_l -> -1/(2(2l+1)) are checked in the tests, and both
closed forms are validated against an independently written
singularity-cancelling Nystrom quadrature). Cross blocks couple disjoint
spheres and are exact too: the single layer of Y_l'm' on sphere j is an
outgoing wave about z_j, re-expanded about z_m by the addition theorem
(P. A. Martin, Multiple Scattering, CUP 2006, ch. 3; Gumerov & Duraiswami,
Fast Multipole Methods for the Helmholtz Equation in Three Dimensions,
Elsevier 2004, sec. 3.2),

    A_mj = diag_l(kappa j_l'(kappa r_m) + lambda_m j_l(kappa r_m))
           (S|R)(z_m - z_j) diag_{l'}(i kappa r_j^2 j_{l'}(kappa r_j)),

with Gaunt coefficients tabulated once per L. The tests check the blocks
against brute-force product quadrature of the kernel.
The far field of the solved densities is

    Uinf(xhat) = sum_m e^{-i kappa xhat.z_m} 4 pi r_m^2
                 sum_{l,m'} (-i)^l j_l(kappa r_m) c^{(m)}_{lm'} Y_lm'(xhat),

matching the e^{i kappa r}/(4 pi r) normalization used everywhere else.
A separation-of-variables reference for one sphere (mie_reference) and the
energy (optical-theorem) check live here too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import eval_legendre, spherical_jn, spherical_yn

from .errors import OverlappingSpheres, ResonanceGuard, SeriesNotConverged
from .foldy import FarFieldGrid, _checked_lu_solve
from .geometry import IncidentWave, ScattererCloud
from .spherical import harmonic_matrix, n_coeffs, sphere_quadrature

BIE_RESIDUAL_TOL = 1e-9
DEFAULT_L = 12
DEFAULT_QUAD_ORDER = 24
SERIES_TAIL_TOL = 1e-12
# interior-resonance guard: diameter * kappa below (4 pi / 3)^(1/3) * pi,
# which keeps kappa*r safely under the first Dirichlet sphere resonance pi
RESONANCE_DIAMETER_LIMIT = (4.0 * math.pi / 3.0) ** (1.0 / 3.0) * math.pi


def _hankel(l_values, z):
    j = spherical_jn(l_values, z)
    y = spherical_yn(l_values, z)
    return j + 1j * y


def _hankel_d(l_values, z):
    jp = spherical_jn(l_values, z, derivative=True)
    yp = spherical_yn(l_values, z, derivative=True)
    return jp + 1j * yp


@dataclass(frozen=True)
class SphereSpectra:
    """Self-operator eigenvalues of one sphere, degrees l = 0..L."""

    kappa: float
    radius: float
    L: int
    single_layer: np.ndarray   # s_l
    adjoint_double: np.ndarray  # dstar_l


def sphere_operator_spectra(kappa: float, radius: float, L: int) -> SphereSpectra:
    """Closed-form single-layer and adjoint-double-layer spectra on a sphere.

    Raises:
        ResonanceGuard: kappa * 2*radius >= (4*pi/3)^(1/3) * pi.
    """
    if radius <= 0 or kappa <= 0 or L < 0:
        raise ValueError("need radius > 0, kappa > 0, L >= 0")
    if kappa * 2.0 * radius >= RESONANCE_DIAMETER_LIMIT:
        raise ResonanceGuard(
            f"kappa*diameter = {kappa * 2 * radius:g} >= {RESONANCE_DIAMETER_LIMIT:g}: "
            "interior resonance not excluded")
    ls = np.arange(L + 1)
    z = kappa * radius
    j = spherical_jn(ls, z)
    h = _hankel(ls, z)
    hp = _hankel_d(ls, z)
    s_l = 1j * kappa * radius**2 * j * h
    dstar_l = 0.5 + 1j * kappa**2 * radius**2 * j * hp
    for arr in (s_l, dstar_l):
        arr.setflags(write=False)
    return SphereSpectra(kappa=kappa, radius=radius, L=L,
                         single_layer=s_l, adjoint_double=dstar_l)


@dataclass(frozen=True)
class BieSystem:
    matrix: np.ndarray
    rhs: np.ndarray
    cloud: ScattererCloud
    wave: IncidentWave
    L: int
    quad_order: int
    spectra: tuple


@dataclass(frozen=True)
class SurfaceDensity:
    """Harmonic coefficients of one sphere's layer density (flat (l,m) order)."""

    sphere: int
    radius: float
    L: int
    coefficients: np.ndarray

    @property
    def l2_norm(self) -> float:
        """||sigma||_{L^2(dD)} = r * ||c||_2 (orthonormal unit-sphere basis)."""
        return float(self.radius * np.linalg.norm(self.coefficients))


@dataclass(frozen=True)
class BieSolution:
    densities: tuple
    residual_inf: float
    system: BieSystem


def _per_degree(values_by_l: np.ndarray, L: int) -> np.ndarray:
    """Expand an (L+1,) per-degree vector to the flat (l, m) coefficient order."""
    return np.repeat(values_by_l, 2 * np.arange(L + 1) + 1)


def _incident_coeffs(wave: IncidentWave, center: np.ndarray, radial: np.ndarray,
                     L: int) -> np.ndarray:
    """Harmonic coefficients of -(d/dnu + lambda) e^{i kappa x.theta} on the sphere.

    Local expansion about the center: e^{i kappa y.theta} =
    4 pi sum i^l j_l(kappa|y|) Y_lm(yhat) conj(Y_lm(theta)); radial[l] is
    (d/dnu + lambda) j_l(kappa|y|) on the sphere.
    """
    phase = np.exp(1j * wave.kappa * float(center @ wave.theta))
    Yt = harmonic_matrix(L, wave.theta.reshape(1, 3))[0]
    scale = _per_degree(4.0 * np.pi * (1j ** np.arange(L + 1)) * radial, L)
    return -phase * scale * np.conj(Yt)


@lru_cache(maxsize=4)
def _translation_table(L: int):
    """Sparse map from [h_n(kappa d) Y_n^nu(dhat)] to the flat (S|R) block.

    Entry (lm)*nc + (l'm') of the block is the outgoing-to-regular
    translation coefficient (S|R)_{lm,l'm'}(d), so that

        h_l'(kappa|d+y|) Y_l'm'(d+y) = sum_lm (S|R)_{lm,l'm'}(d) j_l(kappa|y|) Y_lm(y)

    for |y| < |d|, with (S|R)_{lm,l'm'} = 4 pi sum_n i^(l+n-l') h_n Y_n^(m'-m)
    G(l'm'; lm; n) and the Gaunt coefficient G = int Y_l'm' conj(Y_lm)
    conj(Y_n^(m'-m)) dS. The azimuthal integral is 2 pi, so Gauss-Legendre of
    order 2L+1 in cos(polar) integrates the degree <= 4L polar product
    exactly. Only entries the selection rules allow are stored, so the rest
    are exact zeros: h_n grows like (kappa d)^-(n+1), and roundoff in a
    vanishing coefficient times h_{2L} would swamp the block.

    Returns read-only (harm, vals, starts), sorted by block entry: the block
    is np.add.reduceat(hY[harm] * vals, starts) for hY indexed n^2 + n + nu.
    Every block entry has at least one term (n = l + l' is always allowed),
    so no reduceat segment is empty.
    """
    nc, n_max = n_coeffs(L), 2 * L
    x, w = np.polynomial.legendre.leggauss(n_max + 1)
    polar = np.zeros((len(x), 3))
    polar[:, 0], polar[:, 2] = np.sqrt(1.0 - x**2), x
    P = harmonic_matrix(n_max, polar).real    # Y_n^nu(theta, 0), real
    ls = _per_degree(np.arange(L + 1), L)
    ms = np.arange(nc) - ls * (ls + 1)
    row, col = np.divmod(np.arange(nc * nc), nc)
    l, lp, nu = ls[row], ls[col], ms[col] - ms[row]
    entries, harms, vals = [], [], []
    for n in range(n_max + 1):
        keep = ((np.abs(l - lp) <= n) & (n <= l + lp) & ((l + lp + n) % 2 == 0)
                & (np.abs(nu) <= n))
        idx = np.flatnonzero(keep)
        harm = n * n + n + nu[idx]
        gaunt = 2.0 * np.pi * np.einsum("k,kp,kp,kp->p", w, P[:, col[idx]],
                                        P[:, row[idx]], P[:, harm])
        # l + n - l' is even, so i^(l+n-l') is real
        sign = np.where(((l[idx] + n - lp[idx]) // 2) % 2 == 0, 1.0, -1.0)
        entries.append(idx)
        harms.append(harm)
        vals.append(4.0 * np.pi * sign * gaunt)
    entries = np.concatenate(entries)
    order = np.argsort(entries, kind="stable")
    table = (np.concatenate(harms)[order], np.concatenate(vals)[order],
             np.searchsorted(entries[order], np.arange(nc * nc)))
    for arr in table:
        arr.setflags(write=False)
    return table


def assemble_bie(cloud: ScattererCloud, wave: IncidentWave,
                 L: int = DEFAULT_L, quad_order: int = DEFAULT_QUAD_ORDER) -> BieSystem:
    """Assemble the coupled boundary-integral system for a sphere cloud.

    Cross blocks are exact (addition theorem), so quad_order does not change
    the system; it is still validated and kept on the BieSystem.

    Raises:
        ValueError: cloud carries non-spherical obstacles, or quad_order < 1.
        OverlappingSpheres: spheres touch or overlap.
        ResonanceGuard: any sphere too large for the wavenumber.
    """
    if not cloud.is_spherical:
        raise ValueError("boundary-integral oracle requires true spheres")
    if cloud.M > 1 and cloud.d_eff <= 0:
        raise OverlappingSpheres(f"min surface distance {cloud.d_eff:g} <= 0")
    if np.any(cloud.impedances.imag < 0):
        warnings.warn("Im(lambda) < 0: well-posedness is not guaranteed; "
                      "proceeding (Neumann-series proxy checked after assembly)",
                      stacklevel=2)
    M, nc = cloud.M, n_coeffs(L)
    spectra = tuple(sphere_operator_spectra(wave.kappa, float(r), L) for r in cloud.radii)
    if quad_order < 1:
        raise ValueError("quadrature order must be >= 1")
    kappa = wave.kappa
    A = np.zeros((M * nc, M * nc), dtype=complex)
    rhs = np.empty(M * nc, dtype=complex)
    diag_blocks, trace, outgoing = [], [], []
    ls = np.arange(L + 1)
    for m in range(M):
        lam = complex(cloud.impedances[m])
        r = float(cloud.radii[m])
        diag_l = (spectra[m].adjoint_double - 0.5) + lam * spectra[m].single_layer
        diag = _per_degree(diag_l, L)
        diag_blocks.append(diag)
        sl = slice(m * nc, (m + 1) * nc)
        A[sl, sl] = np.diag(diag)
        z = kappa * r
        radial = kappa * spherical_jn(ls, z, derivative=True) + lam * spherical_jn(ls, z)
        rhs[sl] = _incident_coeffs(wave, cloud.centers[m], radial, L)
        trace.append(_per_degree(radial, L))
        outgoing.append(_per_degree(1j * kappa * r**2 * spherical_jn(ls, z), L))
    if M > 1:
        # Cross blocks as in the module docstring; the translation needs
        # r_m < |z_m - z_j|, which d_eff > 0 gives.
        # The pair (j, m) reuses the (m, j) translation: Y_n(-dhat) =
        # (-1)^n Y_n(dhat) and l + l' + n is even, so (S|R)(-d) = P (S|R)(d) P
        # with P = diag((-1)^l).
        harm, vals, starts = _translation_table(L)
        parity = _per_degree((-1.0) ** ls, L)
        first, second = np.triu_indices(M, 1)
        t = cloud.centers[first] - cloud.centers[second]
        dist = np.linalg.norm(t, axis=1)
        H = harmonic_matrix(2 * L, t / dist[:, None])
        H *= np.repeat(_hankel(np.arange(2 * L + 1), kappa * dist[:, None]),
                       2 * np.arange(2 * L + 1) + 1, axis=1)
        for m, j, hY in zip(first, second, H):
            SR = np.add.reduceat(hY[harm] * vals, starts).reshape(nc, nc)
            A[m * nc:(m + 1) * nc, j * nc:(j + 1) * nc] = (
                trace[m][:, None] * SR * outgoing[j][None, :])
            A[j * nc:(j + 1) * nc, m * nc:(m + 1) * nc] = (
                (parity * trace[j])[:, None] * SR * (parity * outgoing[m])[None, :])
    if np.any(cloud.impedances.imag < 0) and M > 1:
        q = 0.0
        for m in range(M):
            row = 0.0
            for j in range(M):
                if j != m:
                    blk = A[m * nc:(m + 1) * nc, j * nc:(j + 1) * nc]
                    row += np.linalg.norm(blk / diag_blocks[m][:, None], "fro")
            q = max(q, row)
        if q >= 1.0:
            warnings.warn(f"Neumann-series proxy {q:.3g} >= 1: coupled solve may be "
                          "unreliable for Im(lambda) < 0", stacklevel=2)
    A.setflags(write=False)
    rhs.setflags(write=False)
    return BieSystem(matrix=A, rhs=rhs, cloud=cloud, wave=wave, L=L,
                     quad_order=quad_order, spectra=spectra)


def solve_bie(system: BieSystem) -> BieSolution:
    """Checked LU solve of the boundary-integral system; residual must stay <= 1e-9."""
    x, residual = _checked_lu_solve(system.matrix, system.rhs, BIE_RESIDUAL_TOL)
    nc = n_coeffs(system.L)
    densities = []
    for m in range(system.cloud.M):
        c = x[m * nc:(m + 1) * nc].copy()
        c.setflags(write=False)
        densities.append(SurfaceDensity(sphere=m, radius=float(system.cloud.radii[m]),
                                        L=system.L, coefficients=c))
    return BieSolution(densities=tuple(densities), residual_inf=residual, system=system)


def bie_farfield(solution: BieSolution, directions: np.ndarray) -> FarFieldGrid:
    """Far field of the solved layer densities on a direction grid."""
    system = solution.system
    cloud, wave, L = system.cloud, system.wave, system.L
    directions = np.asarray(directions, dtype=float).reshape(-1, 3)
    Yd = harmonic_matrix(L, directions)
    values = np.zeros(len(directions), dtype=complex)
    ls = np.arange(L + 1)
    for dens in solution.densities:
        r = dens.radius
        weight = _per_degree(4.0 * np.pi * r**2 * (-1j) ** ls
                             * spherical_jn(ls, wave.kappa * r), L)
        angular = Yd @ (weight * dens.coefficients)
        phase = np.exp(-1j * wave.kappa * directions @ cloud.centers[dens.sphere])
        values += phase * angular
    return FarFieldGrid(directions=directions, values=values, wave=wave)


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
    if radius <= 0:
        raise ValueError("radius must be positive")
    z = kappa * radius
    ls = np.arange(L + 1)
    j = spherical_jn(ls, z)
    jp = spherical_jn(ls, z, derivative=True)
    h = _hankel(ls, z)
    hp = _hankel_d(ls, z)
    denom = kappa * hp + impedance * h
    if np.any(np.abs(denom) == 0) or not np.all(np.isfinite(denom)):
        raise SeriesNotConverged("modal denominator vanished (impedance resonance)")
    a_l = -(kappa * jp + impedance * j) / denom
    directions = np.asarray(directions, dtype=float).reshape(-1, 3)
    mu = np.clip(directions @ wave.theta, -1.0, 1.0)
    values = np.zeros(len(directions), dtype=complex)
    for l in range(L + 1):
        values += (2 * l + 1) * a_l[l] * eval_legendre(l, mu)
    values *= -4j * np.pi / kappa
    tail = float((2 * L + 1) * abs(a_l[L]) * 4.0 * np.pi / kappa)
    ref = float(np.max(np.abs(values)))
    if not np.isfinite(ref) or tail > SERIES_TAIL_TOL * max(ref, 1e-300):
        raise SeriesNotConverged(
            f"degree-{L} tail {tail:g} above {SERIES_TAIL_TOL:g} of |Uinf| ~ {ref:g}")
    return FarFieldGrid(directions=directions, values=values, wave=wave)


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


def optical_theorem_residual(evaluate, wave: IncidentWave,
                             quad_order: int = 32) -> OpticalTheoremCheck:
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
