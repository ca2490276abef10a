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

where (S|R)(d) = U^H Coax(|d|) U rotates d to the z-axis, translates
coaxially and rotates back (Gumerov & Duraiswami 2004, ch. 3): U is
block-diagonal in l and Coax in m. The tests check the blocks against the
unrotated Gaunt sum and against brute-force product quadrature.
The far field of the solved densities is

    Uinf(xhat) = sum_m e^{-i kappa xhat.z_m} 4 pi r_m^2
                 sum_{l,m'} (-i)^l j_l(kappa r_m) c^{(m)}_{lm'} Y_lm'(xhat),

matching the e^{i kappa r}/(4 pi r) normalization used everywhere else.
A separation-of-variables reference for one sphere (mie_reference) and the
energy (optical-theorem) check live here too.

The self blocks are diagonal, so A = D + C with D = diag(A). A is never
stored: a sphere pair keeps its coaxial block and direction phases
(_BieOperator), and q = ||C D^-1||_F comes from the coaxial blocks alone,
since U is unitary and the block factors and D depend on l only. When
q < 1, A D^-1 = I + C D^-1 has sigma_min >= 1 - q, and solve_bie runs the
certified GMRES of foldy.solve, right-preconditioned by D^-1 (the
Neumann-series counterpart of the Foldy-Lax Weyl certificate). q >= 1, or
GMRES at its iteration cap, falls back to the checked LU, the only step that
makes a dense copy of A. The special functions come from spherical, so
assembly and a certified solve load no scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ResonanceGuard, SeriesNotConverged
from .foldy import PIVOT_REL_TOL, FarFieldGrid, _certified_solve
from .geometry import PAIR_BLOCK, IncidentWave, ScattererCloud, _require_memory, row_blocks
from .spherical import (harmonic_matrix, legendre_p, n_coeffs, sphere_quadrature,
                        spherical_jn, spherical_yn, unit_angles)

BIE_RESIDUAL_TOL = 1e-9
DEFAULT_L = 12
DEFAULT_QUAD_ORDER = 24
SERIES_TAIL_TOL = 1e-12
# interior-resonance guard: diameter * kappa below (4 pi / 3)^(1/3) * pi,
# which keeps kappa*r safely under the first Dirichlet sphere resonance pi
RESONANCE_DIAMETER_LIMIT = (4.0 * math.pi / 3.0) ** (1.0 / 3.0) * math.pi


def _hankel(L: int, z, derivative: bool = False) -> np.ndarray:
    """h_l = j_l + i y_l (or h_l'), l = 0..L, on the trailing axis."""
    return spherical_jn(L, z, derivative) + 1j * spherical_yn(L, z, derivative)


@dataclass(frozen=True)
class SphereSpectra:
    """Self-operator eigenvalues of one sphere, degrees l = 0..L."""

    kappa: float
    radius: float
    L: int
    single_layer: np.ndarray   # s_l
    adjoint_double: np.ndarray  # dstar_l


def _self_spectra(kappa: float, radii: np.ndarray, L: int):
    """(s_l, dstar_l) of all spheres in one call, each (len(radii), L + 1); raises
    ResonanceGuard for the first sphere with kappa * 2*radius >= (4*pi/3)^(1/3) * pi."""
    if np.any(radii <= 0) or kappa <= 0 or L < 0:
        raise ValueError("need radius > 0, kappa > 0, L >= 0")
    resonant = np.flatnonzero(kappa * 2.0 * radii >= RESONANCE_DIAMETER_LIMIT)
    if len(resonant):
        raise ResonanceGuard(f"kappa*diameter = {kappa * 2 * radii[resonant[0]]:g} >= "
                             f"{RESONANCE_DIAMETER_LIMIT:g}: interior resonance not excluded")
    z, r2 = kappa * radii, radii[:, None] ** 2
    j = spherical_jn(L, z)
    return (1j * kappa * r2 * j * _hankel(L, z),
            0.5 + 1j * kappa**2 * r2 * j * _hankel(L, z, derivative=True))


def sphere_operator_spectra(kappa: float, radius: float, L: int) -> SphereSpectra:
    """Closed-form single-layer and adjoint-double-layer spectra on one sphere;
    raises ResonanceGuard as _self_spectra does."""
    s_l, dstar_l = (arr[0] for arr in _self_spectra(kappa, np.array([float(radius)]), L))
    s_l.setflags(write=False)
    dstar_l.setflags(write=False)
    return SphereSpectra(kappa=kappa, radius=radius, L=L,
                         single_layer=s_l, adjoint_double=dstar_l)


# d^1_{mm'}(pi/2), m, m' = -1, 0, 1
_D1 = np.array([[1.0, 2**0.5, 1.0], [-(2**0.5), 0.0, 2**0.5], [1.0, -(2**0.5), 1.0]]) / 2


@lru_cache(maxsize=4)
def _rotation_factor(L: int):
    """Delta^l = d^l(pi/2), l = 0..L, read-only, (L + 1, 2L + 1, 2L + 1) with
    row and column m + L, zero where |m| > l. Delta^l couples Delta^{l-1} with
    d^1(pi/2) through the Clebsch-Gordan coefficients <l-1, m-mu; 1, mu | l, m>,
    a unitary step, so the rows stay orthonormal and nothing leaks across degrees.
    """
    delta = np.zeros((L + 1, 2 * L + 3, 2 * L + 3))  # a zero border for the shifts
    delta[0, L + 1, L + 1] = 1.0
    for l in range(1, L + 1):
        m = np.arange(-l, l + 1)
        cg = np.sqrt(np.stack([(l - 1 - m) * (l - m), 2 * (l - m) * (l + m),
                               (l - 1 + m) * (l + m)]) / (2 * l * (2 * l - 1)))
        lo, hi = L + 1 - l, L + 2 + l
        for mu in (-1, 0, 1):
            for nu in (-1, 0, 1):
                delta[l, lo:hi, lo:hi] += (_D1[mu + 1, nu + 1] * cg[mu + 1][:, None] * cg[nu + 1]
                                           * delta[l - 1, lo - mu:hi - mu, lo - nu:hi - nu])
    delta = np.ascontiguousarray(delta[:, 1:-1, 1:-1])
    delta.setflags(write=False)
    return delta


@lru_cache(maxsize=4)
def _coaxial_table(L: int):
    """The nu = 0 Gaunt table: Coax(|d|) = [h_n(kappa |d|), n = 0..2L] @ table.

    Translation along +z couples equal orders only (Y_n^nu(zhat) = 0 for
    nu != 0), and order -m repeats order m (Y_l^-m = (-1)^m conj(Y_l^m)). So a
    coaxial block is its E entries (l, l', m), 0 <= m <= min(l, l'), in that
    order: Coax_{lm,l'm} = 4 pi sum_n i^(l+n-l') h_n Y_n^0(zhat) G, with
    G = int Y_l'm conj(Y_lm) Y_n^0 dS by Gauss-Legendre of order 2L+1, exact.
    Entries the selection rules forbid are exact zeros: roundoff in them times
    h_{2L} ~ (kappa d)^-(2L+1) would swamp the block. Returns read-only (table
    (2L+1, E), index (L+1)^3 from (|m|, l, l') to the entry, E where
    |m| > min(l, l')); index[0] holds where each (l, l') starts.
    """
    g = np.arange(L + 1)
    l, lp, m = np.nonzero(g <= np.minimum.outer(g, g)[:, :, None])
    x, w = np.polynomial.legendre.leggauss(2 * L + 1)
    polar = np.zeros((len(x), 3))
    polar[:, 0], polar[:, 2] = np.sqrt(1.0 - x**2), x
    Y = harmonic_matrix(L, polar).real  # Y_l^m(theta, 0), real
    n = np.arange(2 * L + 1)
    # 4 pi Y_n^0(zhat) Y_n^0(theta, 0) = (2n + 1) P_n(cos theta); the azimuth gives 2 pi
    gaunt = (w[:, None] * Y[:, l * l + l + m] * Y[:, lp * lp + lp + m]).T @ legendre_p(2 * L, x)
    power = l[:, None] + n - lp[:, None]  # i^power = +-1 where allowed
    allowed = (power % 2 == 0) & (np.abs(l - lp)[:, None] <= n) & (n <= (l + lp)[:, None])
    sign = np.where(power % 4 == 0, 2.0 * np.pi, -2.0 * np.pi)
    table = np.ascontiguousarray(np.where(allowed, sign * (2 * n + 1) * gaunt, 0.0).T)
    index = np.full((L + 1, L + 1, L + 1), len(l))
    index[m, l, lp] = np.arange(len(l))
    for arr in (table, index):
        arr.setflags(write=False)
    return table, index


def _admitted_bytes(M: int, L: int):
    """(operator, workspace) bytes, as assemble_bie admits them: per sphere
    pair E = (L+1)(L+2)(2L+3)/6 coaxial entries, a pad and two phase rows, and
    per unknown D, t, o and the right-hand side; then the Gaunt table with its
    quadrature, Delta, and eight complex arrays of a block of pairs, (L+1)^3
    entries (a padded coaxial block) per pair."""
    E, pairs, width = (L + 1) * (L + 2) * (2 * L + 3) // 6, M * (M - 1) // 2, (L + 1) ** 3
    return (16 * pairs * (E + 1 + 2 * (2 * L + 1)) + 64 * M * n_coeffs(L),
            48 * (2 * L + 1) * E + 24 * (L + 1) * (2 * L + 3) ** 2
            + 128 * min(pairs * width, max(PAIR_BLOCK, width)))


class _BieOperator:
    """The N x N matrix A of M spheres, N = M nc, applied without storing it.

    Pair m < j keeps its coaxial block and the phases e^{ik(phi + pi/2)} and
    e^{-ik theta}, k = -L..L, of d = z_m - z_j. U = diag(i^-m) Delta^T
    diag(e^{-ik theta}) Delta diag(i^m e^{im phi}) rotates d to the z-axis,
    and (S|R)(d) = U^H Coax(|d|) U, where diag(i^-m) commutes with Coax and
    drops out. The factors t, o, P of the blocks depend on l only and are
    applied per sphere. A product takes a block of pairs at a time in the
    padded layout (l, m + L, column, pair): real GEMMs with the shared Delta,
    the phases, and one batched matmul of the coaxial blocks over (pair, |m|).
    """

    def __init__(self, centers: np.ndarray, kappa: float, L: int, diagonal: np.ndarray,
                 trace: np.ndarray, outgoing: np.ndarray):
        """diagonal, trace and outgoing are per sphere and degree, (M, L + 1)."""
        M, nc = len(centers), n_coeffs(L)
        table, self._index = _coaxial_table(L)
        self._delta = _rotation_factor(L)
        self.L, self.shape, self.dtype = L, (M * nc, M * nc), np.dtype(complex)
        self._diagonal = _per_degree(diagonal, L).reshape(-1)
        self._trace, self._outgoing = _per_degree(trace, L), _per_degree(outgoing, L)
        self._parity = _per_degree((-1.0) ** np.arange(L + 1), L)
        self._l = _per_degree(np.arange(L + 1), L)
        self._k = np.arange(nc) - self._l * (self._l + 1) + L  # m + L
        self._pairs = first, second = np.triu_indices(M, 1)
        E = table.shape[1]
        self._coax = np.zeros((len(first), E + 1), dtype=complex)  # column E: the pad
        self._phases = np.empty((2, 2 * L + 1, len(first)), dtype=complex)
        # ||C D^-1||_F^2 sums |t_m,l Coax_{lm',l'm'} o_j,l' / D_j,l'|^2 over both
        # blocks of each pair; orders -m' and m' alike
        nonsingular = bool(np.all(diagonal != 0))
        t2 = np.abs(trace) ** 2
        v2 = np.abs(outgoing / diagonal) ** 2 if nonsingular else np.zeros_like(t2)
        runs = self._index[0].reshape(-1)  # m = 0 opens each (l, l') run
        k, q2 = np.arange(-L, L + 1), 0.0
        for p0, p1 in row_blocks(len(first), width=E + 1):
            m, j = first[p0:p1], second[p0:p1]
            d = centers[m] - centers[j]
            dist = np.linalg.norm(d, axis=1)
            self._coax[p0:p1, :E] = coax = _hankel(2 * L, kappa * dist) @ table
            theta, phi = unit_angles(d / dist[:, None])
            self._phases[0, :, p0:p1] = np.exp(1j * np.outer(k, phi + 0.5 * np.pi))
            self._phases[1, :, p0:p1] = np.exp(-1j * np.outer(k, theta))
            c2 = np.abs(coax) ** 2
            s = (2.0 * np.add.reduceat(c2, runs, axis=1) - c2[:, runs]).reshape(-1, L + 1, L + 1)
            q2 += float(np.einsum("pi,pij,pj->", t2[m], s, v2[j])
                        + np.einsum("pi,pij,pj->", t2[j], s, v2[m]))
        self.neumann_q = math.sqrt(q2) if nonsingular else math.inf
        self._blocks = []
        for p0, p1 in row_blocks(len(first), width=(L + 1) ** 3):
            # column 0 of a pair takes o_j x_j to row m, column 1 P o_m x_m to row j
            target = np.concatenate([first[p0:p1], M + second[p0:p1]])
            put = np.argsort(target, kind="stable")
            slots, starts = np.unique(target[put], return_index=True)
            take = np.concatenate([second[p0:p1], M + first[p0:p1]])
            self._blocks.append((p0, p1, take, put, starts, slots))
        for arr in (self._diagonal, self._trace, self._outgoing, self._coax, self._phases):
            arr.setflags(write=False)

    @property
    def nbytes(self) -> int:  # the coaxial blocks, the phases and the diagonal
        return self._coax.nbytes + self._phases.nbytes + self._diagonal.nbytes

    def diagonal(self) -> np.ndarray:
        return self._diagonal

    def _rotate(self, S: np.ndarray, phase: np.ndarray) -> np.ndarray:
        """Delta^T diag(phase) Delta S, each degree a real GEMM with the shared Delta."""
        n, K = S.shape[:2]
        S = np.matmul(self._delta, S.reshape(n, K, -1).view(float)).view(complex).reshape(S.shape)
        S *= phase
        return np.matmul(self._delta.transpose(0, 2, 1), S.reshape(n, K, -1).view(float)).view(
            complex).reshape(S.shape)

    def _translate(self, S: np.ndarray, p0: int, p1: int) -> np.ndarray:
        """(S|R) of the pairs p0:p1 applied to S, (L + 1, 2L + 1, columns, p1 - p0)."""
        L, (n, K, c, B) = self.L, S.shape
        zphase, tphase = self._phases[:, :, None, p0:p1]
        S = self._rotate(np.multiply(S, zphase, order="C"), tphase)  # S may be a broadcast view
        # Coax over (pair, |m|), the columns of orders m and -m side by side
        V = np.empty((B, L + 1, n, 2, c), dtype=complex)
        V[..., 0, :] = S[:, L:].transpose(3, 1, 0, 2)
        V[..., 1, :] = S[:, L::-1].transpose(3, 1, 0, 2)
        V = np.matmul(self._coax[p0:p1].take(self._index, axis=1),
                      V.reshape(B, L + 1, n, 2 * c)).reshape(V.shape)
        S = np.empty(S.shape, dtype=complex)
        S[:, L:] = V[..., 0, :].transpose(2, 1, 3, 0)
        S[:, L::-1] = V[..., 1, :].transpose(2, 1, 3, 0)
        S = self._rotate(S, tphase.conj())
        S *= zphase.conj()
        return S

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        M, nc = self._trace.shape
        L, K = self.L, 2 * self.L + 1
        x = x.reshape(M, nc)
        u = self._outgoing * x
        src = np.zeros((L + 1, K, 2 * M), dtype=complex)  # o x, then P o x
        src[self._l, self._k] = np.concatenate([u, self._parity * u]).T
        acc = np.zeros_like(src)  # rows from o x, then rows from P o x
        for p0, p1, take, put, starts, slots in self._blocks:
            out = self._translate(src[:, :, take].reshape(L + 1, K, 2, p1 - p0), p0, p1)
            acc[:, :, slots] += np.add.reduceat(out.reshape(L + 1, K, -1)[:, :, put], starts,
                                                axis=2)
        acc = acc[self._l, self._k]
        y = self._trace * (acc[:, :M] + self._parity[:, None] * acc[:, M:]).T
        return self._diagonal * x.reshape(-1) + y.reshape(-1)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        M, nc = self._trace.shape
        L, K = self.L, 2 * self.L + 1
        t, o, P = self._trace, self._outgoing, self._parity
        A = np.zeros((M, nc, M, nc), dtype=complex)
        unit = np.zeros((L + 1, K, nc, 1))
        unit[self._l, self._k, np.arange(nc)] = 1.0
        for p0, p1 in row_blocks(len(self._pairs[0]), width=(L + 1) * K * nc):
            SR = self._translate(np.broadcast_to(unit, (L + 1, K, nc, p1 - p0)), p0, p1)
            SR = SR[self._l, self._k].transpose(2, 0, 1)
            m, j = (index[p0:p1] for index in self._pairs)
            A[m, :, j, :] = t[m, :, None] * SR * o[j, None, :]
            A[j, :, m, :] = (P * t[j])[:, :, None] * SR * (P * o[m])[:, None, :]
        A = A.reshape(self.shape)
        A[np.diag_indices(len(A))] = self._diagonal
        return A if dtype is None else A.astype(dtype, copy=False)


@dataclass(frozen=True)
class BieSystem:
    """Assembled boundary-integral system A c = rhs for a sphere cloud.

    matrix is A, matrix-free (_BieOperator): shape, dtype, nbytes, diagonal(),
    the product with a vector, and np.asarray(matrix), the dense A. neumann_q
    = ||C D^-1||_F, D = diag(A), certifies solve_bie (inf where D has a zero).
    quad_order is validated and kept; the exact cross blocks ignore it.
    """

    matrix: _BieOperator
    rhs: np.ndarray
    cloud: ScattererCloud
    wave: IncidentWave
    L: int
    quad_order: int
    neumann_q: float


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
    """Layer densities with their relative inf-norm residual; iterations is the
    GMRES matrix-vector count, None where the dense LU solved the system."""

    densities: tuple
    residual_inf: float
    system: BieSystem
    iterations: int | None = None


def _per_degree(values_by_l: np.ndarray, L: int) -> np.ndarray:
    """Expand per-degree values (trailing axis L+1) to the flat (l, m) order."""
    return np.repeat(values_by_l, 2 * np.arange(L + 1) + 1, axis=-1)


def _incident_coeffs(wave: IncidentWave, centers: np.ndarray, radial: np.ndarray,
                     L: int) -> np.ndarray:
    """Harmonic coefficients (M, nc) of -(d/dnu + lambda) e^{i kappa x.theta}
    on each sphere.

    Local expansion about each center: e^{i kappa y.theta} =
    4 pi sum i^l j_l(kappa|y|) Y_lm(yhat) conj(Y_lm(theta)); radial[m, l] is
    (d/dnu + lambda_m) j_l(kappa|y|) on sphere m. The harmonics at theta are
    the same for every sphere and are evaluated once.
    """
    phase = np.exp(1j * wave.kappa * (centers @ wave.theta))
    Yt = harmonic_matrix(L, wave.theta.reshape(1, 3))[0]
    scale = _per_degree(4.0 * np.pi * (1j ** np.arange(L + 1)) * radial, L)
    return -phase[:, None] * scale * np.conj(Yt)


def assemble_bie(cloud: ScattererCloud, wave: IncidentWave,
                 L: int = DEFAULT_L, quad_order: int = DEFAULT_QUAD_ORDER) -> BieSystem:
    """Assemble the coupled boundary-integral system for a sphere cloud.

    Cross blocks are exact (addition theorem), so quad_order does not change
    the system; it is still validated and kept on the BieSystem.

    Raises:
        ValueError: cloud carries non-spherical obstacles, or quad_order < 1.
        InsufficientMemory: before any per-sphere work, the operator and its
            workspace (_admitted_bytes) exceed the memory available.
        ResonanceGuard: any sphere too large for the wavenumber.
    """
    if not cloud.is_spherical:
        raise ValueError("boundary-integral oracle requires true spheres")
    if quad_order < 1:
        raise ValueError("quadrature order must be >= 1")
    _require_memory(sum(_admitted_bytes(cloud.M, L)), f"N = {cloud.M * n_coeffs(L)} at "
                    f"L = {L}", "the boundary-integral operator and its workspace")
    if np.any(cloud.impedances.imag < 0):
        warnings.warn("Im(lambda) < 0: well-posedness is not guaranteed; proceeding "
                      "(the solve certifies q = ||C D^-1||_F < 1 or falls back to LU)",
                      stacklevel=2)
    kappa, lams = wave.kappa, cloud.impedances[:, None]
    single, adjoint_double = _self_spectra(kappa, cloud.radii, L)
    z = kappa * cloud.radii
    jl = spherical_jn(L, z)
    radial = kappa * spherical_jn(L, z, derivative=True) + lams * jl
    # the translation needs r_m < |z_m - z_j|, which d_eff > 0 gives
    A = _BieOperator(cloud.centers, kappa, L, adjoint_double - 0.5 + lams * single, radial,
                     1j * kappa * cloud.radii[:, None] ** 2 * jl)
    rhs = _incident_coeffs(wave, cloud.centers, radial, L).reshape(-1)
    rhs.setflags(write=False)
    return BieSystem(matrix=A, rhs=rhs, cloud=cloud, wave=wave, L=L,
                     quad_order=quad_order, neumann_q=A.neumann_q)


def solve_bie(system: BieSystem) -> BieSolution:
    """Certified GMRES, else checked dense LU; residual bound BIE_RESIDUAL_TOL.

    If 1 - q > PIVOT_REL_TOL, q = ||C D^-1||_F, then sigma_min(A D^-1) >= 1 - q
    and foldy's restarted GMRES, right-preconditioned by D^-1, runs to a
    relative residual of GMRES_TOL; iterations records its products with A.
    Otherwise, or when GMRES reaches GMRES_MAXITER, the dense LU solves, its
    pivot test against the ||A||_inf of its dense copy, and iterations is None.
    Either way the inf-norm residual is checked.

    Raises:
        SingularSystem: an LU pivot underflows or the residual exceeds
            BIE_RESIDUAL_TOL.
        InsufficientMemory: the LU path has no room for its factors.
    """
    q = system.neumann_q
    margin = 1.0 - q if 1.0 - q > PIVOT_REL_TOL else None
    x, residual, iterations = _certified_solve(system.matrix, system.rhs, margin,
                                               BIE_RESIDUAL_TOL, None)
    nc = n_coeffs(system.L)
    densities = []
    for m in range(system.cloud.M):
        c = x[m * nc:(m + 1) * nc].copy()
        c.setflags(write=False)
        densities.append(SurfaceDensity(sphere=m, radius=float(system.cloud.radii[m]),
                                        L=system.L, coefficients=c))
    return BieSolution(densities=tuple(densities), residual_inf=residual, system=system,
                       iterations=iterations)


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
                             * spherical_jn(L, wave.kappa * r), L)
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
    j = spherical_jn(L, z)
    jp = spherical_jn(L, z, derivative=True)
    h = _hankel(L, z)
    hp = _hankel(L, z, derivative=True)
    denom = kappa * hp + impedance * h
    if np.any(np.abs(denom) == 0) or not np.all(np.isfinite(denom)):
        raise SeriesNotConverged("modal denominator vanished (impedance resonance)")
    a_l = -(kappa * jp + impedance * j) / denom
    directions = np.asarray(directions, dtype=float).reshape(-1, 3)
    mu = np.clip(directions @ wave.theta, -1.0, 1.0)
    values = legendre_p(L, mu) @ ((2 * np.arange(L + 1) + 1) * a_l)
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
