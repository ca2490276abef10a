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

The self blocks are diagonal, so A = D + C with D = diag(A). The pair
(j, m) reuses the (m, j) translation, (S|R)(z_j - z_m) = P (S|R)(z_m - z_j) P
with P = diag((-1)^l), so A is stored once per sphere pair, packed in the
spirit of LAPACK's packed storage (Anderson et al., LAPACK Users' Guide, SIAM
1999): one block SR = (S|R)(z_m - z_j) per pair m < j, in per-sphere row
strips of 16 nc^2 (M - m - 1) bytes, beside D and the per-sphere factors of
the blocks. A @ x reads each strip twice, as two matrix-vector products over
the same contiguous buffer, and np.asarray(A) builds the dense matrix. While
each |SR| is in cache, the assembly loop also sums q = ||C D^-1||_F and
||A||_inf. When q < 1, A D^-1 = I + C D^-1 has sigma_min >= 1 - q, and
solve_bie runs the certified GMRES that foldy.solve uses, right-preconditioned
by D^-1 (the Neumann-series counterpart of the Foldy-Lax Weyl certificate).
q >= 1, or GMRES at its iteration cap, falls back to the checked LU, the only
step that makes a dense copy of A. The special functions come from spherical,
so assembly and a certified solve load no scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ResonanceGuard, SeriesNotConverged
from .foldy import PIVOT_REL_TOL, FarFieldGrid, _certified_solve
from .geometry import IncidentWave, ScattererCloud, _require_memory
from .spherical import (harmonic_matrix, legendre_p, n_coeffs, sphere_quadrature,
                        spherical_jn, spherical_yn)

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
    z = kappa * radius
    j = spherical_jn(L, z)
    h = _hankel(L, z)
    hp = _hankel(L, z, derivative=True)
    s_l = 1j * kappa * radius**2 * j * h
    dstar_l = 0.5 + 1j * kappa**2 * radius**2 * j * hp
    for arr in (s_l, dstar_l):
        arr.setflags(write=False)
    return SphereSpectra(kappa=kappa, radius=radius, L=L,
                         single_layer=s_l, adjoint_double=dstar_l)


class _PackedBie:
    """The N x N matrix A of M spheres, N = M nc, stored once per sphere pair.

    strips[m], for m < M - 1, holds the blocks SR = (S|R)(z_m - z_j) of the
    pairs j > m, laid out (nc, M - m - 1, nc) so that strips[m][:, j - m - 1]
    is the block; all strips share one flat buffer, which the constructor
    allocates uninitialised. With trace t, outgoing factors o and parity
    P = diag((-1)^l), the (m, j) block of A is diag(t_m) SR diag(o_j) and the
    (j, m) block diag(P t_j) SR diag(P o_m); the diagonal of A is D.
    """

    def __init__(self, diagonal: np.ndarray, trace: np.ndarray, outgoing: np.ndarray,
                 parity: np.ndarray):
        M, nc = trace.shape
        self._diagonal, self._trace, self._outgoing, self._parity = (
            diagonal, trace, outgoing, parity)
        self._buf = np.empty(nc * nc * (M * (M - 1) // 2), dtype=complex)
        self.shape, self.dtype, self.strips = (M * nc, M * nc), self._buf.dtype, []
        start = 0
        for m in range(M - 1):
            size = nc * nc * (M - m - 1)
            self.strips.append(self._buf[start:start + size].reshape(nc, M - m - 1, nc))
            start += size

    @property
    def nbytes(self) -> int:
        """The strips and the diagonal, as assemble_bie admits them."""
        return self._buf.nbytes + self._diagonal.nbytes

    def diagonal(self) -> np.ndarray:
        return self._diagonal

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        M, nc = self._trace.shape
        x = x.reshape(M, nc)
        u = self._outgoing * x
        v = self._parity * u
        rows, cols = np.zeros((M, nc), dtype=complex), np.zeros((M, nc), dtype=complex)
        for m, S in enumerate(self.strips):
            k = M - m - 1
            # sphere m's row from its pairs j > m, then their rows from sphere m
            rows[m] += S.reshape(nc, k * nc) @ u[m + 1:].reshape(-1)
            cols[m + 1:] += (S.reshape(nc * k, nc) @ v[m]).reshape(nc, k).T
        y = self._trace * rows
        y += self._parity * self._trace * cols
        return self._diagonal * x.reshape(-1) + y.reshape(-1)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        M, nc = self._trace.shape
        t, o, P = self._trace, self._outgoing, self._parity
        A = np.zeros(self.shape, dtype=complex)
        A[np.diag_indices(len(A))] = self._diagonal
        for m, S in enumerate(self.strips):
            for j in range(m + 1, M):
                SR = S[:, j - m - 1]
                A[m * nc:(m + 1) * nc, j * nc:(j + 1) * nc] = (
                    t[m][:, None] * SR * o[j][None, :])
                A[j * nc:(j + 1) * nc, m * nc:(m + 1) * nc] = (
                    (P * t[j])[:, None] * SR * (P * o[m])[None, :])
        return A if dtype is None else A.astype(dtype, copy=False)


@dataclass(frozen=True)
class BieSystem:
    """Assembled boundary-integral system A c = rhs for a sphere cloud.

    matrix is A packed per sphere pair (see the module docstring): it has
    shape, dtype, nbytes, diagonal() and the product with a vector, and
    np.asarray(matrix) is the dense A. The assembly loop also yields the
    certificate inputs of solve_bie: neumann_q = ||C D^-1||_F for
    A = D + C, D = diag(A) (inf where an entry of D vanishes), and
    norm_inf = ||A||_inf. quad_order is validated and kept, but the exact
    cross blocks do not depend on it.
    """

    matrix: _PackedBie
    rhs: np.ndarray
    cloud: ScattererCloud
    wave: IncidentWave
    L: int
    quad_order: int
    neumann_q: float
    norm_inf: float


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

    Returns read-only (harm, vals, starts), sorted by block entry and then by
    n: the block is np.add.reduceat(hY[harm] * vals, starts) for hY indexed
    n^2 + n + nu. The selection rules leave n = lo, lo + 2, ..., l + l' with
    lo = max(|l - l'|, |nu|) raised to the parity of l + l', so every block
    entry has at least one term and no reduceat segment is empty. Entries
    sharing nu = m' - m share their Gaunt harmonics, so each nu takes one
    product of the quadrature over all its entries and all n >= |nu|.
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
    lo = np.maximum(np.abs(l - lp), np.abs(nu))
    lo += (l + lp - lo) % 2
    count = (l + lp - lo) // 2 + 1
    starts = np.cumsum(count) - count
    harm, vals = np.empty(starts[-1] + count[-1], dtype=int), np.empty(starts[-1] + count[-1])
    for v in range(-n_max, n_max + 1):
        idx = np.flatnonzero(nu == v)
        n = np.arange(abs(v), n_max + 1)
        gaunt = 2.0 * np.pi * (
            (w[:, None] * P[:, col[idx]] * P[:, row[idx]]).T @ P[:, n * n + n + v])
        k = np.repeat(np.arange(len(idx)), count[idx])  # the group row of each term
        e = idx[k]
        step = np.arange(len(k)) - (np.cumsum(count[idx]) - count[idx])[k]
        n = lo[e] + 2 * step
        # l + n - l' is even, so i^(l+n-l') is real
        sign = np.where(((l[e] + n - lp[e]) // 2) % 2 == 0, 1.0, -1.0)
        harm[starts[e] + step] = n * n + n + v
        vals[starts[e] + step] = 4.0 * np.pi * sign * gaunt[k, n - abs(v)]
    table = (harm, vals, starts)
    for arr in table:
        arr.setflags(write=False)
    return table


def _coupling_bytes(M: int, L: int) -> int:
    """Bytes the cross blocks of M spheres take beside the packed matrix: at
    most L + 1 terms per block entry (16 bytes in the table, 32 in
    hY[harm] * vals), 128 bytes of index arithmetic and one-block temporaries
    per entry, and five times the 16-byte pair harmonics H."""
    nc = n_coeffs(L)
    return nc * nc * (128 + 48 * (L + 1)) + 40 * M * (M - 1) * (2 * L + 1) ** 2


def assemble_bie(cloud: ScattererCloud, wave: IncidentWave,
                 L: int = DEFAULT_L, quad_order: int = DEFAULT_QUAD_ORDER) -> BieSystem:
    """Assemble the coupled boundary-integral system for a sphere cloud.

    Cross blocks are exact (addition theorem), so quad_order does not change
    the system; it is still validated and kept on the BieSystem.

    Raises:
        ValueError: cloud carries non-spherical obstacles, or quad_order < 1.
        InsufficientMemory: before any per-sphere work, the packed matrix
            (16 nc^2 M (M - 1)/2 + 16 N bytes, nc = (L+1)^2, N = M nc) or, for
            M > 1, it and _coupling_bytes(M, L) exceed the memory available.
        ResonanceGuard: any sphere too large for the wavenumber.
    """
    if not cloud.is_spherical:
        raise ValueError("boundary-integral oracle requires true spheres")
    if quad_order < 1:
        raise ValueError("quadrature order must be >= 1")
    M, nc = cloud.M, n_coeffs(L)
    N = M * nc
    packed = 16 * nc * nc * (M * (M - 1) // 2) + 16 * N
    _require_memory(packed, f"N = {N}", "the boundary-integral matrix")
    if M > 1:
        _require_memory(packed + _coupling_bytes(M, L), f"N = {N} at L = {L}",
                        "the matrix and its translation table")
    if np.any(cloud.impedances.imag < 0):
        warnings.warn("Im(lambda) < 0: well-posedness is not guaranteed; proceeding "
                      "(the solve certifies q = ||C D^-1||_F < 1 or falls back to LU)",
                      stacklevel=2)
    kappa, lams = wave.kappa, cloud.impedances[:, None]
    spectra = [sphere_operator_spectra(kappa, float(r), L) for r in cloud.radii]
    self_blocks = (np.array([sp.adjoint_double for sp in spectra]) - 0.5
                   + lams * np.array([sp.single_layer for sp in spectra]))
    z = kappa * cloud.radii
    jl = spherical_jn(L, z)
    radial = kappa * spherical_jn(L, z, derivative=True) + lams * jl
    trace = _per_degree(radial, L)
    outgoing = _per_degree(1j * kappa * cloud.radii[:, None] ** 2 * jl, L)
    diagonal = _per_degree(self_blocks, L).reshape(-1)
    # The pair (j, m) reuses the (m, j) translation: Y_n(-dhat) =
    # (-1)^n Y_n(dhat) and l + l' + n is even, so (S|R)(-d) = P (S|R)(d) P
    # with P = diag((-1)^l).
    parity = _per_degree((-1.0) ** np.arange(L + 1), L)
    for arr in (trace, outgoing, diagonal, parity):
        arr.setflags(write=False)
    A = _PackedBie(diagonal, trace, outgoing, parity)
    rhs = _incident_coeffs(wave, cloud.centers, radial, L).reshape(-1)
    # Per-row sums of |A_ij| and |A_ij / D_j|^2 off the diagonal, without the
    # row factors |t|, |t|^2: |C D^-1| has entries |t_m| |SR| |o_j / D_j|.
    abs_diag = np.abs(diagonal)
    nonsingular = bool(np.all(abs_diag > 0))
    abs_out = np.abs(outgoing)
    w2 = (abs_out / abs_diag.reshape(M, nc)) ** 2 if nonsingular else np.zeros((M, nc))
    rows_inf, rows_q = np.zeros((M, nc)), np.zeros((M, nc))
    if M > 1:
        # Cross blocks as in the module docstring; the translation needs
        # r_m < |z_m - z_j|, which d_eff > 0 gives.
        harm, vals, starts = _translation_table(L)
        first, second = np.triu_indices(M, 1)
        t = cloud.centers[first] - cloud.centers[second]
        dist = np.linalg.norm(t, axis=1)
        H = harmonic_matrix(2 * L, t / dist[:, None])
        H *= _per_degree(_hankel(2 * L, kappa * dist), 2 * L)
        for m, j, hY in zip(first, second, H):
            SR = np.add.reduceat(hY[harm] * vals, starts).reshape(nc, nc)
            A.strips[m][:, j - m - 1] = SR
            absSR = np.abs(SR)
            rows_inf[m] += absSR @ abs_out[j]
            rows_inf[j] += absSR @ abs_out[m]
            absSR *= absSR
            rows_q[m] += absSR @ w2[j]
            rows_q[j] += absSR @ w2[m]
    for S in A.strips:
        S.setflags(write=False)
    rhs.setflags(write=False)
    abs_trace = np.abs(trace)
    norm_inf = float(np.max(abs_diag + (abs_trace * rows_inf).reshape(-1)))
    q = math.sqrt(float(np.vdot(abs_trace * abs_trace, rows_q))) if nonsingular else math.inf
    return BieSystem(matrix=A, rhs=rhs, cloud=cloud, wave=wave, L=L,
                     quad_order=quad_order, neumann_q=q, norm_inf=norm_inf)


def solve_bie(system: BieSystem) -> BieSolution:
    """Certified GMRES, else checked dense LU; residual bound BIE_RESIDUAL_TOL.

    Assembly yields q = ||C D^-1||_F and ||A||_inf. If 1 - q > PIVOT_REL_TOL,
    then sigma_min(A D^-1) >= 1 - q and foldy's restarted GMRES,
    right-preconditioned by D^-1, runs to a relative residual of GMRES_TOL
    over products with the packed A; iterations records their count.
    Otherwise, or when GMRES reaches GMRES_MAXITER, the dense LU solves with
    its pivot test against ||A||_inf and iterations is None. Either way the
    inf-norm residual is checked.

    Raises:
        SingularSystem: an LU pivot underflows or the residual exceeds
            BIE_RESIDUAL_TOL.
        InsufficientMemory: the LU path has no room for its factors.
    """
    q = system.neumann_q
    margin = 1.0 - q if 1.0 - q > PIVOT_REL_TOL else None
    x, residual, iterations = _certified_solve(system.matrix, system.rhs, margin,
                                               BIE_RESIDUAL_TOL, system.norm_inf)
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
