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
solve_bie returns the solve vector as coefficients, one row c^{(m)} per
sphere in spherical's flat (l, m) order, and the far field of the densities
they expand is

    Uinf(xhat) = sum_m e^{-i kappa xhat.z_m} 4 pi r_m^2
                 sum_{l,m'} (-i)^l j_l(kappa r_m) c^{(m)}_{lm'} Y_lm'(xhat),

matching the e^{i kappa r}/(4 pi r) normalization used everywhere else.
It is the reference of every comparison; at M = 1 it is the
separation-of-variables (Mie) series, to which acceptance criterion 8 pins it.

The self blocks are diagonal, so A = D + C with D = diag(A). A is never
stored: a sphere pair keeps its coaxial block and direction phases
(_BieOperator), and the operator carries q = ||C D^-1||_F, which its
assembly takes from the coaxial blocks alone, since U is unitary and the
block factors and D depend on l only. When q < 1, A D^-1 = I + C D^-1 has
sigma_min >= 1 - q: solve_bie hands A to foldy._certified_solve, the policy
foldy.solve runs on its packed B, which reads A.q, so GMRES
right-preconditioned by D^-1 solves where 1 - q > PIVOT_REL_TOL. A
larger q, or GMRES at its iteration cap, falls back to the checked LU, the
only step that makes a dense copy of A. The special functions come from
spherical, so assembly and a certified solve load no scipy.

Assembly is one pass over the pairs, ordered by their gap j - m, in blocks of
about PAIR_BLOCK coaxial entries; a product walks those blocks in one layout,
(l, m, column, pair), pairs innermost, orders interleaved 0, 1, -1, 2, -2, ...:
Delta degree by degree as a real GEMM on its (2l+1)^2 block, the phases row by
row, and Coax entry by entry over all pairs of the block. In a run of one gap
the spheres are consecutive, so gathering and scattering are slices. A product
allocates O(N): one block's and two per-sphere work buffers come with A.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ResonanceGuard, SeriesNotConverged
from .foldy import FarFieldGrid, _certified_solve
from .geometry import (PAIR_BLOCK, IncidentWave, ScattererCloud, _require_memory,
                       _require_spheres, row_blocks)
from .kernels import farfield_kernel, plane_wave
from .spherical import (_degrees_orders, gauss_legendre, harmonic_matrix, legendre_p, n_coeffs,
                        spherical_jn, spherical_yn, unit_angles)

BIE_RESIDUAL_TOL = 1e-9
DEFAULT_L = 12
DEFAULT_QUAD_ORDER = 24
UFUNC_BUFSIZE = 64  # numpy's ufunc buffer, in elements, during a BIE product
# interior-resonance guard: diameter * kappa below (4 pi / 3)^(1/3) * pi,
# which keeps kappa*r safely under the first Dirichlet sphere resonance pi
RESONANCE_DIAMETER_LIMIT = (4.0 * math.pi / 3.0) ** (1.0 / 3.0) * math.pi


def _hankel(L: int, z, derivative: bool = False) -> np.ndarray:
    """h_l = j_l + i y_l (or h_l'), l = 0..L, on the trailing axis.

    Raises SeriesNotConverged where y_l overflows: it grows like
    (2l-1)!!/z^(l+1), so too high an L or too small a kappa has no finite h_l."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = spherical_yn(L, z, derivative)
    if not np.all(np.isfinite(y)):
        raise _overflow(L, z)
    return spherical_jn(L, z, derivative) + 1j * y


def _overflow(L: int, z) -> SeriesNotConverged:
    return SeriesNotConverged(f"spherical_yn overflows by degree {L} at kappa times a radius "
                              f"or a distance = {float(np.min(z)):.3g}: lower L or raise kappa "
                              "for the boundary-integral oracle")


@dataclass(frozen=True)
class SphereSpectra:
    """Self-operator eigenvalues of one sphere, degrees l = 0..L."""

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
    return SphereSpectra(single_layer=s_l, adjoint_double=dstar_l)


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
    coaxial block is its E entries (l, l', m), 0 <= m <= min(l, l'), ordered
    by m, then l', then l, so that the entries l = m..L of one (m, l') are
    adjacent: Coax_{lm,l'm} = 4 pi sum_n i^(l+n-l') h_n Y_n^0(zhat) G, with
    G = int Y_l'm conj(Y_lm) Y_n^0 dS by Gauss-Legendre of order 2L+1, exact.
    Entries the selection rules forbid are exact zeros: roundoff in them times
    h_{2L} ~ (kappa d)^-(2L+1) would swamp the block. Returns read-only (table
    (2L+1, E), and the (l, l', m) of each entry, (3, E)).
    """
    g = np.arange(L + 1)
    m, lp, l = np.nonzero(g[:, None, None] <= np.minimum.outer(g, g))
    x, w = gauss_legendre(2 * L + 1)
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
    entries = np.stack([l, lp, m])
    for arr in (table, entries):
        arr.setflags(write=False)
    return table, entries


def _interleaved_orders(L: int) -> np.ndarray:
    """The orders 0, 1, -1, 2, -2, ..., L, -L of the operator's m axis: degree
    l holds the first 2l + 1, and orders m and -m sit side by side."""
    m = np.arange(1, L + 1)
    return np.concatenate([[0], np.stack([m, -m], axis=1).reshape(-1)])


def _admitted_bytes(M: int, L: int):
    """(operator, workspace) bytes, as assemble_bie admits them: per sphere
    pair E = (L+1)(L+2)(2L+3)/6 coaxial entries, its two sphere indices and
    two phase rows, and per unknown D, t, o and the right-hand side; then each
    pair's offset and distance, the Gaunt table with its quadrature, Delta,
    and eight complex arrays of a block of pairs, (L+1)^3 entries per pair.
    Those hold assembly's temporaries and the product's buffers (_buffers):
    8(L+1)^2 <= 8(E+1) entries for each of a block's PAIR_BLOCK // (E+1)
    pairs (at least 2), and 2(L+1)(2L+1) per sphere."""
    E, pairs, width = (L + 1) * (L + 2) * (2 * L + 3) // 6, M * (M - 1) // 2, (L + 1) ** 3
    return (16 * pairs * (E + 1 + 2 * (2 * L + 1)) + 64 * M * n_coeffs(L),
            32 * pairs + 48 * (2 * L + 1) * E + 24 * (L + 1) * (2 * L + 3) ** 2
            + 128 * min(pairs * width, max(PAIR_BLOCK, width)))


def _buffers(L: int, columns: int, pairs: int, work: np.ndarray | None = None):
    """The work arrays of one block of pairs, views of one flat array of
    4(L+1)^2 columns pairs entries (work, else new zeros): S and T,
    (L + 1, 2L + 1, columns, pairs), and tmp, (L + 1, 2, columns, pairs)."""
    K, size = 2 * L + 1, (L + 1) * columns * pairs
    if work is None:
        work = np.zeros((2 * K + 2) * size, dtype=complex)
    return (work[:K * size].reshape(L + 1, K, columns, pairs),
            work[K * size:2 * K * size].reshape(L + 1, K, columns, pairs),
            work[2 * K * size:(2 * K + 2) * size].reshape(L + 1, 2, columns, pairs))


def _gemm(delta: np.ndarray, a: np.ndarray, out: np.ndarray):
    """out = delta @ a over the leading axis of complex a, as one real GEMM."""
    k = len(delta)
    np.matmul(delta, a.reshape(k, -1).view(float), out=out.reshape(k, -1).view(float))


def _times_conj(a: np.ndarray, phase: np.ndarray):
    """a[1:] *= conj(phase[1:]) for phases e^{ik alpha} on the interleaved m
    axis: conj of order k is order -k, the neighbour, so it is a view."""
    half = (len(a) - 1) // 2
    if half:
        pairs = a[1:].reshape(half, 2, *a.shape[1:])
        pairs *= phase[1:len(a)].reshape(half, 2, 1, -1)[:, ::-1]


class _BieOperator:
    """The N x N matrix A of M spheres, N = M nc, applied without storing it.

    Pair (m, j), m < j, keeps its coaxial block, the phases e^{ik(phi + pi/2)}
    and e^{-ik theta}, k = -L..L, of d = z_m - z_j, and its two sphere
    indices. U = diag(i^-m) Delta^T diag(e^{-ik theta}) Delta diag(i^m e^{im phi})
    rotates d to the z-axis, and (S|R)(d) = U^H Coax(|d|) U, where diag(i^-m)
    commutes with Coax and drops out. The factors t, o, P of the blocks depend
    on l only and are applied per sphere. Every pair's offset and distance
    come first, and h_2L at the closest pair, the first to overflow, is
    checked before the Gaunt table and Delta are built. One pass over the
    blocks of row_blocks(pairs, width=E + 1) makes each block's coaxial
    entries and phases, its share of the certificate q = ||C D^-1||_F (inf
    where D has a zero), and its runs of one gap, and the product walks
    those blocks.

    The product's layout is (l, m, column, pair), m in _interleaved_orders
    (see the module docstring). Coax multiplies, for each (|m|, l'), the rows
    (l, +-m), l >= |m|, by its entries l = |m|..L. Column 0 of a pair takes
    o_j x_j to row m, column 1 P o_m x_m to row j. The work buffers live in
    the operator, so two products of one operator must not run at the same time.
    """

    def __init__(self, centers: np.ndarray, kappa: float, L: int, diagonal: np.ndarray,
                 trace: np.ndarray, outgoing: np.ndarray):
        """diagonal, trace and outgoing are per sphere and degree, (M, L + 1)."""
        M, nc, K = len(centers), n_coeffs(L), 2 * L + 1
        counts = np.arange(M - 1, 0, -1)  # pairs of gap j - m = 1..M-1
        first = np.arange(M * (M - 1) // 2) - np.repeat(np.cumsum(counts) - counts, counts)
        second = first + np.repeat(np.arange(1, M), counts)
        offsets = centers[first] - centers[second]
        distances = np.linalg.norm(offsets, axis=1)
        if M > 1:  # h_2L overflows first at the closest pair: find out before the tables
            _hankel(2 * L, kappa * distances.min())
        table, (el, elp, em) = _coaxial_table(L)
        orders = _interleaved_orders(L)
        delta = _rotation_factor(L)
        self._delta = [delta[l][np.ix_(L + orders[:2 * l + 1], L + orders[:2 * l + 1])]
                       for l in range(L + 1)]
        self.L, self.shape = L, (M * nc, M * nc)
        self._diagonal = _per_degree(diagonal, L).reshape(-1)
        self._trace, self._outgoing = _per_degree(trace, L), _per_degree(outgoing, L)
        ls, ms = _degrees_orders(L)
        self._rows = (ls, 2 * np.abs(ms) - (ms > 0))  # (l, m) -> (l, position of m)
        self._pairs = first, second
        E = table.shape[1]
        self._coax = np.empty((E, len(first)), dtype=complex)
        self._phases = np.empty((2, K, len(first)), dtype=complex)
        # ||C D^-1||_F^2 sums |t_m,l Coax_{lm',l'm'} o_j,l' / D_j,l'|^2 over both blocks
        # of each pair, orders -m' and m' alike, each entry scaled before it is
        # squared: at small kappa d Coax grows like (kappa d)^-(l+l'+1)
        nonsingular = bool(np.all(diagonal != 0))
        t = np.abs(trace)[:, el]
        v = np.abs(outgoing / diagonal)[:, elp] if nonsingular else np.zeros_like(t)
        weight = np.where(em > 0, 2.0, 1.0)
        q2, self._blocks = 0.0, []
        for p0, p1 in row_blocks(len(first), width=E + 1):
            m, j = first[p0:p1], second[p0:p1]
            d, dist = offsets[p0:p1], distances[p0:p1]
            coax = _hankel(2 * L, kappa * dist) @ table
            if not np.all(np.isfinite(coax)):  # a finite h_2L times the table may not be
                raise _overflow(2 * L, kappa * dist)
            self._coax[:, p0:p1] = coax.T
            theta, phi = unit_angles(d / dist[:, None])
            self._phases[0, :, p0:p1] = np.exp(1j * np.outer(orders, phi + 0.5 * np.pi))
            self._phases[1, :, p0:p1] = np.exp(-1j * np.outer(orders, theta))
            c = np.abs(coax)
            for row, col in ((m, j), (j, m)):
                x = c * t[row] * v[col]
                q2 += float(np.einsum("pe,pe,e->", x, x, weight))
            # the block's runs of one gap: slices of its pairs, of spheres m and of spheres j
            ends = np.flatnonzero(np.diff(j - m, prepend=0, append=0)).tolist()
            self._blocks.append((p0, p1, [(slice(a, b), slice(m[a], m[a] + b - a),
                                           slice(j[a], j[a] + b - a))
                                          for a, b in zip(ends, ends[1:])]))
        self.q = math.sqrt(q2) if nonsingular else math.inf
        width = max((p1 - p0 for p0, p1, _ in self._blocks), default=0)
        self._work = np.zeros(4 * (L + 1) ** 2 * 2 * width, dtype=complex)  # see _buffers
        self._spheres = np.zeros((2, L + 1, K, M), dtype=complex)  # sources, then sums
        for arr in (self._diagonal, self._trace, self._outgoing, self._coax, self._phases,
                    first, second):
            arr.setflags(write=False)

    @property
    def nbytes(self) -> int:  # the coaxial blocks, the phases, the pairs and the diagonal
        return (self._coax.nbytes + self._phases.nbytes + self._pairs[0].nbytes
                + self._pairs[1].nbytes + self._diagonal.nbytes)

    def diagonal(self) -> np.ndarray:
        return self._diagonal

    def _translate(self, S: np.ndarray, T: np.ndarray, tmp: np.ndarray, p0: int, p1: int):
        """T = (S|R) S for the pairs p0:p1; S and T are (L + 1, 2L + 1, columns,
        p1 - p0) in the interleaved layout, S is overwritten, and tmp is
        (L + 1, 2, columns, p1 - p0) scratch. Order 0 has phase 1 and is not
        multiplied."""
        zphase, tphase = self._phases[:, :, p0:p1]
        for l, delta in enumerate(self._delta):
            k = 2 * l + 1
            s, t = S[l, :k], T[l, :k]
            s[1:] *= zphase[1:k, None]
            _gemm(delta, s, t)
            t[1:] *= tphase[1:k, None]
            _gemm(delta.T, t, s)
        coax, e, L = self._coax[:, p0:p1], 0, self.L
        for m in range(L + 1):
            orders, n = slice(max(2 * m - 1, 0), 2 * m + 1), L + 1 - m
            out = T[m:, orders]
            part = tmp[:n, :out.shape[1]]
            for lp in range(m, L + 1):
                entries = coax[e:e + n, None, None]
                if lp == m:
                    np.multiply(entries, S[lp, orders], out=out)
                else:
                    np.multiply(entries, S[lp, orders], out=part)
                    out += part
                e += n
        for l, delta in enumerate(self._delta):
            s, t = S[l, :2 * l + 1], T[l, :2 * l + 1]
            _gemm(delta, t, s)
            _times_conj(s, tphase)
            _gemm(delta.T, s, t)
            _times_conj(t, zphase)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # numpy buffers a ufunc whose contiguous core is shorter than its buffer
        # size, up to that many elements per operand and call; the cores here are
        # one block's pairs, so a small buffer keeps the product allocation-free,
        # and leaving the errstate context restores the caller's size
        with np.errstate():
            np.setbufsize(UFUNC_BUFSIZE)
            return self._product(x)

    def _product(self, x: np.ndarray) -> np.ndarray:
        M, nc = self._trace.shape
        x = x.reshape(M, nc)
        src, acc = self._spheres
        src[self._rows] = (self._outgoing * x).T
        acc[...] = 0.0
        for p0, p1, runs in self._blocks:
            S, T, tmp = _buffers(self.L, 2, p1 - p0, self._work)
            for pairs, first, second in runs:
                S[:, :, 0, pairs] = src[:, :, second]
                S[:, :, 1, pairs] = src[:, :, first]
            np.negative(S[1::2, :, 1], out=S[1::2, :, 1])  # P o_m x_m
            self._translate(S, T, tmp, p0, p1)
            np.negative(T[1::2, :, 1], out=T[1::2, :, 1])
            for pairs, first, second in runs:
                acc[:, :, first] += T[:, :, 0, pairs]
                acc[:, :, second] += T[:, :, 1, pairs]
        y = self._diagonal * x.reshape(-1)
        summed = acc[self._rows].T
        summed *= self._trace
        y.reshape(M, nc)[...] += summed
        return y

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        M, nc = self._trace.shape
        L = self.L
        t, o = self._trace, self._outgoing
        P = _per_degree((-1.0) ** np.arange(L + 1), L)
        A = np.zeros((M, nc, M, nc), dtype=complex)
        first, second = self._pairs
        for p0, p1 in row_blocks(len(first), width=4 * (L + 1) ** 2 * nc):
            S, T, tmp = _buffers(L, nc, p1 - p0)
            S[self._rows + (np.arange(nc),)] = 1.0
            self._translate(S, T, tmp, p0, p1)
            SR = T[self._rows].transpose(2, 0, 1)
            m, j = first[p0:p1], second[p0:p1]
            A[m, :, j, :] = t[m, :, None] * SR * o[j, None, :]
            A[j, :, m, :] = (P * t[j])[:, :, None] * SR * (P * o[m])[:, None, :]
        A = A.reshape(self.shape)
        A[np.diag_indices(len(A))] = self._diagonal
        return A if dtype is None else A.astype(dtype, copy=False)


@dataclass(frozen=True)
class BieSystem:
    """Assembled boundary-integral system A c = rhs for a sphere cloud.

    matrix is A, matrix-free (_BieOperator): shape, nbytes, diagonal(), the
    product with a vector, np.asarray(matrix), the dense A, and matrix.q =
    ||C D^-1||_F, D = diag(A), inf where D has a zero, certifying solve_bie.
    """

    matrix: _BieOperator
    rhs: np.ndarray
    cloud: ScattererCloud
    wave: IncidentWave
    L: int


@dataclass(frozen=True)
class BieSolution:
    """The layer densities' harmonic coefficients with their relative inf-norm
    residual; iterations is the GMRES matrix-vector count, None where the dense
    LU solved the system.

    coefficients is the solve vector, read-only, as an (M, (L+1)^2) array: row
    m holds sphere m's coefficients in spherical's flat (l, m) order, so that
    ||sigma_m||_{L^2(dD_m)} = r_m ||coefficients[m]||_2.
    """

    coefficients: np.ndarray
    residual_inf: float
    system: BieSystem
    iterations: int | None = None


def _per_degree(values_by_l: np.ndarray, L: int) -> np.ndarray:
    """Expand per-degree values (trailing axis L+1) to the flat (l, m) order."""
    return values_by_l[..., _degrees_orders(L)[0]]


def _incident_coeffs(wave: IncidentWave, centers: np.ndarray, radial: np.ndarray,
                     L: int) -> np.ndarray:
    """Harmonic coefficients (M, nc) of -(d/dnu + lambda) e^{i kappa x.theta}
    on each sphere.

    Local expansion about each center: e^{i kappa y.theta} =
    4 pi sum i^l j_l(kappa|y|) Y_lm(yhat) conj(Y_lm(theta)); radial[m, l] is
    (d/dnu + lambda_m) j_l(kappa|y|) on sphere m. The harmonics at theta are
    the same for every sphere and are evaluated once; the phases are
    plane_wave's at the centers, the Foldy-Lax right-hand side bit for bit.
    """
    phase = plane_wave(wave.kappa, wave.theta, centers)
    Yt = harmonic_matrix(L, wave.theta.reshape(1, 3))[0]
    scale = _per_degree(4.0 * np.pi * (1j ** np.arange(L + 1)) * radial, L)
    return -phase[:, None] * scale * np.conj(Yt)


def assemble_bie(cloud: ScattererCloud, wave: IncidentWave,
                 L: int = DEFAULT_L, quad_order: int = DEFAULT_QUAD_ORDER) -> BieSystem:
    """Assemble the coupled boundary-integral system for a sphere cloud.

    Cross blocks are exact (addition theorem), so quad_order does not change
    the system; it is still validated.

    Raises:
        ValueError: cloud carries non-spherical obstacles, or quad_order < 1.
        InsufficientMemory: before any per-sphere work, the operator and its
            workspace (_admitted_bytes) exceed the memory available.
        ResonanceGuard: any sphere too large for the wavenumber.
    """
    _require_spheres(cloud, "boundary-integral oracle")
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
    return BieSystem(matrix=A, rhs=rhs, cloud=cloud, wave=wave, L=L)


def solve_bie(system: BieSystem) -> BieSolution:
    """Certified GMRES, else checked dense LU; residual bound BIE_RESIDUAL_TOL.

    foldy._certified_solve decides with the operator's q = ||C D^-1||_F: where
    1 - q > PIVOT_REL_TOL, sigma_min(A D^-1) >= 1 - q and restarted GMRES,
    right-preconditioned by D^-1, runs to a relative residual of GMRES_TOL;
    iterations records its products with A. Otherwise, a NaN q included, or
    when GMRES reaches GMRES_MAXITER, the dense LU solves, its pivot test on
    its row-equilibrated dense copy, and iterations is None. Either way the
    inf-norm residual is checked.

    Raises:
        SingularSystem: an LU pivot underflows or the residual exceeds
            BIE_RESIDUAL_TOL.
        InsufficientMemory: the LU path has no room for its factors.
    """
    x, residual, iterations = _certified_solve(system.matrix, system.rhs, BIE_RESIDUAL_TOL)
    coefficients = x.reshape(system.cloud.M, n_coeffs(system.L))
    coefficients.setflags(write=False)
    return BieSolution(coefficients=coefficients, residual_inf=residual, system=system,
                       iterations=iterations)


def bie_farfield(solution: BieSolution, directions: np.ndarray) -> FarFieldGrid:
    """Far field of the solved layer densities on a direction grid, evaluated
    over blocks of directions: the harmonics and the farfield_kernel phases
    of one block at a time, summed over the spheres in cloud order."""
    system = solution.system
    cloud, wave, L = system.cloud, system.wave, system.L
    directions = np.asarray(directions, dtype=float).reshape(-1, 3)
    values = np.zeros(len(directions), dtype=complex)
    ls = np.arange(L + 1)
    weighted = [_per_degree(4.0 * np.pi * r**2 * (-1j) ** ls * jl, L) * c
                for r, jl, c in zip(cloud.radii.tolist(), spherical_jn(L, wave.kappa * cloud.radii),
                                    solution.coefficients)]
    for d0, d1 in row_blocks(len(directions), n_coeffs(L) + cloud.M):
        Yd, xhat = harmonic_matrix(L, directions[d0:d1]), directions[d0:d1, None, :]
        for phase, w in zip(farfield_kernel(wave.kappa, xhat, cloud.centers).T, weighted):
            values[d0:d1] += phase * (Yd @ w)
        del Yd  # before the next block's harmonics are computed
    return FarFieldGrid(directions=directions, values=values, wave=wave)

