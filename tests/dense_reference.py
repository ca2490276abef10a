"""Dense references for the quantities the program computes in one pass.

foldy's packed B yields ||Re B_n||_F, gamma and q while it fills itself,
oracle's operator yields q = ||C D^-1||_F from the coaxial blocks of A, and
geometry finds d by a cell list. These functions compute the same quantities
the direct way, from a finished dense matrix and from all pairs of centers,
for the tests to check against; DenseMatrix stands in for the packed B with
a hand-built matrix and the certificate read off it; phi is the fundamental
solution itself; and bie_matrix writes the dense A block by block, each (S|R)
summed from the full Gaunt table of translation_table, with no rotation.
"""

import math
from functools import lru_cache

import numpy as np

from foldylax import foldy, oracle
from foldylax.geometry import row_blocks
from foldylax.spherical import harmonic_matrix, n_coeffs, spherical_jn


def scan(B: np.ndarray):
    """One pass over the row blocks of B: (||Re B_n||_F, gamma).

    Off the diagonal B = -e^{i kappa d}/(4 pi d), so Re B_n = -Re B and
    gamma = min cos(kappa d) = min -Re B/|B| (+inf for a 1x1 B).
    """
    frob2, gamma = 0.0, math.inf
    for i0, i1 in row_blocks(len(B)):
        re = B[i0:i1].real.copy()
        with np.errstate(invalid="ignore"):  # a hand-built B may hold zeros
            cos = -re / np.abs(B[i0:i1])
        np.fill_diagonal(cos[:, i0:], math.inf)
        np.fill_diagonal(re[:, i0:], 0.0)
        frob2 += float(np.vdot(re, re))
        gamma = min(gamma, float(cos.min()))
    return math.sqrt(frob2), gamma


def phi(kappa: float, x, y):
    """The fundamental solution Phi_kappa(x, y) = e^{i kappa |x-y|} / (4 pi |x-y|)
    of the kernels module's convention, for points broadcast on the last axis;
    foldy.assemble writes -Phi_kappa(z_m, z_j) off the diagonal of B."""
    r = np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), axis=-1)
    val = np.exp(1j * kappa * r) / (4.0 * np.pi * r)
    return val[()] if val.ndim == 0 else val


def dense_distances(centers):
    return np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=-1)


def dense_formula(cloud, wave):
    """B by the dense formula: -e^{i kappa d}/(4 pi d) off the diagonal, -1/C_m on it."""
    dist = dense_distances(cloud.centers)
    off = ~np.eye(cloud.M, dtype=bool)
    ref = np.zeros((cloud.M, cloud.M), dtype=complex)
    ref[off] = -np.exp(1j * wave.kappa * dist[off]) / (4.0 * np.pi * dist[off])
    ref[np.diag_indices(cloud.M)] = -1.0 / foldy.assemble(cloud, wave, "general").coefficients
    return ref


class DenseMatrix:
    """A dense B in place of the packed one: shape, diagonal(), the product
    with a vector and a dense copy, with the certificate read off B by scan,
    frobenius_offdiag_real and gamma, and Weyl's ratio q = ||Re B_n||_F /
    min|Re B_mm|, inf where the Re B_mm have mixed signs."""

    def __init__(self, B: np.ndarray):
        self._B = np.array(B, dtype=complex)
        self.shape = self._B.shape
        self.frobenius_offdiag_real, self.gamma = scan(self._B)
        d = self._B.diagonal().real
        same_sign = np.all(d > 0) or np.all(d < 0)
        self.q = self.frobenius_offdiag_real / float(np.min(np.abs(d))) if same_sign else math.inf

    def diagonal(self) -> np.ndarray:
        return self._B.diagonal()

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self._B @ x

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self._B, dtype=dtype)


def min_surface_distance(centers: np.ndarray, radii: np.ndarray, rows: int = 256) -> float:
    """min over all pairs i < j of (|z_i - z_j| - r_i) - r_j, a few rows at a time."""
    n, best = len(centers), math.inf
    for i0 in range(0, n, rows):
        i1 = min(n, i0 + rows)
        diff = centers[i0:i1, None, :] - centers[None, i0:, :]
        dist = np.sqrt((diff[..., 0] ** 2 + diff[..., 1] ** 2) + diff[..., 2] ** 2)
        gap = (dist - radii[i0:i1, None]) - radii[None, i0:]
        gap[np.tri(i1 - i0, n - i0, dtype=bool)] = math.inf  # pairs j <= i
        best = min(best, float(gap.min()))
    return best


@lru_cache(maxsize=4)
def translation_table(L: int):
    """Sparse map from [h_n(kappa d) Y_n^nu(dhat)] to the flat (S|R) block.

    Entry (lm)*nc + (l'm') of the block is the outgoing-to-regular
    translation coefficient (S|R)_{lm,l'm'}(d), so that

        h_l'(kappa|d+y|) Y_l'm'(d+y) = sum_lm (S|R)_{lm,l'm'}(d) j_l(kappa|y|) Y_lm(y)

    for |y| < |d|, with (S|R)_{lm,l'm'} = 4 pi sum_n i^(l+n-l') h_n Y_n^(m'-m)
    G(l'm'; lm; n) and the Gaunt coefficient G = int Y_l'm' conj(Y_lm)
    conj(Y_n^(m'-m)) dS, by Gauss-Legendre of order 2L+1 in cos(polar). Only
    entries the selection rules allow are kept, so the rest are exact zeros.

    Returns (harm, vals, starts), sorted by block entry and then by n: the
    block is np.add.reduceat(hY[harm] * vals, starts) for hY indexed
    n^2 + n + nu. The selection rules leave n = lo, lo + 2, ..., l + l' with
    lo = max(|l - l'|, |nu|) raised to the parity of l + l', so every block
    entry has at least one term.
    """
    nc, n_max = n_coeffs(L), 2 * L
    x, w = np.polynomial.legendre.leggauss(n_max + 1)
    polar = np.zeros((len(x), 3))
    polar[:, 0], polar[:, 2] = np.sqrt(1.0 - x**2), x
    P = harmonic_matrix(n_max, polar).real    # Y_n^nu(theta, 0), real
    ls = oracle._per_degree(np.arange(L + 1), L)
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
    return harm, vals, starts


def translation_block(d: np.ndarray, kappa: float, L: int) -> np.ndarray:
    """(S|R)(d), nc x nc, summed from translation_table with no rotation."""
    harm, vals, starts = translation_table(L)
    dist = float(np.linalg.norm(d))
    hY = harmonic_matrix(2 * L, (d / dist).reshape(1, 3))[0]
    hY *= oracle._per_degree(oracle._hankel(2 * L, kappa * dist), 2 * L)
    return np.add.reduceat(hY[harm] * vals, starts).reshape(n_coeffs(L), n_coeffs(L))


def bie_matrix(cloud, wave, L: int) -> np.ndarray:
    """The dense boundary-integral matrix A, each block written in full.

    The (m, j) block is diag(t_m) (S|R)(z_m - z_j) diag(o_j) and the (j, m)
    block diag(P t_j) (S|R)(z_m - z_j) diag(P o_m), with t, o and P = (-1)^l
    per degree as in the module docstring of oracle.
    """
    M, nc, kappa = cloud.M, n_coeffs(L), wave.kappa
    lams = cloud.impedances[:, None]
    spectra = [oracle.sphere_operator_spectra(kappa, float(r), L) for r in cloud.radii]
    self_blocks = (np.array([sp.adjoint_double for sp in spectra]) - 0.5
                   + lams * np.array([sp.single_layer for sp in spectra]))
    z = kappa * cloud.radii
    jl = spherical_jn(L, z)
    trace = oracle._per_degree(kappa * spherical_jn(L, z, derivative=True) + lams * jl, L)
    outgoing = oracle._per_degree(1j * kappa * cloud.radii[:, None] ** 2 * jl, L)
    parity = oracle._per_degree((-1.0) ** np.arange(L + 1), L)
    A = np.zeros((M * nc, M * nc), dtype=complex)
    A[np.diag_indices(M * nc)] = oracle._per_degree(self_blocks, L).reshape(-1)
    for m, j in zip(*np.triu_indices(M, 1)):
        SR = translation_block(cloud.centers[m] - cloud.centers[j], kappa, L)
        A[m * nc:(m + 1) * nc, j * nc:(j + 1) * nc] = (
            trace[m][:, None] * SR * outgoing[j][None, :])
        A[j * nc:(j + 1) * nc, m * nc:(m + 1) * nc] = (
            (parity * trace[j])[:, None] * SR * (parity * outgoing[m])[None, :])
    return A


def neumann_scan(A: np.ndarray):
    """One pass over the row blocks of A = D + C, D = diag(A):
    (q = ||C D^-1||_F, ||A||_inf).

    q is inf, and the norm None, when an entry of D vanishes.
    """
    d = np.abs(A.diagonal())
    if not np.all(d > 0):
        return math.inf, None
    frob2, norm = 0.0, 0.0
    for i0, i1 in row_blocks(len(A)):
        absa = np.abs(A[i0:i1])
        norm = max(norm, float(absa.sum(axis=1).max()))
        np.fill_diagonal(absa[:, i0:], 0.0)
        absa /= d
        frob2 += float(np.vdot(absa, absa))
    return math.sqrt(frob2), norm
