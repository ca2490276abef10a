"""Dense references for the quantities the program computes in one pass.

foldy.assemble yields ||Re B_n||_F, ||B||_inf and gamma while it fills B,
oracle.assemble_bie yields q = ||C D^-1||_F from the coaxial blocks of A, and
geometry finds d by a cell list. These functions compute the same quantities
the direct way, from a finished dense matrix and from all pairs of centers,
for the tests to check against and to give hand-built systems their
certificate inputs; pack stores a hand-built B the way assembly does, and
bie_matrix writes the dense A block by block, each (S|R) summed from the full
Gaunt table of translation_table, with no rotation.
"""

import dataclasses
import math
from functools import lru_cache

import numpy as np

from foldylax import foldy, oracle
from foldylax.geometry import block_view, row_block_pass
from foldylax.spherical import harmonic_matrix, n_coeffs, spherical_jn


def scan(B: np.ndarray):
    """One row-block pass over B: (||Re B_n||_F, ||B||_inf, gamma).

    Off the diagonal B = -e^{i kappa d}/(4 pi d), so Re B_n = -Re B and
    gamma = min cos(kappa d) = min -Re B/|B| (+inf for a 1x1 B).
    """
    n = len(B)

    def block(i0, i1, absb, re, cos):
        absb, norm = foldy._abs_rows(B, i0, i1, absb)
        re = block_view(re, i1 - i0, n)
        np.copyto(re, B[i0:i1].real)
        cos = np.negative(re, out=block_view(cos, i1 - i0, n))
        with np.errstate(invalid="ignore"):  # a hand-built B may hold zeros
            np.divide(cos, absb, out=cos)
        np.fill_diagonal(cos[:, i0:], math.inf)
        np.fill_diagonal(re[:, i0:], 0.0)
        return float(np.vdot(re, re)), norm, float(cos.min())

    blocks = row_block_pass(block, n, scratch=(float, float, float))
    frob2 = 0.0
    for block_frob2, _, _ in blocks:  # in block order, as one running sum
        frob2 += block_frob2
    return (math.sqrt(frob2), max(norm for _, norm, _ in blocks),
            min(gamma for _, _, gamma in blocks))


def pack(B: np.ndarray):
    """A dense complex symmetric B in the packed form foldy.assemble builds."""
    assert np.array_equal(B, B.T), "only a symmetric matrix packs"
    packed = foldy._PackedSymmetric(len(B))
    for i0, S in packed.strips.items():
        S[...] = B[i0:i0 + len(S), i0:]
    return packed


def with_matrix(system: foldy.FoldyLaxSystem, matrix: np.ndarray) -> foldy.FoldyLaxSystem:
    """system with B replaced by the symmetric matrix, packed, and the
    certificate inputs read off it."""
    frob, norm_inf, gamma = scan(matrix)
    return dataclasses.replace(system, matrix=pack(matrix), frobenius_offdiag_real=frob,
                               norm_inf=norm_inf, gamma=gamma)


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
    """One row-block pass over A = D + C, D = diag(A): (q = ||C D^-1||_F, ||A||_inf).

    q is inf, and the norm None, when an entry of D vanishes.
    """
    d = np.abs(A.diagonal())
    if not np.all(d > 0):
        return math.inf, None

    def block(i0, i1, buf):
        absa, norm = foldy._abs_rows(A, i0, i1, buf)
        np.fill_diagonal(absa[:, i0:], 0.0)
        absa /= d
        return float(np.vdot(absa, absa)), norm

    frob2 = 0.0
    blocks = row_block_pass(block, len(A), scratch=(float,))
    for block_frob2, _ in blocks:  # in block order, as one running sum
        frob2 += block_frob2
    return math.sqrt(frob2), max(norm for _, norm in blocks)
