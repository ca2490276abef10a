"""Dense references for the quantities the program computes in one pass.

foldy.assemble yields ||Re B_n||_F, ||B||_inf and gamma while it fills B,
oracle.assemble_bie yields q = ||C D^-1||_F and ||A||_inf while it stores the
pair blocks of A, and geometry finds d by a cell list. These functions compute
the same quantities the direct way, from a finished dense matrix and from all
pairs of centers, for the tests to check against and to give hand-built
systems their certificate inputs; pack stores a hand-built B the way assembly
does, and bie_matrix writes the dense A block by block.
"""

import dataclasses
import math

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


def bie_matrix(cloud, wave, L: int) -> np.ndarray:
    """The dense boundary-integral matrix A, each block written in full.

    The (m, j) block is diag(t_m) (S|R)(z_m - z_j) diag(o_j) and the (j, m)
    block diag(P t_j) (S|R)(z_m - z_j) diag(P o_m), from the same translation
    table and the same expressions as the packed store, so the two agree bit
    for bit.
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
    if M == 1:
        return A
    harm, vals, starts = oracle._translation_table(L)
    first, second = np.triu_indices(M, 1)
    t = cloud.centers[first] - cloud.centers[second]
    dist = np.linalg.norm(t, axis=1)
    H = harmonic_matrix(2 * L, t / dist[:, None])
    H *= oracle._per_degree(oracle._hankel(2 * L, kappa * dist), 2 * L)
    for m, j, hY in zip(first, second, H):
        SR = np.add.reduceat(hY[harm] * vals, starts).reshape(nc, nc)
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
