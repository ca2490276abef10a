"""Dense references for the quantities the program computes in one pass.

foldy.assemble yields ||Re B_n||_F, ||B||_inf and gamma while it fills B, and
geometry finds d by a cell list. These functions compute the same quantities
the direct way, from a finished dense B and from all pairs of centers, for the
tests to check against and to give hand-built systems their certificate
inputs; pack stores a hand-built B the way assembly does.
"""

import dataclasses
import math

import numpy as np

from foldylax import foldy
from foldylax.geometry import block_view, row_block_pass


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
