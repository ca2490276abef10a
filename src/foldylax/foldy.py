"""Point-scatterer (Foldy-Lax) approximation of the scattered far field.

Each small obstacle is collapsed to a monopole of total charge Q_m at its
center. The charges solve the dense complex-symmetric system

    (-1/C_m) Q_m - sum_{j != m} Phi_kappa(z_m, z_j) Q_j = U^i(z_m),

and the far field is Uinf(xhat) = sum_m exp(-i*kappa*xhat.z_m) * Q_m under
the e^{i kappa r}/(4 pi r) normalization. Two scattering-coefficient variants
are supported:

    general:   C_m = -lambda_m * |dD_m|
    spherical: C_m = lambda_m * |dD_m| / (-1 + lambda_m * r_m)

The spherical variant folds in the exact static single-layer response of a
ball (eigenvalue r_m on constants) and carries one extra order of accuracy in
the obstacle size; it requires true spheres. _coefficients is the one
definition of C_m, in Python's complex arithmetic, over the cloud's
impedances, radii and areas. For M = 1 the solution reduces to
Q_1 = -C_1 * U^i(z_1).

B is complex symmetric, so its Hermitian part is Re B = diag(Re B_mm) + Re B_n.
Where every Re B_mm has one sign, Weyl's inequality (Horn & Johnson, Matrix
Analysis, 2nd ed., CUP 2013) makes Re B definite, with sigma_min(B) >=
(1 - q) min|Re B_mm|, when q = ||Re B_n||_F / min|Re B_mm| < 1; mixed signs
give q = inf. The packed B carries q, as oracle's operator carries its
Neumann-series q = ||C D^-1||_F, and _certified_solve reads A.q: it runs
restarted GMRES right-preconditioned by 1/A_mm (Eisenstat, Elman & Schultz,
SIAM J. Numer. Anal. 20, 1983) where 1 - q > PIVOT_REL_TOL, in O(M^2) time
and memory beyond B. Otherwise (a NaN q included), or at GMRES's iteration
cap, the checked dense LU solves, its pivot test reading a copy with each row
scaled to unit inf-norm.

Assembly, the report and the certified solve need numpy only. scipy.linalg
loads inside _checked_lu_solve, so only the LU fallback pays for it, and
the LU runs scipy's BLAS on FOLDYLAX_THREADS threads (_set_lu_threads).

B is stored once, packed by row strips (in the spirit of LAPACK's packed
symmetric storage, zspmv; Anderson et al., LAPACK Users' Guide, SIAM 1999):
the strip of rows i0:i1 holds columns i0:M, its k x k diagonal square whole,
and all strips share one flat buffer. The strips are the blocks of
geometry.row_blocks with at least STRIP_ROWS rows, whatever the worker count.
B @ x walks the strips once and reads each twice, Y[i0:i1] += S @ X[i0:] and
Y[i1:] += S[:, k:]^T @ X[i0:i1], with X the column x for complex strips and
the two columns Re x, Im x for real ones, and np.asarray(B) builds the dense
matrix strip by strip.

Off the diagonal Im B_ij = -sin(kappa d)/(4 pi d) = -(kappa/4pi) j_0(kappa d)
is smooth. With x_m = z_m - c, c the middle of the centers' bounding box,
the addition theorem (DLMF sections 10.60 and 14.30; Martin, Multiple
Scattering, CUP 2006, ch. 3)

    j_0(kappa |x_i - x_j|) = 4 pi sum_{l, mu} j_l(kappa r_i) j_l(kappa r_j)
                                 Y_l^mu(xhat_i) conj(Y_l^mu(xhat_j))

makes it -kappa (F F^H)_ij, F[m, (l, mu)] = j_l(kappa r_m) Y_l^mu(xhat_m),
a factor of rank (L+1)^2 that depends on kappa R, R = max r_m, and not on M.
Each degree's sum over mu is real (Martin, ch. 3): Y_l^-mu =
(-1)^mu conj(Y_l^mu) pairs the orders mu and -mu into
2 Re(Y_l^mu(a) conj(Y_l^mu(b))). So F F^H = H H^T with H real, its (L+1)^2
columns Re F for mu = 0, sqrt 2 Re F for mu > 0 and -sqrt 2 Im F for mu < 0
(a column's sign cancels in H H^T). The series stops at the least L whose
tail tau(L) = sum_{l>L} (2l+1) (kappa R)^(2l)/((2l+1)!!)^2 is below
FACTOR_TAIL = 2^-53, by |j_l(x)| <= x^l/(2l+1)!! (DLMF sections 10.14
and 10.47) and |P_l| <= 1. When 16 M (L+1)^2 bytes, those of a complex F
and twice H's 8 M (L+1)^2, are fewer than the 8 bytes per entry of the
strips' imaginary halves, the strips are real and hold Re B, and Im B is
applied off the diagonal as -kappa H (H^T x); otherwise the strips are
complex and hold B. The choice follows from M and kappa R alone: a cloud of
a few thousand in a domain of fixed kappa diam takes the factor, a few
dozen spheres keep the strips. _PackedSymmetric's constructor builds B in
one step: it sizes the strips, takes L from the centers' frame, admits the
strips, H and H's scratch against the memory available, allocates them,
computes H and fills the strips. On the factor path B takes about 4 M^2
bytes, not 8 M^2, the fill computes cos and no sin, and Re B, the diagonal
-1/C_m and the certificate below are the same bits as on the strip path.

What the factor path applies differs from Im B by at most, entrywise and to
first order in the unit roundoff u,

    |Im B^_ij - Im B_ij| <= (kappa/4pi) (tau(L) + 2 eta + ((L+1)^2 + 5) u),

where eta is the relative error of F's entries. Besides the truncation, an
entry of H carries eta and, for mu != 0, 2 u more from rounding sqrt 2 and
the product with it, so a product of two entries carries 2 eta + 4 u; each
of the (L+1)^2 terms of a row of H times a row of H rounds (Higham, Accuracy
and Stability of Numerical Algorithms, SIAM 2002, ch. 3:
|fl(a^T b) - a^T b| <= gamma_n |a|^T |b|), and so does the product with
kappa, while |H_i|^T |H_j| <= |F_i| |F_j| <= 1/(4 pi), because
sum_mu |Y_l^mu|^2 = (2l+1)/(4 pi) and sum_l (2l+1) j_l^2 = 1. The tests
take eta = 2 (L+1) u.

The constructor fills each strip in place, by row sub-blocks of about
FILL_BLOCK entries: the distances and -1/(4 pi d) in the strip's real part,
sin in its imaginary part, and kappa d, cos and the gamma mask in one float
buffer of a sub-block per strip. ScattererCloud found every distance above
r_i + r_j > 0, by the fill's formula. It is bound by sqrt, cos and sin, so
geometry.row_block_pass deals its strips to FOLDYLAX_THREADS worker threads;
each writes its own strip, so B is the same bit for bit whatever the worker
count or the sub-block size. The last strip may have a row more than the
others (row_blocks merges a lone last row), so the mask of pairs j > i is
sized by the largest. The pass also yields, while each sub-block is in
cache, gamma = min cos(kappa d) before scaling and ||Re B_n||_F from per-row
sums of (Re B_ij)^2, the same mask zeroing j <= i: with q, B's certificate.
A row's sum runs over its strip's width, so its bits follow the strip
layout, which row_blocks(M, min_rows=STRIP_ROWS) fixes from M alone: neither
depends on the worker count. A certified solve then reads B only through
GMRES products, its diagonal and q, and reads the GMRES basis through views
so that no step copies it; only the LU fallback makes a dense copy. farfield
evaluates the kernel over blocks of a few directions, about 256 KiB each.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._threads import thread_count
from .errors import (MissingRegime, RegimeViolation, SingularSystem, SphericalPole,
                     ZeroImpedance)
from .geometry import (UNIT_TOL, IncidentWave, ScattererCloud, _require_memory, _require_spheres,
                       _require_unit, pair_distances, row_block_pass, row_blocks)
from .kernels import farfield_kernel, fibonacci_sphere, plane_wave
from .spherical import _degrees_orders, _legendre_columns, n_coeffs, spherical_jn

RESIDUAL_TOL = 1e-10
PIVOT_REL_TOL = 1e-14
POLE_TOL = 1e-12
GMRES_TOL = 1e-14  # relative 2-norm residual at which GMRES stops
GMRES_RESTART = 50
GMRES_MAXITER = 200  # matrix-vector products before falling back to LU
# B's strips have at least this many rows: thinner strips make B @ x slower
# than the dense product at M = 10^4
STRIP_ROWS = 64
# Im B's factor stops at the least degree whose addition-theorem tail, in
# units of kappa/(4 pi), is below this
FACTOR_TAIL = 2.0**-53
# bytes per entry of one block of H while it is computed, the block counted
# (L+1)^2 + 16 columns wide (tracemalloc: at most 0.62 of that for L = 0..12
# and M = 400 to 10^4)
FACTOR_SCRATCH = 96
# assembly fills each strip by row sub-blocks of about this many entries,
# in one float buffer of a sub-block per strip
FILL_BLOCK = 1 << 15


class Variant(str, enum.Enum):
    GENERAL = "general"
    SPHERICAL = "spherical"


def _coefficients(lam: np.ndarray, variant: Variant, radii: np.ndarray,
                  areas: np.ndarray) -> np.ndarray:
    """C_m of each obstacle in Python's complex arithmetic, the spherical
    variant from the radius and the general one from the area.

    Raises, for the first obstacle that fails:
        ZeroImpedance: C_m is zero or not finite, or -1/C_m overflows.
        SphericalPole: |-1 + lambda_m * r_m| < POLE_TOL in the spherical variant.
    """
    values = []
    for lam_m, r, area in zip(lam.tolist(), radii.tolist(), areas.tolist()):
        if variant is Variant.SPHERICAL:
            denom = -1.0 + lam_m * r
            if math.hypot(denom.real, denom.imag) < POLE_TOL:
                raise SphericalPole(f"-1 + lambda*r = {denom:g} is numerically zero")
            value = lam_m * (4.0 * math.pi * r**2) / denom
        else:
            value = -lam_m * area
        recip = -1.0 / value if value != 0 else math.inf  # B's diagonal entry
        if not (math.isfinite(value.real) and math.isfinite(value.imag)
                and math.isfinite(recip.real) and math.isfinite(recip.imag)):
            raise ZeroImpedance(f"degenerate scattering coefficient {value}")
        values.append(value)
    return np.array(values, dtype=complex)


def _tail_degree(x: float, max_degree: int) -> int | None:
    """The least L <= max_degree whose tail sum_{l>L} (2l+1) x^(2l)/((2l+1)!!)^2
    is below FACTOR_TAIL, else None."""
    if x == 0.0:
        return 0
    if x >= max_degree + 1:
        return None  # a term with l <= x is at least 1/3
    l = np.arange(1, max_degree + 3)
    # the log of each term, clipped at 0: a term of 1 decides as well as a larger one
    terms = np.exp(np.minimum(
        np.log(2 * l + 1) + 2 * np.cumsum(np.log(x / (2 * l + 1))), 0.0))
    # past l = x each term is below a quarter of the one before, so the terms
    # after the last one computed add up to less than a third of it
    tails = np.cumsum(terms[::-1])[::-1] + terms[-1] / 3.0  # tails[L]: the sum over l > L
    fits = np.flatnonzero(tails[:max_degree + 1] < FACTOR_TAIL)
    return int(fits[0]) if fits.size else None


def _factor_frame(centers: np.ndarray):
    """The centers relative to the middle of their bounding box, and their radii."""
    rel = centers - (centers.min(axis=0) + centers.max(axis=0)) / 2.0
    return rel, np.sqrt(np.einsum("ij,ij->i", rel, rel))


def _factor_degree(r: np.ndarray, kappa: float, entries: int) -> int | None:
    """The degree L of Im B's factor, None where the strips keep Im B.

    r holds the radii |z_m - c| of _factor_frame and entries is the strips'
    entry count. (L+1)^2 complex columns, twice H's bytes, must take fewer
    than the imaginary halves of the strips, 16 M (L+1)^2 < 8 entries, and L
    is the least degree whose tail is below FACTOR_TAIL at x = kappa R,
    R = max r_m.
    """
    max_degree = math.isqrt((entries - 1) // (2 * len(r))) - 1
    if max_degree < 0:
        return None
    return _tail_degree(kappa * float(r.max()), max_degree)


def _factor_rows(n: int) -> int:
    """Rows per block while H of n rows is computed: an eighth of n, so that
    the scratch, FACTOR_SCRATCH bytes per entry of a block, stays near H's own
    size, and at least STRIP_ROWS, so that small blocks do not cost numpy
    calls by the dozen."""
    return max(STRIP_ROWS, math.ceil(n / 8))


def _fill_factor(H: np.ndarray, rel: np.ndarray, r: np.ndarray, kappa: float, L: int):
    """H[m, (l, mu)] = w_mu Re F[m, (l, mu)] for mu >= 0 and -w_mu Im F[m, (l, mu)]
    for mu < 0, F[m, (l, mu)] = j_l(kappa r_m) Y_l^mu(xhat_m), x_m = z_m - c,
    with w_mu = 1 for mu = 0 and sqrt 2 otherwise, so that H H^T = Re(F F^H)
    (see the module docstring); rel and r are _factor_frame's x_m and r_m. It
    is computed in blocks of _factor_rows rows, with cos(mu phi) or
    sin(|mu| phi) in place of e^{i mu phi}.

    The columns run from the highest degree down: the inner products of H's
    rows then add the small terms first and the l = 0 term, nearly all of
    j_0, last, which keeps their rounding near one ulp of 1/(4 pi).
    """
    rho = np.hypot(rel[:, 0], rel[:, 1])
    ls, ms = _degrees_orders(L)
    # each column's place among the L + 1 cosines of m phi, m >= 0, and the L
    # sines of m phi, m >= 1, that follow them
    harmonic = np.where(ms >= 0, ms, L - ms)
    weight = np.where(ms == 0, 1.0, math.sqrt(2.0))
    rows = _factor_rows(len(H))
    for i0 in range(0, len(H), rows):
        i1 = min(i0 + rows, len(H))
        # cos and sin of the polar angle from the components: a center at c
        # takes the pole, where only j_0 is nonzero
        t = np.divide(rel[i0:i1, 2], r[i0:i1], out=np.ones(i1 - i0), where=r[i0:i1] > 0)
        u = np.divide(rho[i0:i1], r[i0:i1], out=np.zeros(i1 - i0), where=r[i0:i1] > 0)
        block = _legendre_columns(L, t, u)
        block *= spherical_jn(L, kappa * r[i0:i1])[:, ls]
        m_phi = np.arctan2(rel[i0:i1, 1], rel[i0:i1, 0])[:, None] * np.arange(L + 1)
        block *= np.concatenate([np.cos(m_phi), np.sin(m_phi[:, 1:])], axis=1)[:, harmonic]
        block *= weight
        H[i0:i1] = block[:, ::-1]


class _PackedSymmetric:
    """B, n x n complex symmetric, stored once as the row strips of
    row_blocks(n, min_rows=STRIP_ROWS) from the diagonal on and filled by the
    constructor from a validated cloud's centers (see the module docstring).

    strips maps each first row i0 to its read-only strip, rows i0:i1 by
    columns i0:n; diagonal() is the diagonal given, -1/C_m. Where
    _factor_degree of the centers' frame and kappa is None, the strips are
    complex and hold B and factor is None. With a degree L the strips are
    real and hold Re B, and factor is H, n x (L+1)^2 real harmonics, with
    Im B = -kappa H H^T off the diagonal. Before it allocates anything the
    constructor raises InsufficientMemory if the strips, H and one block of
    H's scratch do not fit in the memory available.

    The fill yields the certificate: frobenius_offdiag_real = ||Re B_n||_F,
    gamma = min cos(kappa d) over the pairs (+inf for n = 1) and Weyl's
    ratio q = ||Re B_n||_F / min|Re B_mm|, inf for mixed signs.
    """

    def __init__(self, diagonal: np.ndarray, centers: np.ndarray, kappa: float):
        n = len(diagonal)
        blocks = row_blocks(n, min_rows=STRIP_ROWS)
        sizes = [(i1 - i0) * (n - i0) for i0, i1 in blocks]
        rel, r = _factor_frame(centers)
        degree = _factor_degree(r, kappa, sum(sizes))
        dtype = complex if degree is None else float
        K = 0 if degree is None else n_coeffs(degree)
        scratch = 0 if K == 0 else FACTOR_SCRATCH * min(n, _factor_rows(n)) * (K + 16)
        _require_memory(np.dtype(dtype).itemsize * sum(sizes) + 8 * n * K + scratch,
                        f"M = {n}", "the matrix")
        self._buf = np.empty(sum(sizes), dtype=dtype)
        self.shape, self.strips, self.kappa = (n, n), {}, kappa
        for (i0, i1), start, size in zip(blocks, np.cumsum([0] + sizes), sizes):
            self.strips[i0] = self._buf[start:start + size].reshape(i1 - i0, n - i0)
        self._diagonal = np.array(diagonal, dtype=complex)
        self._diagonal.setflags(write=False)
        self.factor = None
        if degree is not None:
            H = self.factor = np.empty((n, K))
            _fill_factor(H, rel, r, kappa, degree)
            H.setflags(write=False)
            # i (Im B_mm + kappa (H H^T)_mm) restores Im B_mm on the diagonal,
            # where -kappa H H^T puts -kappa (H H^T)_mm
            self._im_diagonal = 1j * (self._diagonal.imag + kappa * np.einsum("ij,ij->i", H, H))
        self.frobenius_offdiag_real, self.gamma = self._fill(centers, blocks)
        d = self._diagonal.real
        same_sign = np.all(d > 0) or np.all(d < 0)
        self.q = self.frobenius_offdiag_real / float(np.min(np.abs(d))) if same_sign else math.inf

    def _fill(self, centers: np.ndarray, blocks):
        """Fill the strips in place and return (||Re B_n||_F, gamma)."""
        n, kappa = self.shape[0], self.kappa
        strip_diagonal = self._diagonal if self.factor is None else self._diagonal.real
        xyz = np.ascontiguousarray(centers.T)
        lower = np.tri(max(i1 - i0 for i0, i1 in blocks), dtype=bool)
        row_frob2 = np.zeros(n)  # row i: the sum over j > i of (Re B_ij)^2

        def fill(i0, i1):
            k, w = i1 - i0, n - i0
            S = self.strips[i0]
            step = max(1, FILL_BLOCK // w)
            buf, gamma = np.empty(min(step, k) * w), math.inf
            for r0 in range(0, k, step):  # rows r0:r1 of the strip, rows i0+r0:i0+r1 of B
                r1 = min(r0 + step, k)
                part, tmp = S[r0:r1], buf[:(r1 - r0) * w].reshape(r1 - r0, w)
                dist = pair_distances(xyz, i0 + r0, i0 + r1, i0, part.real, tmp)
                # overwritten below; keeps cos, sin and division finite
                np.fill_diagonal(dist[:, r0:], 1.0)
                kd = np.multiply(kappa, dist, out=tmp)
                # -e^{i kappa d}/(4 pi d), as numpy's complex-by-real division computes
                # it: times the reciprocal of 4 pi d
                scale = np.divide(-1.0, np.multiply(4.0 * np.pi, dist, out=dist), out=dist)
                if self.factor is None:
                    np.multiply(np.sin(kd, out=part.imag), scale, out=part.imag)
                cos = np.cos(kd, out=kd)  # cos and sin are the parts of e^{i kappa d}, bit for bit
                np.multiply(cos, scale, out=part.real)
                # the leading square holds j <= i too: one mask leaves the pairs j > i
                no_pair = lower[r0:r1, :r1]
                # gamma: min cos(kappa d) over j > i
                np.copyto(cos[:, :r1], np.inf, where=no_pair)
                gamma = min(gamma, float(cos.min()))
                np.fill_diagonal(part[:, r0:], strip_diagonal[i0 + r0:i0 + r1])
                # each row's sum of (Re B_ij)^2 over j > i, the rest zeroed
                with np.errstate(over="ignore"):  # B_mm past 1e154 squares to inf, zeroed
                    square = np.multiply(part.real, part.real, out=cos)
                np.copyto(square[:, :r1], 0.0, where=no_pair)
                square.sum(axis=1, out=row_frob2[i0 + r0:i0 + r1])
            S.setflags(write=False)
            return gamma

        # each strip writes its own part of B and of row_frob2, a row sub-block at a time
        gammas = row_block_pass(fill, blocks)
        return math.sqrt(2.0 * float(row_frob2.sum())), min(gammas)

    @property
    def nbytes(self) -> int:
        return self._buf.nbytes + (0 if self.factor is None else self.factor.nbytes)

    def diagonal(self) -> np.ndarray:
        return self._diagonal

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # complex strips take x as one complex column, real strips its real
        # and imaginary parts as two real columns
        H = self.factor
        x = np.ascontiguousarray(x, dtype=complex)
        X = x.reshape(-1, 1) if H is None else x.view(float).reshape(-1, 2)
        Y = np.zeros(X.shape, dtype=X.dtype)
        for i0, S in self.strips.items():
            i1 = i0 + len(S)
            Y[i0:i1] += S @ X[i0:]
            Y[i1:] += S[:, len(S):].T @ X[i0:i1]
        y = Y.view(complex).reshape(-1)
        if H is None:
            return y
        z = (H @ (H.T @ X)).view(complex).reshape(-1)  # (H H^T) x
        y += np.multiply(-1j * self.kappa, z, out=z)
        y += np.multiply(self._im_diagonal, x, out=z)
        return y

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        B = np.empty(self.shape, dtype=complex)
        H = self.factor
        for i0, S in self.strips.items():
            k = len(S)
            i1 = i0 + k
            B[i0:i1, i0:] = S
            if H is not None:
                im = np.matmul(H[i0:i1], H[i0:].T)
                im *= -self.kappa
                im[:, :k] = np.triu(im[:, :k]) + np.triu(im[:, :k], 1).T  # symmetric square
                B.imag[i0:i1, i0:] = im
            B[i1:, i0:i1] = B[i0:i1, i1:].T
        np.fill_diagonal(B, self._diagonal)
        return B if dtype is None else B.astype(dtype, copy=False)


@dataclass(frozen=True)
class FoldyLaxSystem:
    """Assembled system B Q = U^I, B complex symmetric and packed.

    matrix is B in packed form (see the module docstring): complex strips, or
    real strips of Re B and the real factor H of Im B. Either way it has shape,
    nbytes, diagonal() (exactly -1/C_m), the product with a vector and
    np.asarray(matrix), the dense B, and it carries its certificate: q for
    solve, frobenius_offdiag_real and gamma for the invertibility report.
    """

    matrix: _PackedSymmetric
    rhs: np.ndarray
    coefficients: np.ndarray
    cloud: ScattererCloud
    wave: IncidentWave


@dataclass(frozen=True)
class InvertibilityReport:
    """Quantities behind the a-priori invertibility lemma.

    frobenius_offdiag_real is ||Re B_n||_F for the off-diagonal matrix B_n
    with entries Phi_kappa(z_i, z_j), as the matrix carries it; bound_rhs is
    the counting estimate sqrt(2*M*a^s)/pi * a^(-s/t). condition_applicable
    compares min Re(+/-C_m)/max|C_m|^2, the sign taken from applicable_case,
    against the lemma threshold sqrt(2*M*a^s)/(pi*d^(s/t)) with the cloud's
    actual minimal surface distance d; for mixed signs the row-sign-flip
    reduction applies and the numerator is min|Re C_m|.
    remark_gamma_condition is the alternative distance-free check
    (5*pi/3) * min Re(+/-C_m)/max|C_m|^2 > gamma/d, evaluated when
    gamma = min cos(kappa*|z_i - z_j|) >= 0 (None otherwise).

    Neither the verdict nor bound_rhs bounds ||Re B_n||_F on every cloud:
    the jittered M = 10^4 cloud (a = 0.01, s = 2, t = 1, lambda0 = -0.5,
    jitter 0.3, seed 1) reads 3595.38 against lemma_threshold = 3518.58, and
    criterion 6 checks bound_rhs only on the s = 2, t = 1 lattices at
    a = 0.1 and 0.05: generate --a 0.03 --s 0.75 --t 1.25 --beta 0.9 --Mmax 2
    --lambda0=-1.5 (M = 27) at kappa = 3 reads 30.143 against bound_rhs =
    5.14867. The verdict is True on both. solve certifies by q =
    ||Re B_n||_F / min|Re B_mm|, never by the verdict; the M = 27 cloud's
    q = 3.001 sends it to the LU (sigma_min(B) = 7.04).
    """

    frobenius_offdiag_real: float
    bound_rhs: float
    condition_applicable: bool
    gamma: float
    applicable_case: str
    lemma_threshold: float
    remark_gamma_condition: bool | None


@dataclass(frozen=True)
class FoldyLaxSolution:
    """Charges with their relative inf-norm residual; iterations is the GMRES
    matrix-vector count, None where the dense LU solved the system."""

    charges: np.ndarray
    residual_inf: float
    system: FoldyLaxSystem
    diagnostics: InvertibilityReport | None
    iterations: int | None = None


@dataclass(frozen=True)
class FarFieldGrid:
    """Far-field samples on a direction grid, tagged with the incident wave."""

    directions: np.ndarray
    values: np.ndarray
    wave: IncidentWave

    def __post_init__(self):
        directions = np.array(self.directions, dtype=float).reshape(-1, 3)
        values = np.array(self.values, dtype=complex).reshape(-1)
        if len(directions) != len(values):
            raise ValueError("directions/values length mismatch")
        _require_unit(directions, UNIT_TOL)
        if not np.all(np.isfinite(values.view(float))):  # directions are unit, so finite
            raise ValueError("far-field data must be finite")
        directions.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "values", values)


def assemble(cloud: ScattererCloud, wave: IncidentWave,
             variant: Variant | str = Variant.GENERAL) -> FoldyLaxSystem:
    """Build the packed system for a cloud and an incident plane wave.

    coefficients are _coefficients' C_m, bit for bit, and B's diagonal is
    -1/C_m; B carries its certificate q, ||Re B_n||_F and gamma. Im B is
    stored in the complex strips, or as its real factor H, 8 M (L+1)^2 bytes,
    where a complex F would take fewer bytes than the strips' imaginary
    halves (the module docstring gives the rule and H's error bound).

    Raises:
        RegimeViolation: kappa * a_eff >= 1 (asymptotic regime left), or the
            general variant with regime beta == 1.
        ZeroImpedance / SphericalPole: as _coefficients raises them, for
            the first obstacle that fails.
        InsufficientMemory: the packed matrix exceeds the memory available:
            complex strips of about 8 M^2 bytes, or, where Im B takes the
            factor, real strips of about 4 M^2 bytes, H's 8 M (L+1)^2 and
            FACTOR_SCRATCH bytes per entry of one block of H, an eighth of
            its rows, at least STRIP_ROWS, by (L+1)^2 + 16 columns.
    """
    variant = Variant(variant)
    if wave.kappa * cloud.a_eff >= 1.0:
        raise RegimeViolation(
            f"kappa*a = {wave.kappa * cloud.a_eff:g} >= 1: outside the small-obstacle regime")
    if variant is Variant.GENERAL and cloud.regime is not None and cloud.regime.beta >= 1:
        raise RegimeViolation("general variant requires beta < 1 (spherical allows beta = 1)")
    if variant is Variant.SPHERICAL:
        _require_spheres(cloud, "spherical variant")
    coeffs = _coefficients(cloud.impedances, variant, cloud.radii, cloud.areas)
    B = _PackedSymmetric(-1.0 / coeffs, cloud.centers, wave.kappa)
    rhs = plane_wave(wave.kappa, wave.theta, cloud.centers)
    rhs.setflags(write=False)
    return FoldyLaxSystem(matrix=B, rhs=rhs, coefficients=coeffs, cloud=cloud, wave=wave)


def _relative_residual(r: np.ndarray, rhs: np.ndarray, residual_tol: float) -> float:
    """||r||_inf / ||rhs||_inf; raises SingularSystem above residual_tol or on NaN."""
    residual = float(np.linalg.norm(r, np.inf) / max(np.linalg.norm(rhs, np.inf), 1e-300))
    if not residual <= residual_tol:
        raise SingularSystem(f"solve residual {residual:g} > {residual_tol:g}")
    return residual


def _set_lu_threads():
    """Give scipy's bundled OpenBLAS thread_count() threads.

    The CLI loads every BLAS with one thread; the LU is the call that more
    threads speed up. scipy_openblas_set_num_threads is looked up through
    one of scipy's LAPACK modules, which links the library the LU calls; a
    scipy built on another BLAS has no such symbol, and its LU keeps that
    library's default.
    """
    import ctypes

    import scipy.linalg.cython_lapack as lapack
    blas = ctypes.CDLL(lapack.__file__)
    if hasattr(blas, "scipy_openblas_set_num_threads"):
        blas.scipy_openblas_set_num_threads(thread_count())


def _checked_lu_solve(A, rhs: np.ndarray, residual_tol: float):
    """LU solve returning (x, relative inf-norm residual).

    A is a dense array or B's packed form; lu_factor factors one dense copy
    of it in place, each row divided by its inf-norm, and the residual is
    A @ x - rhs. Raises InsufficientMemory if the dense copy and lu_factor's
    finiteness mask do not fit in the memory available, SingularSystem if a
    row is zero, a pivot underflows PIVOT_REL_TOL or the residual exceeds
    residual_tol.
    """
    import scipy.linalg as la  # here, not at the top: the certified solve needs numpy only

    _set_lu_threads()
    n = A.shape[0]
    _require_memory(17 * n * n, f"{n}x{n} system", "its LU factors")
    dense = np.array(A)
    row_norms = np.empty(n)
    for i0, i1 in row_blocks(n):
        rows = dense[i0:i1]
        norms = np.abs(rows).sum(axis=1, out=row_norms[i0:i1])
        bad = np.flatnonzero(~(norms > 0))
        if bad.size:
            raise SingularSystem(f"row {i0 + bad[0]} of the system is zero or NaN")
        rows /= norms[:, None]
    # dense is in C order, so dense.T is A^T in the Fortran order that LAPACK
    # factors in place; the solve with trans=1 then gives A x = rhs
    lu, piv = la.lu_factor(dense.T, overwrite_a=True)
    min_pivot = float(np.min(np.abs(np.diag(lu))))
    if not min_pivot > PIVOT_REL_TOL:
        raise SingularSystem(f"pivot {min_pivot:g} of the row-equilibrated system "
                             f"underflows {PIVOT_REL_TOL:g}")
    x = la.lu_solve((lu, piv), rhs / row_norms, trans=1)
    return x, _relative_residual(A @ x - rhs, rhs, residual_tol)


def _gmres(B, rhs: np.ndarray, precond: np.ndarray):
    """Restarted GMRES for B x = rhs, right-preconditioned by diag(precond).

    Arnoldi with classical Gram-Schmidt on the basis V as computed: the
    projections V^H w are formed as conj(conj(w) V^T), which reads V through
    a view, so no step copies it. The Hessenberg least squares is kept
    triangular by Givens rotations. Stops once the true residual rhs - B x
    falls to GMRES_TOL * ||rhs||_2 and returns (x, that residual,
    matrix-vector count); returns None after GMRES_MAXITER products.
    """
    m = GMRES_RESTART
    bnorm = float(np.linalg.norm(rhs))
    x, r = np.zeros(len(rhs), dtype=complex), np.array(rhs, dtype=complex)
    V = np.empty((m + 1, len(rhs)), dtype=complex)
    R = np.zeros((m, m), dtype=complex)
    cs, sn = np.zeros(m), np.zeros(m, dtype=complex)
    iterations = 0
    while True:
        beta = float(np.linalg.norm(r))
        if beta <= GMRES_TOL * bnorm:
            return x, r, iterations
        if iterations >= GMRES_MAXITER:
            return None
        V[0] = r / beta
        g = np.zeros(m + 1, dtype=complex)
        g[0] = beta
        for j in range(m):
            w = B @ (precond * V[j])
            iterations += 1
            h = np.conj(np.conj(w) @ V[:j + 1].T)
            w -= h @ V[:j + 1]
            hn = float(np.linalg.norm(w))
            for i in range(j):
                h[i], h[i + 1] = (cs[i] * h[i] + sn[i] * h[i + 1],
                                  -np.conj(sn[i]) * h[i] + cs[i] * h[i + 1])
            rho = math.hypot(abs(h[j]), hn)
            cs[j], sn[j] = ((abs(h[j]) / rho, h[j] / abs(h[j]) * hn / rho) if h[j] != 0
                            else (0.0, 1.0))
            R[:j, j], R[j, j] = h[:j], cs[j] * h[j] + sn[j] * hn
            g[j], g[j + 1] = cs[j] * g[j], -np.conj(sn[j]) * g[j]
            if abs(g[j + 1]) <= GMRES_TOL * bnorm or hn == 0 or iterations >= GMRES_MAXITER:
                break
            V[j + 1] = w / hn
        k = j + 1
        y = np.zeros(k, dtype=complex)
        for i in range(k - 1, -1, -1):  # back substitution on the triangular R
            y[i] = (g[i] - R[i, i + 1:k] @ y[i + 1:]) / R[i, i]
        x += precond * (y @ V[:k])
        r = rhs - B @ x


def _certified_solve(A, rhs: np.ndarray, residual_tol: float):
    """The solve policy of solve and oracle.solve_bie: (x, residual, iterations).

    A.q is the operator's own certificate ratio: 1 - A.q > PIVOT_REL_TOL
    certifies that A right-preconditioned by 1/A_mm is nonsingular and that
    GMRES converges (Weyl for Foldy-Lax, the Neumann series for the BIE).
    Then _gmres solves; otherwise, a NaN q included, or when GMRES reaches
    GMRES_MAXITER, the checked dense LU does and iterations is None. Either
    way the relative inf-norm residual must stay <= residual_tol.
    """
    found = _gmres(A, rhs, 1.0 / A.diagonal()) if 1.0 - A.q > PIVOT_REL_TOL else None
    if found is None:
        x, residual = _checked_lu_solve(A, rhs, residual_tol)
        return x, residual, None
    x, r, iterations = found
    return x, _relative_residual(r, rhs, residual_tol), iterations


def solve(system: FoldyLaxSystem) -> FoldyLaxSolution:
    """Certified GMRES, else checked dense LU; residual bound RESIDUAL_TOL.

    _certified_solve reads the matrix's q = ||Re B_n||_F / min|Re B_mm|
    (inf for mixed signs): where 1 - q > PIVOT_REL_TOL, sigma_min(B) >=
    (1 - q) min|Re B_mm| takes the place of the LU pivot test, and restarted
    GMRES preconditioned by -C_m runs to a relative residual of GMRES_TOL;
    iterations records its matrix-vector count. Otherwise, or when GMRES
    reaches GMRES_MAXITER, the dense LU solves with its pivot test and
    iterations is None. Either way the inf-norm residual is checked against
    RESIDUAL_TOL. A regime cloud's invertibility report rides on the solution.
    """
    diagnostics = invertibility_report(system) if system.cloud.regime is not None else None
    charges, residual, iterations = _certified_solve(system.matrix, system.rhs, RESIDUAL_TOL)
    charges.setflags(write=False)
    return FoldyLaxSolution(charges=charges, residual_inf=residual, system=system,
                            diagnostics=diagnostics, iterations=iterations)


def farfield(solution: FoldyLaxSolution, directions: np.ndarray | None = None) -> FarFieldGrid:
    """Evaluate Uinf(xhat) = sum_m e^{-i kappa xhat.z_m} Q_m on a direction grid.

    directions defaults to a 200-point Fibonacci sphere.
    """
    if directions is None:
        directions = fibonacci_sphere(200)
    system = solution.system
    directions = np.asarray(directions, dtype=float)
    centers = system.cloud.centers[None, :, :]
    values = np.empty(len(directions), dtype=complex)
    # a block's kernel and exp's temporaries take about 40 bytes per direction
    # and center: blocks of PAIR_BLOCK / (16 M) directions stay near 256 KiB
    # (3 directions at M = 2500), and wider blocks give the same bits
    for d0, d1 in row_blocks(len(directions), 16 * system.cloud.M):
        values[d0:d1] = (farfield_kernel(system.wave.kappa, directions[d0:d1, None, :], centers)
                         @ solution.charges)
    return FarFieldGrid(directions=directions, values=values, wave=system.wave)


def invertibility_report(system: FoldyLaxSystem) -> InvertibilityReport:
    """Evaluate the a-priori invertibility estimates for an assembled system,
    from the ||Re B_n||_F and gamma its matrix carries and the regime of its
    cloud; solve attaches the report of a regime cloud to its solution.

    Raises MissingRegime if the cloud carries no regime parameters.
    """
    cloud, regime = system.cloud, system.cloud.regime
    if regime is None:
        raise MissingRegime("invertibility report requires regime parameters")
    M, coeffs, gamma = cloud.M, system.coefficients, system.matrix.gamma
    a, s, t = regime.a, regime.s, regime.t
    exponent = (s / t) if t > 0 else 0.0
    m_hat = M * a**s  # realized M_max := M * a^s, as in the lemma statement
    bound_rhs = math.sqrt(2.0 * m_hat) / math.pi * a ** (-exponent)

    if M == 1:
        # no off-diagonal part: the system is the scalar -1/C_1, always invertible
        return InvertibilityReport(
            frobenius_offdiag_real=0.0, bound_rhs=bound_rhs,
            condition_applicable=True, gamma=1.0,
            applicable_case=_sign_case(cloud.impedances), lemma_threshold=0.0,
            remark_gamma_condition=True)

    d_eff = cloud.d_eff
    threshold = math.sqrt(2.0 * m_hat) / (math.pi * d_eff**exponent)
    with np.errstate(over="ignore"):  # a |C_m| past 1e154 squares to inf: the lemma fails
        max_c2 = float(np.max(np.abs(coeffs)) ** 2)
    case = _sign_case(cloud.impedances)
    # numerator min Re(+/-C_m) with the detected sign case's sign; Mixed flips
    # row signs, which gives min|Re C_m|
    sign = {"NegRealLambda": 1.0, "PosRealLambda": -1.0}.get(case)
    num = float(np.min(sign * coeffs.real if sign else np.abs(coeffs.real)))
    remark = None
    if gamma >= 0:
        remark = (5.0 * math.pi / 3.0) * num / max_c2 > gamma / d_eff
    return InvertibilityReport(
        frobenius_offdiag_real=system.matrix.frobenius_offdiag_real, bound_rhs=bound_rhs,
        condition_applicable=num / max_c2 > threshold, gamma=gamma,
        applicable_case=case, lemma_threshold=threshold,
        remark_gamma_condition=remark)


def _sign_case(impedances: np.ndarray) -> str:
    # the case split follows the sign of Re(lambda_{m,0}); a^(-beta) > 0 so
    # the raw impedances carry the same signs as the prefactors
    if np.all(impedances.real < 0):
        return "NegRealLambda"
    if np.all(impedances.real > 0):
        return "PosRealLambda"
    return "Mixed"

