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
the obstacle size; it requires true spheres. For M = 1 the solution reduces
to Q_1 = -C_1 * U^i(z_1).

B is complex symmetric, so its Hermitian part is Re B = diag(Re B_mm) + Re B_n.
When every Re B_mm has one sign and mu = min|Re B_mm| - ||Re B_n||_F exceeds
PIVOT_REL_TOL * ||B||_inf, Weyl's inequality makes Re B definite, so
sigma_min(B) >= mu and GMRES converges (Eisenstat, Elman & Schultz, SIAM J.
Numer. Anal. 20, 1983). solve() then runs restarted GMRES right-preconditioned
by -C_m = 1/B_mm in O(M^2) time and memory beyond B. Mixed signs, a small mu,
or GMRES reaching its iteration cap fall back to the checked dense LU.

That policy (a certificate margin, then diagonally preconditioned GMRES,
else the checked LU, then the residual check) is _certified_solve, which
oracle.solve_bie shares with its own Neumann-series margin.

Assembly, the report and the certified solve need numpy only. scipy.linalg
loads inside _checked_lu_solve, so only the LU fallback pays for it.

B is stored once, packed by row strips (in the spirit of LAPACK's packed
symmetric storage, zspmv; Anderson et al., LAPACK Users' Guide, SIAM 1999):
the strip of rows i0:i1 holds columns i0:M, its k x k diagonal square whole,
and all strips share one flat buffer of about 8*M^2 bytes. The strips are
the blocks of geometry.row_blocks with at least STRIP_ROWS rows, whatever the
worker count. B @ x reads each strip twice, y[i0:i1] += S @ x[i0:] and
y[i1:] += x[i0:i1] @ S[:, k:], and np.asarray(B) builds the dense matrix.

Assembly fills each strip in place through geometry.row_block_pass, into
scratch buffers allocated once per pass. It is bound by sqrt, cos and sin,
so its strips go to FOLDYLAX_THREADS worker threads; each writes its own
strip, so B is the same bit for bit whatever the worker count. The pass also
yields the certificate while each strip is in cache: ||Re B_n||_F from
per-row sums over j > i that do not depend on the layout, gamma =
min cos(kappa d) before scaling, and ||B||_inf from the row sums of
|B_ij| = 1/(4 pi d). A certified solve then reads B only through GMRES
products and its diagonal; only the LU fallback makes a dense copy. farfield
evaluates the kernel over blocks of directions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (CoincidentCenters, MissingRegime, RegimeViolation, SingularSystem,
                     SphericalPole, ZeroImpedance)
from .geometry import (IncidentWave, RegimeParams, ScattererCloud, _require_memory, block_view,
                       pair_distances, row_block_pass, row_blocks)
from .kernels import farfield_kernel, fibonacci_sphere, plane_wave

RESIDUAL_TOL = 1e-10
PIVOT_REL_TOL = 1e-14
POLE_TOL = 1e-12
GMRES_TOL = 1e-14  # relative 2-norm residual at which GMRES stops
GMRES_RESTART = 50
GMRES_MAXITER = 200  # matrix-vector products before falling back to LU
# B's strips have at least this many rows: thinner strips make B @ x slower
# than the dense product at M = 10^4
STRIP_ROWS = 64


class Variant(str, enum.Enum):
    GENERAL = "general"
    SPHERICAL = "spherical"


@dataclass(frozen=True)
class ScatteringCoefficient:
    value: complex
    variant: Variant


def coefficient(lambda_m: complex, variant: Variant | str = Variant.GENERAL,
                radius: float | None = None,
                area: float | None = None) -> ScatteringCoefficient:
    """Scattering coefficient C_m of one obstacle.

    The general variant needs a surface area (or a radius, from which the
    sphere area 4*pi*r^2 is taken); the spherical variant needs the radius.

    Raises:
        ZeroImpedance: lambda_m == 0.
        SphericalPole: |-1 + lambda_m * r| < 1e-12 in the spherical variant.
    """
    variant = Variant(variant)
    lam = complex(lambda_m)
    if lam == 0:
        raise ZeroImpedance("scattering coefficient undefined for lambda = 0")
    if variant is Variant.SPHERICAL and radius is None:
        raise ValueError("spherical variant requires a radius")
    if variant is Variant.GENERAL and area is None:
        if radius is None:
            raise ValueError("general variant requires an area or a radius")
        area = 4.0 * np.pi * radius**2
    value = _coefficients(np.array([lam]), variant,
                          np.array([math.nan if radius is None else float(radius)]),
                          np.array([math.nan if area is None else float(area)]))[0]
    return ScatteringCoefficient(value=complex(value), variant=variant)


def _product(a_re, a_im, b_re, b_im):
    """Python's complex product, one real operation at a time."""
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def _quotient(a_re, a_im, b_re, b_im):
    """Python's complex quotient (Smith's method), one real operation at a time.

    numpy's complex division multiplies by a reciprocal and rounds differently.
    """
    real_first = np.abs(b_re) >= np.abs(b_im)
    ratio = b_im / b_re
    denom = b_re + b_im * ratio
    re1, im1 = (a_re + a_im * ratio) / denom, (a_im - a_re * ratio) / denom
    ratio = b_re / b_im
    denom = b_re * ratio + b_im
    re2, im2 = (a_re * ratio + a_im) / denom, (a_im * ratio - a_re) / denom
    imag_first = ~real_first & (np.abs(b_im) >= np.abs(b_re))  # neither: a NaN
    return (np.where(real_first, re1, np.where(imag_first, re2, np.nan)),
            np.where(real_first, im1, np.where(imag_first, im2, np.nan)))


def _coefficients(lam: np.ndarray, variant: Variant, radii: np.ndarray,
                  areas: np.ndarray) -> np.ndarray:
    """C_m of nonzero impedances, bit for bit as Python's complex arithmetic
    gives them one at a time: the spherical variant from the radii, the
    general one from the areas. The first obstacle that fails raises
    SphericalPole or ZeroImpedance, as coefficient() does."""
    pole = np.zeros(len(lam), dtype=bool)
    with np.errstate(all="ignore"):  # like Python's, an overflow is caught below
        if variant is Variant.SPHERICAL:
            # -1 + lambda * r, a float operand taken as the complex (x, 0.0)
            den_re, den_im = _product(lam.real, lam.imag, radii, 0.0)
            den_re, den_im = -1.0 + den_re, 0.0 + den_im
            pole = np.hypot(den_re, den_im) < POLE_TOL
            # Python's r**2 is libm's pow, not always numpy's r*r
            sphere_area = 4.0 * np.pi * np.array([r**2 for r in radii.tolist()])
            parts = _quotient(*_product(lam.real, lam.imag, sphere_area, 0.0), den_re, den_im)
        else:
            parts = _product(-lam.real, -lam.imag, areas, 0.0)
    value = np.empty(len(lam), dtype=complex)
    value.real, value.imag = parts
    failed = np.flatnonzero(pole | (value == 0) | ~np.isfinite(value))
    if failed.size:
        m = failed[0]
        if pole[m]:
            denom = complex(den_re[m], den_im[m])
            raise SphericalPole(f"-1 + lambda*r = {denom:g} is numerically zero")
        raise ZeroImpedance(f"degenerate scattering coefficient {complex(value[m])}")
    return value


class _PackedSymmetric:
    """An n x n complex symmetric matrix stored once, as the row strips of
    row_blocks(n, min_rows=STRIP_ROWS) from the diagonal on.

    strips maps each first row i0 to its strip, rows i0:i1 by columns i0:n.
    The constructor allocates them uninitialised; it raises InsufficientMemory
    first if they do not fit in the memory available.
    """

    def __init__(self, n: int):
        blocks = row_blocks(n, min_rows=STRIP_ROWS)
        sizes = [(i1 - i0) * (n - i0) for i0, i1 in blocks]
        _require_memory(16 * sum(sizes), f"M = {n}", "the matrix")
        self._buf = np.empty(sum(sizes), dtype=complex)
        self.shape, self.dtype, self.strips = (n, n), self._buf.dtype, {}
        for (i0, i1), start, size in zip(blocks, np.cumsum([0] + sizes), sizes):
            self.strips[i0] = self._buf[start:start + size].reshape(i1 - i0, n - i0)

    @property
    def nbytes(self) -> int:
        return self._buf.nbytes

    def diagonal(self) -> np.ndarray:
        return np.concatenate([S.diagonal() for S in self.strips.values()])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = np.zeros(self.shape[0], dtype=complex)
        for i0, S in self.strips.items():
            i1 = i0 + len(S)
            y[i0:i1] += S @ x[i0:]
            y[i1:] += x[i0:i1] @ S[:, len(S):]
        return y

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        B = np.empty(self.shape, dtype=complex)
        for i0, S in self.strips.items():
            i1 = i0 + len(S)
            B[i0:i1, i0:] = S
            B[i1:, i0:i1] = S[:, len(S):].T
        return B if dtype is None else B.astype(dtype, copy=False)


@dataclass(frozen=True)
class FoldyLaxSystem:
    """Assembled system B Q = U^I, B complex symmetric and packed.

    matrix is B in packed form (see the module docstring): it has shape,
    dtype, nbytes, diagonal() and the product with a vector, and
    np.asarray(matrix) is the dense B. The assembly pass also yields the
    inputs of the certificate and of the invertibility report:
    frobenius_offdiag_real = ||Re B_n||_F, norm_inf = ||B||_inf and
    gamma = min cos(kappa |z_i - z_j|) over the pairs (+inf for one
    scatterer).
    """

    matrix: _PackedSymmetric
    rhs: np.ndarray
    coefficients: np.ndarray
    cloud: ScattererCloud
    wave: IncidentWave
    variant: Variant
    frobenius_offdiag_real: float
    norm_inf: float
    gamma: float


@dataclass(frozen=True)
class InvertibilityReport:
    """Quantities behind the a-priori invertibility lemma.

    frobenius_offdiag_real is ||Re B_n||_F for the off-diagonal matrix B_n
    with entries Phi_kappa(z_i, z_j); bound_rhs is the counting estimate
    sqrt(2*M*a^s)/pi * a^(-s/t) it is guaranteed to stay below on lattice
    clouds. The condition booleans compare min Re(+/-C_m)/max|C_m|^2 against
    the lemma threshold sqrt(2*M*a^s)/(pi*d^(s/t)) with the cloud's actual
    minimal surface distance d; for mixed signs the row-sign-flip reduction
    applies and both booleans carry the flipped verdict min|Re C_m|/max|C_m|^2.
    remark_gamma_condition is the alternative distance-free check
    (5*pi/3) * min Re(+/-C_m)/max|C_m|^2 > gamma/d, evaluated when
    gamma = min cos(kappa*|z_i - z_j|) >= 0 (None otherwise).
    """

    frobenius_offdiag_real: float
    bound_rhs: float
    condition_negRe: bool
    condition_posRe: bool
    gamma: float
    applicable_case: str
    lemma_threshold: float
    remark_gamma_condition: bool | None

    @property
    def condition_applicable(self) -> bool:
        """The lemma condition for the detected sign case."""
        if self.applicable_case == "PosRealLambda":
            return self.condition_posRe
        return self.condition_negRe


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
        if np.any(np.abs(np.linalg.norm(directions, axis=1) - 1.0) > 1e-10):
            raise ValueError("far-field directions must be unit vectors")
        if not (np.all(np.isfinite(directions)) and np.all(np.isfinite(values.view(float)))):
            raise ValueError("far-field data must be finite")
        directions.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "values", values)


def assemble(cloud: ScattererCloud, wave: IncidentWave,
             variant: Variant | str = Variant.GENERAL) -> FoldyLaxSystem:
    """Build the packed system for a cloud and an incident plane wave.

    Raises:
        RegimeViolation: kappa * a_eff >= 1 (asymptotic regime left), or the
            general variant with regime beta == 1.
        CoincidentCenters: two centers numerically coincide.
        ZeroImpedance / SphericalPole: as coefficient() raises them, for the
            first obstacle that fails.
        InsufficientMemory: the packed matrix, about 8*M^2 bytes, exceeds
            the memory available.
    """
    variant = Variant(variant)
    if wave.kappa * cloud.a_eff >= 1.0:
        raise RegimeViolation(
            f"kappa*a = {wave.kappa * cloud.a_eff:g} >= 1: outside the small-obstacle regime")
    if variant is Variant.GENERAL and cloud.regime is not None and cloud.regime.beta >= 1:
        raise RegimeViolation("general variant requires beta < 1 (spherical allows beta = 1)")
    if variant is Variant.SPHERICAL and not cloud.is_spherical:
        raise ValueError("spherical variant requires true spheres (no explicit areas)")
    M = cloud.M
    coeffs = _coefficients(cloud.impedances, variant, cloud.radii, cloud.areas)
    B = _PackedSymmetric(M)
    diagonal = -1.0 / coeffs
    xyz = np.ascontiguousarray(cloud.centers.T)
    kappa = wave.kappa
    lower = np.tri(len(B.strips[0]), dtype=bool)  # no strip has more rows
    row_frob2 = np.zeros(M)  # row i: the sum over j > i of (Re B_ij)^2
    neg_abs_rows = np.zeros(M)  # row i: -sum over j != i of |B_ij|

    def fill(i0, i1, dist, tmp, neg_abs):
        k, w = i1 - i0, M - i0
        dist = pair_distances(xyz, i0, i1, block_view(dist, k, w), block_view(tmp, k, w))
        np.fill_diagonal(dist, np.inf)
        if dist.min() < 1e-14:
            raise CoincidentCenters("two scatterer centers coincide")
        np.fill_diagonal(dist, 1.0)  # overwritten below; keeps cos, sin and division finite
        S = B.strips[i0]
        cos = np.multiply(kappa, dist, out=block_view(tmp, k, w))
        np.sin(cos, out=S.imag)
        np.cos(cos, out=cos)  # cos and sin are the parts of e^{i kappa d}, bit for bit
        # -e^{i kappa d}/(4 pi d), as numpy's complex-by-real division computes
        # it: times the reciprocal of 4 pi d
        scale = np.divide(-1.0, np.multiply(4.0 * np.pi, dist, out=dist), out=dist)
        np.multiply(cos, scale, out=S.real)
        np.multiply(S.imag, scale, out=S.imag)
        # gamma: min cos(kappa d) over j > i; the leading square holds j <= i too
        np.copyto(cos[:, :k], np.inf, where=lower[:k, :k])
        gamma = float(cos.min())
        np.fill_diagonal(S, diagonal[i0:i1])
        # each row's sum of (Re B_ij)^2 over exactly j > i: no strip layout in it
        rows = min(k, w - 1)  # row M - 1 has no j > i
        if rows:
            square = np.multiply(S.real, S.real, out=block_view(tmp, k, w)).reshape(-1)
            starts = np.empty(2 * rows - 1, dtype=np.intp)
            starts[0::2] = np.arange(rows) * (w + 1) + 1
            starts[1::2] = np.arange(1, rows) * w
            row_frob2[i0:i0 + rows] = np.add.reduceat(square[:rows * w], starts)[0::2]
        # |B_ij| = 1/(4 pi d) into rows i and j, for ||B||_inf
        np.copyto(scale[:, :k], 0.0, where=lower[:k, :k])
        neg_abs[i0:i1] += np.add.reduce(scale, axis=1, out=tmp[:k])
        neg_abs[i0:] += np.add.reduce(scale, axis=0, out=tmp[:w])
        S.setflags(write=False)
        return gamma

    # each strip writes its own part of B and of row_frob2
    strips = row_block_pass(fill, M, scratch=(float, float), threaded=True,
                            total=neg_abs_rows, min_rows=STRIP_ROWS)
    rhs = np.asarray(plane_wave(wave.kappa, wave.theta, cloud.centers), dtype=complex).reshape(M)
    rhs.setflags(write=False)
    norm_inf = float(np.max(np.abs(diagonal) - neg_abs_rows))
    return FoldyLaxSystem(matrix=B, rhs=rhs, coefficients=coeffs, cloud=cloud, wave=wave,
                          variant=variant,
                          frobenius_offdiag_real=math.sqrt(2.0 * float(row_frob2.sum())),
                          norm_inf=norm_inf, gamma=min(strips))


def _relative_residual(r: np.ndarray, rhs: np.ndarray, residual_tol: float) -> float:
    """||r||_inf / ||rhs||_inf; raises SingularSystem above residual_tol."""
    residual = float(np.linalg.norm(r, np.inf) / max(np.linalg.norm(rhs, np.inf), 1e-300))
    if residual > residual_tol:
        raise SingularSystem(f"solve residual {residual:g} > {residual_tol:g}")
    return residual


def _checked_lu_solve(A, rhs: np.ndarray, residual_tol: float, scale: float | None = None):
    """LU solve returning (x, relative inf-norm residual).

    A is a dense array or B's packed form; lu_factor factors one dense copy of
    it in place, and the residual is A @ x - rhs. scale is ||A||_inf when the
    caller has it. Raises InsufficientMemory if the dense copy and lu_factor's
    finiteness mask do not fit in the memory available, SingularSystem if a
    pivot underflows PIVOT_REL_TOL * ||A||_inf or the residual exceeds
    residual_tol.
    """
    import scipy.linalg as la  # here, not at the top: the certified solve needs numpy only

    n = A.shape[0]
    _require_memory(17 * n * n, f"{n}x{n} system", "its LU factors")
    dense = np.array(A)
    if scale is None:
        scale = max(row_block_pass(lambda i0, i1, buf: _abs_rows(dense, i0, i1, buf)[1], n,
                                   scratch=(float,)))
    # dense is in C order, so dense.T is A^T in the Fortran order that LAPACK
    # factors in place; the solve with trans=1 then gives A x = rhs
    lu, piv = la.lu_factor(dense.T, overwrite_a=True)
    min_pivot = float(np.min(np.abs(np.diag(lu))))
    if min_pivot <= PIVOT_REL_TOL * scale:
        raise SingularSystem(f"pivot {min_pivot:g} underflows {PIVOT_REL_TOL:g}*||A||")
    x = la.lu_solve((lu, piv), rhs, trans=1)
    return x, _relative_residual(A @ x - rhs, rhs, residual_tol)


def _abs_rows(A: np.ndarray, i0: int, i1: int, buf: np.ndarray):
    """|A[i0:i1]| written into the scratch buf, and its largest row sum."""
    absa = np.abs(A[i0:i1], out=block_view(buf, i1 - i0, A.shape[1]))
    return absa, float(absa.sum(axis=1).max())


def _definite_margin(B, frob_offdiag_real: float, norm_inf: float) -> float | None:
    """mu = min|Re B_mm| - ||Re B_n||_F when every Re B_mm has one sign and
    mu > PIVOT_REL_TOL * ||B||_inf, else None.

    Re B = (B + B^H)/2 differs from diag(Re B_mm) by Re B_n, whose 2-norm is at
    most ||Re B_n||_F, so by Weyl's inequality Re B is definite with
    |x^H B x| >= mu |x|^2, and sigma_min(B) >= mu.
    """
    d = B.diagonal().real
    if not (np.all(d > 0) or np.all(d < 0)):
        return None
    mu = float(np.min(np.abs(d))) - frob_offdiag_real
    return mu if mu > PIVOT_REL_TOL * norm_inf else None


def _gmres(B, rhs: np.ndarray, precond: np.ndarray):
    """Restarted GMRES for B x = rhs, right-preconditioned by diag(precond).

    Arnoldi with classical Gram-Schmidt; the Hessenberg least squares is
    kept triangular by Givens rotations. Stops once the true
    residual rhs - B x falls to GMRES_TOL * ||rhs||_2 and returns (x, that
    residual, matrix-vector count); returns None after GMRES_MAXITER products.
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
            h = V[:j + 1].conj() @ w
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


def _certified_solve(A, rhs: np.ndarray, margin: float | None,
                     residual_tol: float, scale: float | None):
    """The solve policy of solve and oracle.solve_bie: (x, residual, iterations).

    margin is the caller's certificate that A right-preconditioned by
    1/A_mm is nonsingular and GMRES converges (Weyl for Foldy-Lax, Neumann
    series for the BIE), None when it does not hold. With a margin, _gmres
    solves; without one, or when GMRES reaches GMRES_MAXITER, the checked
    dense LU does (scale is ||A||_inf for its pivot test) and iterations is
    None. Either way the relative inf-norm residual must stay <= residual_tol.
    """
    found = _gmres(A, rhs, 1.0 / A.diagonal()) if margin is not None else None
    if found is None:
        x, residual = _checked_lu_solve(A, rhs, residual_tol, scale)
        return x, residual, None
    x, r, iterations = found
    return x, _relative_residual(r, rhs, residual_tol), iterations


def solve(system: FoldyLaxSystem) -> FoldyLaxSolution:
    """Certified GMRES, else checked dense LU; residual bound RESIDUAL_TOL.

    Assembly yields ||Re B_n||_F and ||B||_inf (and gamma, for the
    invertibility report of a regime cloud). If every Re B_mm has one sign and
    mu = min|Re B_mm| - ||Re B_n||_F > PIVOT_REL_TOL * ||B||_inf, then
    sigma_min(B) >= mu, which takes the place of the LU pivot test, and
    restarted GMRES preconditioned by -C_m runs to a relative residual of
    GMRES_TOL; iterations records its matrix-vector count. Otherwise, or when
    GMRES reaches GMRES_MAXITER, the dense LU solves with its pivot test and
    iterations is None. Either way the inf-norm residual is checked against
    RESIDUAL_TOL. A regime cloud's invertibility report rides on the solution
    and on SingularSystem.
    """
    B, regime, norm_inf = system.matrix, system.cloud.regime, system.norm_inf
    diagnostics = _report(system, regime) if regime is not None else None
    margin = _definite_margin(B, system.frobenius_offdiag_real, norm_inf)
    try:
        charges, residual, iterations = _certified_solve(
            B, system.rhs, margin, RESIDUAL_TOL, norm_inf)
    except SingularSystem as exc:
        exc.diagnostics = diagnostics
        raise
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

    def block(d0, d1):
        # numpy takes a one-row product as a dot product, which sums in another
        # order than the matrix-vector product of longer blocks: a lone last
        # row is evaluated with its predecessor
        lo = max(0, min(d0, d1 - 2))
        K = farfield_kernel(system.wave.kappa, directions[lo:d1, None, :], centers)
        values[d0:d1] = (K @ solution.charges)[d0 - lo:]

    # 3x wider blocks give the same bits, but at M = 2500, 200 directions and 2
    # cores ran 30 ms, not 20, with a 4.2 MB tracemalloc peak, not 1.4 MB
    row_block_pass(block, len(directions), width=3 * system.cloud.M)
    return FarFieldGrid(directions=directions, values=values, wave=system.wave)


def invertibility_report(system: FoldyLaxSystem,
                         regime: RegimeParams | None = None) -> InvertibilityReport:
    """Evaluate the a-priori invertibility estimates for an assembled system.

    Raises MissingRegime if neither the argument nor the cloud provides
    regime parameters.
    """
    regime = regime if regime is not None else system.cloud.regime
    if regime is None:
        raise MissingRegime("invertibility report requires regime parameters")
    return _report(system, regime)


def _report(system: FoldyLaxSystem, regime: RegimeParams) -> InvertibilityReport:
    """The report from the ||Re B_n||_F and gamma of the assembly pass."""
    cloud, frob, gamma = system.cloud, system.frobenius_offdiag_real, system.gamma
    M = cloud.M
    coeffs = system.coefficients
    a, s, t = regime.a, regime.s, regime.t
    exponent = (s / t) if t > 0 else 0.0
    m_hat = M * a**s  # realized M_max := M * a^s, as in the lemma statement
    bound_rhs = math.sqrt(2.0 * m_hat) / math.pi * a ** (-exponent)

    if M == 1:
        # no off-diagonal part: the system is the scalar -1/C_1, always invertible
        return InvertibilityReport(
            frobenius_offdiag_real=0.0, bound_rhs=bound_rhs,
            condition_negRe=True, condition_posRe=True, gamma=1.0,
            applicable_case=_sign_case(cloud.impedances), lemma_threshold=0.0,
            remark_gamma_condition=True)

    d_eff = cloud.d_eff
    threshold = math.sqrt(2.0 * m_hat) / (math.pi * d_eff**exponent)
    max_c2 = float(np.max(np.abs(coeffs)) ** 2)
    case = _sign_case(cloud.impedances)
    # numerator min Re(+/-C_m): only the detected sign case's condition can hold;
    # Mixed flips row signs and gives both booleans the min|Re C_m| verdict
    sign = {"NegRealLambda": 1.0, "PosRealLambda": -1.0}.get(case)
    num = float(np.min(sign * coeffs.real if sign else np.abs(coeffs.real)))
    ok = num / max_c2 > threshold
    cond_neg, cond_pos = ok and sign != -1.0, ok and sign != 1.0
    remark = None
    if gamma >= 0:
        remark = (5.0 * math.pi / 3.0) * num / max_c2 > gamma / d_eff
    return InvertibilityReport(
        frobenius_offdiag_real=frob, bound_rhs=bound_rhs,
        condition_negRe=cond_neg, condition_posRe=cond_pos, gamma=gamma,
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


def charge_bound_check(solution: FoldyLaxSolution, regime: RegimeParams | None = None,
                       c_tilde: float = 10.0) -> bool:
    """Check the a-priori charge bound max|Q_m| <= c_tilde * a^(2-beta)."""
    regime = regime if regime is not None else solution.system.cloud.regime
    if regime is None:
        raise MissingRegime("charge bound check requires regime parameters")
    return bool(np.max(np.abs(solution.charges))
                <= c_tilde * regime.a ** (2.0 - regime.beta))
