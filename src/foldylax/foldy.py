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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import (CoincidentCenters, InsufficientMemory, MissingRegime, RegimeViolation,
                     SingularSystem, SphericalPole, ZeroImpedance)
from .geometry import IncidentWave, RegimeParams, ScattererCloud, pairwise_row_blocks, row_blocks
from .kernels import farfield_kernel, fibonacci_sphere, plane_wave

RESIDUAL_TOL = 1e-10
PIVOT_REL_TOL = 1e-14
POLE_TOL = 1e-12


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
    if variant is Variant.SPHERICAL:
        if radius is None:
            raise ValueError("spherical variant requires a radius")
        denom = -1.0 + lam * radius
        if abs(denom) < POLE_TOL:
            raise SphericalPole(f"-1 + lambda*r = {denom:g} is numerically zero")
        value = lam * (4.0 * np.pi * radius**2) / denom
    else:
        if area is None:
            if radius is None:
                raise ValueError("general variant requires an area or a radius")
            area = 4.0 * np.pi * radius**2
        value = -lam * area
    if value == 0 or not np.isfinite(value):
        raise ZeroImpedance(f"degenerate scattering coefficient {value}")
    return ScatteringCoefficient(value=value, variant=variant)


@dataclass(frozen=True)
class FoldyLaxSystem:
    """Assembled dense system B Q = U^I (complex symmetric)."""

    matrix: np.ndarray
    rhs: np.ndarray
    coefficients: np.ndarray
    cloud: ScattererCloud
    wave: IncidentWave
    variant: Variant


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
    charges: np.ndarray
    residual_inf: float
    system: FoldyLaxSystem
    diagnostics: InvertibilityReport | None


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


def _available_bytes() -> int | None:
    """MemAvailable from /proc/meminfo in bytes; None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            return next(int(ln.split()[1]) * 1024 for ln in fh if ln.startswith("MemAvailable:"))
    except (OSError, ValueError, IndexError, StopIteration):
        return None


def assemble(cloud: ScattererCloud, wave: IncidentWave,
             variant: Variant | str = Variant.GENERAL) -> FoldyLaxSystem:
    """Build the dense system for a cloud and an incident plane wave.

    Raises:
        RegimeViolation: kappa * a_eff >= 1 (asymptotic regime left), or the
            general variant with regime beta == 1.
        CoincidentCenters: two centers numerically coincide.
        ZeroImpedance / SphericalPole: via coefficient().
        InsufficientMemory: the matrix and its LU copy, 2*16*M^2 bytes, exceed
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
    coeffs = np.empty(M, dtype=complex)
    for m in range(M):
        coeffs[m] = coefficient(cloud.impedances[m], variant,
                                radius=float(cloud.radii[m]),
                                area=float(cloud.areas[m])).value
    need, available = 2 * 16 * M * M, _available_bytes()
    if available is not None and need > available:
        raise InsufficientMemory(
            f"M = {M} needs {need / 2**20:.0f} MiB for the matrix and its LU "
            f"factors; {available / 2**20:.0f} MiB available")
    B = np.empty((M, M), dtype=complex)
    for i0, i1, dist in pairwise_row_blocks(cloud.centers):
        diag = np.diag_indices(i1 - i0)
        dist[diag] = np.inf
        if np.min(dist) < 1e-14:
            raise CoincidentCenters("two scatterer centers coincide")
        dist[diag] = 1.0  # overwritten below; keeps exp and division finite
        blk = -np.exp(1j * wave.kappa * dist) / (4.0 * np.pi * dist)
        B[i0:i1, i0:] = blk
        B[i0:, i0:i1] = blk.T  # B is symmetric: |z_i - z_j| is, bit for bit
    B[np.diag_indices(M)] = -1.0 / coeffs
    rhs = np.asarray(plane_wave(wave.kappa, wave.theta, cloud.centers), dtype=complex).reshape(M)
    B.setflags(write=False)
    rhs.setflags(write=False)
    return FoldyLaxSystem(matrix=B, rhs=rhs, coefficients=coeffs,
                          cloud=cloud, wave=wave, variant=variant)


def _checked_lu_solve(A: np.ndarray, rhs: np.ndarray, residual_tol: float):
    """LU solve returning (x, relative inf-norm residual); raises SingularSystem if a
    pivot underflows PIVOT_REL_TOL * ||A||_inf or the residual exceeds residual_tol."""
    lu, piv = la.lu_factor(A)
    scale = max(float(np.abs(A[i0:i1]).sum(axis=1).max()) for i0, i1 in row_blocks(len(A)))
    min_pivot = float(np.min(np.abs(np.diag(lu))))
    if min_pivot <= PIVOT_REL_TOL * scale:
        raise SingularSystem(f"pivot {min_pivot:g} underflows {PIVOT_REL_TOL:g}*||A||")
    x = la.lu_solve((lu, piv), rhs)
    residual = float(np.linalg.norm(A @ x - rhs, np.inf)
                     / max(np.linalg.norm(rhs, np.inf), 1e-300))
    if residual > residual_tol:
        raise SingularSystem(f"solve residual {residual:g} > {residual_tol:g}")
    return x, residual


def solve(system: FoldyLaxSystem) -> FoldyLaxSolution:
    """Checked dense LU solve with residual bound RESIDUAL_TOL.

    A regime cloud's invertibility report rides on the solution and on SingularSystem.
    """
    diagnostics = (invertibility_report(system) if system.cloud.regime is not None else None)
    try:
        charges, residual = _checked_lu_solve(system.matrix, system.rhs, RESIDUAL_TOL)
    except SingularSystem as exc:
        exc.diagnostics = diagnostics
        raise
    charges.setflags(write=False)
    return FoldyLaxSolution(charges=charges, residual_inf=residual,
                            system=system, diagnostics=diagnostics)


def farfield(solution: FoldyLaxSolution, directions: np.ndarray | None = None) -> FarFieldGrid:
    """Evaluate Uinf(xhat) = sum_m e^{-i kappa xhat.z_m} Q_m on a direction grid.

    directions defaults to a 200-point Fibonacci sphere.
    """
    if directions is None:
        directions = fibonacci_sphere(200)
    system = solution.system
    K = farfield_kernel(system.wave.kappa, np.asarray(directions)[:, None, :],
                        system.cloud.centers[None, :, :])
    values = K @ solution.charges
    return FarFieldGrid(directions=np.asarray(directions, dtype=float),
                        values=values, wave=system.wave)


def invertibility_report(system: FoldyLaxSystem,
                         regime: RegimeParams | None = None) -> InvertibilityReport:
    """Evaluate the a-priori invertibility estimates for an assembled system.

    Raises MissingRegime if neither the argument nor the cloud provides
    regime parameters.
    """
    regime = regime if regime is not None else system.cloud.regime
    if regime is None:
        raise MissingRegime("invertibility report requires regime parameters")
    cloud = system.cloud
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

    # off the diagonal B = -e^{i kappa d}/(4 pi d): Re B_n = -Re B and
    # cos(kappa d) = -Re B / |B|, read off B one row block at a time
    frob2, gamma = 0.0, math.inf
    for i0, i1 in row_blocks(M):
        re = system.matrix[i0:i1].real.copy()
        cos = -re / np.abs(system.matrix[i0:i1])
        np.fill_diagonal(re[:, i0:], 0.0)
        np.fill_diagonal(cos[:, i0:], math.inf)
        frob2, gamma = frob2 + float(np.vdot(re, re)), min(gamma, float(np.min(cos)))
    frob = math.sqrt(frob2)

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
