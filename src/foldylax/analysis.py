"""Far-field comparison, convergence-rate studies, and regime sweeps.

The error metric is the sup norm over a shared direction grid. Rates are
fitted by least squares on (log a, log error); errors at or below the noise
floor 1e-11 are excluded from the fit so roundoff plateaus cannot drag the
slope, and the predicted slope is 3 - s - 2*beta for the general coefficient
variant or 3 - s - beta for the spherical one.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InfeasibleOracle
from .foldy import (FarFieldGrid, InvertibilityReport, Variant, assemble,
                    charge_bound_check, farfield, solve)
from .geometry import IncidentWave, RegimeParams, ScattererCloud, generate_grid_cloud
from .kernels import fibonacci_sphere
from .oracle import assemble_bie, bie_farfield, mie_reference, solve_bie
from .spherical import n_coeffs

NOISE_FLOOR = 1e-11


def farfield_error(grid_a: FarFieldGrid, grid_b: FarFieldGrid) -> float:
    """sup_n |U_a(xhat_n) - U_b(xhat_n)| over a shared grid.

    Raises GridMismatch unless both grids carry identical directions and the
    same incident wave.
    """
    if grid_a.directions.shape != grid_b.directions.shape or not np.array_equal(
            grid_a.directions, grid_b.directions):
        raise GridMismatch("direction grids differ")
    wa, wb = grid_a.wave, grid_b.wave
    if wa.kappa != wb.kappa or not np.array_equal(wa.theta, wb.theta):
        raise GridMismatch("incident waves differ")
    return float(np.max(np.abs(grid_a.values - grid_b.values)))


@dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit error ~ C * a^slope."""

    a_values: tuple
    errors: tuple
    slope: float
    intercept: float
    r_squared: float
    predicted_slope: float
    n_used: int


def fit_rate(a_values, errors, predicted_slope: float) -> RateFit:
    """Fit log(error) = slope*log(a) + intercept, ignoring noise-floor samples."""
    a_values = tuple(float(a) for a in a_values)
    errors = tuple(float(e) for e in errors)
    if len(a_values) < 3:
        raise ValueError("rate fit needs at least 3 samples")
    usable = [(a, e) for a, e in zip(a_values, errors) if e > NOISE_FLOOR]
    if len(usable) < 2:
        # everything at the noise floor: report a degenerate flat fit
        return RateFit(a_values=a_values, errors=errors, slope=0.0, intercept=0.0,
                       r_squared=0.0, predicted_slope=predicted_slope, n_used=len(usable))
    x = np.log([a for a, _ in usable])
    y = np.log([e for _, e in usable])
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return RateFit(a_values=a_values, errors=errors, slope=float(slope),
                   intercept=float(intercept), r_squared=r2,
                   predicted_slope=predicted_slope, n_used=len(usable))


def predicted_slope(regime: RegimeParams, variant: Variant | str) -> float:
    v = Variant(variant)
    if v is Variant.SPHERICAL:
        return 3.0 - regime.s - regime.beta
    return 3.0 - regime.s - 2.0 * regime.beta


@dataclass(frozen=True)
class OracleSettings:
    """Which reference far field to compare against, and at what resolution.

    kind 'auto' selects the separation-of-variables reference for M = 1 and
    the coupled boundary-integral solver otherwise; 'fl' echoes the
    point-scatterer solution itself (exact zero error, a plumbing check).
    The boundary-integral route refuses problems with M*(L+1)^2 > cap.
    Its blocks are exact, so quad_order only has to be >= 1; it does not
    change the result.
    """

    kind: str = "auto"
    L: int = 12
    quad_order: int = 24
    cap: int = 4000
    n_directions: int = 200

    def __post_init__(self):
        if self.kind not in ("auto", "mie", "bie", "fl"):
            raise ValueError("oracle kind must be auto|mie|bie|fl")


@dataclass(frozen=True)
class StudyRecord:
    a: float
    M: int
    d: float
    error: float
    residual_fl: float
    residual_bie: float


@dataclass(frozen=True)
class ConvergenceStudy:
    records: tuple
    fit: RateFit
    variant: Variant
    oracle_kind: str


def oracle_farfield(cloud: ScattererCloud, wave: IncidentWave, directions,
                    settings: OracleSettings,
                    fl_grid: FarFieldGrid | None = None):
    """Reference far field per the oracle settings.

    Returns (grid, residual_bie, densities); residual is nan and densities
    None for the analytic routes. For an off-origin single sphere the
    separation-of-variables reference is translated exactly:
    Uinf -> e^{i kappa (theta - xhat).z} Uinf.
    """
    kind = settings.kind
    if kind == "auto":
        kind = "mie" if cloud.M == 1 else "bie"
    if kind == "fl":
        if fl_grid is None:
            raise ValueError("oracle 'fl' needs the point-scatterer grid")
        return fl_grid, float("nan"), None
    if kind == "mie":
        if cloud.M != 1:
            raise ValueError("separation-of-variables oracle requires M = 1")
        grid = mie_reference(wave, float(cloud.radii[0]), complex(cloud.impedances[0]),
                             directions, L=settings.L)
        z = cloud.centers[0]
        if np.any(z != 0.0):
            shift = np.exp(1j * wave.kappa * (float(wave.theta @ z)
                                              - np.asarray(directions) @ z))
            grid = FarFieldGrid(directions=grid.directions,
                                values=grid.values * shift, wave=wave)
        return grid, float("nan"), None
    size = cloud.M * n_coeffs(settings.L)
    if size > settings.cap:
        raise InfeasibleOracle(
            f"boundary-integral size {size} = M*(L+1)^2 exceeds cap {settings.cap}")
    sol = solve_bie(assemble_bie(cloud, wave, L=settings.L,
                                 quad_order=settings.quad_order))
    densities = tuple(d.coefficients for d in sol.densities)
    return bie_farfield(sol, directions), sol.residual_inf, densities


def convergence_study(template: RegimeParams, a_values, wave: IncidentWave,
                      variant: Variant | str = Variant.SPHERICAL,
                      settings: OracleSettings = OracleSettings(),
                      box_side: float = math.inf, jitter: float = 0.0,
                      seed: int = 0) -> ConvergenceStudy:
    """Sweep a downward, comparing point-scatterer vs oracle far fields.

    a_values must be strictly decreasing with at least 3 entries. Every
    sample reuses the same incident wave, direction grid, coefficient
    variant, and cloud-generation seed.
    """
    a_values = [float(a) for a in a_values]
    if len(a_values) < 3 or any(b >= a for a, b in zip(a_values, a_values[1:])):
        raise ValueError("a_values must be strictly decreasing, length >= 3")
    variant = Variant(variant)
    directions = fibonacci_sphere(settings.n_directions)
    records = []
    for a in a_values:
        regime = dataclasses.replace(template, a=a)
        cloud = generate_grid_cloud(regime, box_side=box_side, jitter=jitter, seed=seed)
        fl_sol = solve(assemble(cloud, wave, variant))
        fl_grid = farfield(fl_sol, directions)
        ref_grid, res_bie, _ = oracle_farfield(cloud, wave, directions, settings, fl_grid)
        records.append(StudyRecord(a=a, M=cloud.M, d=cloud.d_eff,
                                   error=farfield_error(fl_grid, ref_grid),
                                   residual_fl=fl_sol.residual_inf,
                                   residual_bie=res_bie))
    fit = fit_rate([r.a for r in records], [r.error for r in records],
                   predicted_slope(template, variant))
    return ConvergenceStudy(records=tuple(records), fit=fit, variant=variant,
                            oracle_kind=settings.kind)


@dataclass(frozen=True)
class RegimeSweepRow:
    a: float
    M: int
    d_eff: float
    report: InvertibilityReport
    residual: float
    charge_ratio: float  # max|Q_m| / a^(2-beta)
    charge_bound_ok: bool


def regime_sweep(template: RegimeParams, a_values, wave: IncidentWave,
                 variant: Variant | str = Variant.GENERAL,
                 box_side: float = math.inf, jitter: float = 0.0, seed: int = 0,
                 c_tilde: float = 10.0):
    """Invertibility diagnostics and charge-bound ratios across an a sweep."""
    rows = []
    for a in (float(a) for a in a_values):
        regime = dataclasses.replace(template, a=a)
        cloud = generate_grid_cloud(regime, box_side=box_side, jitter=jitter, seed=seed)
        sol = solve(assemble(cloud, wave, variant))
        ratio = float(np.max(np.abs(sol.charges)) / a ** (2.0 - regime.beta))
        rows.append(RegimeSweepRow(a=a, M=cloud.M, d_eff=cloud.d_eff, report=sol.diagnostics,
                                   residual=sol.residual_inf, charge_ratio=ratio,
                                   charge_bound_ok=charge_bound_check(sol, regime, c_tilde)))
    return rows
