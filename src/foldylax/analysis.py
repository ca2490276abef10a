"""Far-field comparison and convergence-rate studies.

The error metric is the sup norm over a shared direction grid. Rates are
fitted by least squares on (log a, log error); errors at or below the noise
floor, 1e-11 of the reference far field's max|U_ref|, are excluded from the
fit so roundoff plateaus cannot drag the slope; with fewer than two errors
above it the rate is undetermined and fit_rate raises RateUndetermined. The
predicted slope is 3 - s - 2*beta for the general coefficient variant or
3 - s - beta for the spherical one.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, RateUndetermined
from .foldy import FarFieldGrid, Variant, assemble, farfield, solve
from .geometry import (IncidentWave, RegimeParams, ScattererCloud, _require_spheres,
                       generate_grid_cloud)
from .kernels import farfield_kernel, fibonacci_sphere, plane_wave
from .oracle import (DEFAULT_L, DEFAULT_QUAD_ORDER, assemble_bie, bie_farfield, mie_reference,
                     solve_bie)

NOISE_FLOOR = 1e-11  # relative to max|U_ref|


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

    slope: float
    intercept: float
    r_squared: float
    predicted_slope: float
    n_used: int


def fit_rate(a_values, errors, predicted_slope: float, scales=None) -> RateFit:
    """Fit log(error) = slope*log(a) + intercept by centered sums, ignoring
    samples at or below NOISE_FLOOR * scale; scales, one per sample, default
    to 1 (an absolute floor).

    Raises ValueError when a_values, errors and a given scales differ in
    length, RateUndetermined when fewer than two samples clear the floor.
    """
    a_values = tuple(float(a) for a in a_values)
    errors = tuple(float(e) for e in errors)
    scales = [1.0] * len(errors) if scales is None else [float(s) for s in scales]
    if not len(a_values) == len(errors) == len(scales):
        raise ValueError("a_values, errors and scales must have equal lengths")
    if len(a_values) < 3:
        raise ValueError("rate fit needs at least 3 samples")
    usable = [(math.log(a), math.log(e))
              for a, e, scale in zip(a_values, errors, scales) if e > NOISE_FLOOR * scale]
    if len(usable) < 2:
        raise RateUndetermined(
            f"{len(usable)} of {len(errors)} far-field errors cleared the noise floor, "
            f"{NOISE_FLOOR:g} of max|U_ref|; a rate fit needs 2")
    x_mean = math.fsum(x for x, _ in usable) / len(usable)
    y_mean = math.fsum(y for _, y in usable) / len(usable)
    sxx = math.fsum((x - x_mean) ** 2 for x, _ in usable)
    if sxx == 0:
        raise ValueError("rate fit needs two distinct radii above the noise floor")
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in usable)
    syy = math.fsum((y - y_mean) ** 2 for _, y in usable)
    slope = sxy / sxx
    ss_res = math.fsum((y - y_mean - slope * (x - x_mean)) ** 2 for x, y in usable)
    r2 = 1.0 if syy == 0 else 1.0 - ss_res / syy
    return RateFit(slope=slope, intercept=y_mean - slope * x_mean, r_squared=r2,
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
    Its blocks are exact, so quad_order only has to be >= 1; it does not
    change the result.
    """

    kind: str = "auto"
    L: int = DEFAULT_L
    quad_order: int = DEFAULT_QUAD_ORDER
    n_directions: int = 200

    def __post_init__(self):
        if self.kind not in ("auto", "mie", "bie", "fl"):
            raise ValueError("oracle kind must be auto|mie|bie|fl")
        if self.L < 0:
            raise ValueError("oracle degree L must be >= 0")


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


def oracle_farfield(cloud: ScattererCloud, wave: IncidentWave, directions,
                    settings: OracleSettings,
                    fl_grid: FarFieldGrid | None = None):
    """Reference far field per the oracle settings.

    Returns (grid, residual_bie, coefficients), coefficients the BIE
    solution's (M, (L+1)^2) array; residual is nan and coefficients None for
    the analytic routes. For an off-origin single sphere the
    separation-of-variables reference is translated exactly, by plane_wave
    and farfield_kernel: Uinf -> e^{i kappa theta.z} e^{-i kappa xhat.z} Uinf.
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
        _require_spheres(cloud, "separation-of-variables oracle")
        grid = mie_reference(wave, float(cloud.radii[0]), complex(cloud.impedances[0]),
                             directions, L=settings.L)
        z = cloud.centers[0]
        if np.any(z != 0.0):
            grid = dataclasses.replace(grid, values=grid.values * (
                plane_wave(wave.kappa, wave.theta, z) * farfield_kernel(wave.kappa, directions, z)))
        return grid, float("nan"), None
    sol = solve_bie(assemble_bie(cloud, wave, L=settings.L,
                                 quad_order=settings.quad_order))
    return bie_farfield(sol, directions), sol.residual_inf, sol.coefficients


def convergence_study(template: RegimeParams, a_values, wave: IncidentWave,
                      variant: Variant | str = Variant.SPHERICAL,
                      settings: OracleSettings = OracleSettings(),
                      box_side: float = math.inf, jitter: float = 0.0,
                      seed: int = 0) -> ConvergenceStudy:
    """Sweep a downward, comparing point-scatterer vs oracle far fields.

    a_values must be strictly decreasing with at least 3 entries. Every
    sample reuses the same incident wave, direction grid, coefficient
    variant, and cloud-generation seed. Raises RateUndetermined, as
    fit_rate does, when fewer than two errors clear the noise floor.
    """
    a_values = [float(a) for a in a_values]
    if len(a_values) < 3 or any(b >= a for a, b in zip(a_values, a_values[1:])):
        raise ValueError("a_values must be strictly decreasing, length >= 3")
    variant = Variant(variant)
    directions = fibonacci_sphere(settings.n_directions)
    records, scales = [], []
    for regime in [dataclasses.replace(template, a=a) for a in a_values]:
        cloud = generate_grid_cloud(regime, box_side=box_side, jitter=jitter, seed=seed)
        fl_sol = solve(assemble(cloud, wave, variant))
        fl_grid = farfield(fl_sol, directions)
        ref_grid, res_bie, _ = oracle_farfield(cloud, wave, directions, settings, fl_grid)
        records.append(StudyRecord(a=regime.a, M=cloud.M, d=cloud.d_eff,
                                   error=farfield_error(fl_grid, ref_grid),
                                   residual_fl=fl_sol.residual_inf,
                                   residual_bie=res_bie))
        scales.append(float(np.max(np.abs(ref_grid.values))))
    fit = fit_rate([r.a for r in records], [r.error for r in records],
                   predicted_slope(template, variant), scales)
    return ConvergenceStudy(records=tuple(records), fit=fit)

