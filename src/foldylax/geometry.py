"""Scatterer clouds, scaling-regime bookkeeping, and incident waves.

A cloud of M small obstacles is described by centers z_m, radii r_m (enclosing
balls; all generated obstacles are spheres of diameter a) and impedances
lambda_m. The asymptotic regime ties everything to the single small parameter
a = max diameter:

    M = floor(M_max * a^(-s)),   d in [d_min, d_max] * a^t,
    lambda_m = lambda0 * a^(-beta),

with admissibility beta <= 1, s <= 2 - beta, s/3 <= t. d is the minimum
surface-to-surface distance; for a single scatterer it is reported as +inf.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityExceeded, OverlappingSpheres, RegimeViolation

DEFAULT_KAPPA_MAX = 2.0 * np.pi
_REL_TOL = 1e-12
THETA_UNIT_TOL = 1e-14
# pairwise passes take row blocks of about this many pairs: no M x M temporaries
PAIR_BLOCK = 1 << 17


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


@dataclass(frozen=True)
class RegimeParams:
    """Scaling-regime parameters (validated at construction).

    beta == 1 is accepted here because the spherical coefficient variant
    allows it; the general variant re-checks beta < 1 where the variant is
    actually known.
    """

    a: float
    s: float
    t: float
    beta: float
    M_max: float = 1.0
    d_min: float = 1.0
    d_max: float = 2.0
    lambda0: complex = -1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "lambda0", complex(self.lambda0))
        checks = [
            (self.a > 0 and _finite(self.a), "a > 0"),
            (self.s >= 0, "s >= 0"),
            (self.t >= 0, "t >= 0"),
            (0 <= self.beta <= 1 + _REL_TOL, "0 <= beta <= 1"),
            (self.M_max > 0, "M_max > 0"),
            (self.d_min > 0, "d_min > 0"),
            (self.d_max >= self.d_min, "d_max >= d_min"),
            (abs(self.lambda0) > 0 and _finite([self.lambda0.real, self.lambda0.imag]),
             "|lambda0| > 0"),
            (self.s <= 2 - self.beta + _REL_TOL, "s <= 2 - beta"),
            (self.s / 3 <= self.t + _REL_TOL, "s/3 <= t"),
        ]
        for ok, name in checks:
            if not ok:
                raise RegimeViolation(f"regime admissibility violated: {name}")

    @property
    def M(self) -> int:
        """Scatterer count floor(M_max * a^(-s)), at least 1."""
        return max(1, int(math.floor(self.M_max * self.a ** (-self.s) + 1e-9)))

    @property
    def impedance(self) -> complex:
        """Common impedance lambda0 * a^(-beta)."""
        return self.lambda0 * self.a ** (-self.beta)


@dataclass(frozen=True)
class IncidentWave:
    """Plane wave exp(i*kappa*x.theta); theta must be unit to 1e-14."""

    kappa: float
    theta: np.ndarray
    kappa_max: float = DEFAULT_KAPPA_MAX

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float).reshape(3)
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        if not (0 < self.kappa <= self.kappa_max):
            raise ValueError(f"kappa must lie in (0, {self.kappa_max}]")
        if abs(np.linalg.norm(theta) - 1.0) > THETA_UNIT_TOL:
            raise ValueError("theta must be unit length to 1e-14")
        if not _finite(theta):
            raise ValueError("theta must be finite")


@dataclass(frozen=True)
class ScattererCloud:
    """Immutable cloud of scatterers, optionally tagged with its regime.

    radii are enclosing-ball radii (used for all distance bookkeeping).
    areas defaults to the sphere areas 4*pi*r^2; passing it explicitly marks
    the obstacles as general (non-spherical) shapes with known |dD_m|, which
    the general coefficient variant can use but the spherical variant and the
    boundary-integral oracle cannot.
    """

    centers: np.ndarray
    radii: np.ndarray
    impedances: np.ndarray
    regime: RegimeParams | None = None
    areas: np.ndarray | None = None

    def __post_init__(self):
        centers = np.array(self.centers, dtype=float).reshape(-1, 3)
        radii = np.array(self.radii, dtype=float).reshape(-1)
        imped = np.array(self.impedances, dtype=complex).reshape(-1)
        if not (len(centers) == len(radii) == len(imped)):
            raise ValueError("centers, radii, impedances must have equal length")
        if len(centers) == 0:
            raise ValueError("cloud must contain at least one scatterer")
        if not (_finite(centers) and _finite(radii) and _finite(imped.view(float))):
            raise ValueError("cloud data must be finite")
        if np.any(radii <= 0):
            raise ValueError("radii must be positive")
        if np.any(np.abs(imped) == 0):
            raise ValueError("impedances must be nonzero")
        spherical = self.areas is None
        areas = 4.0 * np.pi * radii**2 if spherical else np.array(self.areas, dtype=float).reshape(-1)
        if len(areas) != len(centers) or np.any(areas <= 0):
            raise ValueError("areas must be positive, one per scatterer")
        for arr in (centers, radii, imped, areas):
            arr.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "impedances", imped)
        object.__setattr__(self, "areas", areas)
        object.__setattr__(self, "_spherical", spherical)
        d_eff = _min_surface_distance(centers, radii)
        if d_eff <= 0:
            raise OverlappingSpheres(f"min surface distance {d_eff:g} <= 0")
        object.__setattr__(self, "_d_eff", d_eff)
        if self.regime is not None:
            self._check_regime(self.regime, d_eff)

    def _check_regime(self, rg: RegimeParams, d_eff: float):
        M = len(self.centers)
        # M = 1 is always allowed: the count rule is floor(M_max * a^(-s)) with a floor of 1
        if M > 1 and M > rg.M_max * rg.a ** (-rg.s) * (1 + _REL_TOL) + 1e-9:
            raise RegimeViolation("cloud invariant violated: M <= M_max * a^(-s)")
        if 2 * float(np.max(self.radii)) > rg.a * (1 + _REL_TOL):
            raise RegimeViolation("cloud invariant violated: 2*max(r_m) <= a")
        if M >= 2:
            lo = rg.d_min * rg.a**rg.t
            hi = rg.d_max * rg.a**rg.t
            if not (lo * (1 - 1e-9) <= d_eff <= hi * (1 + 1e-9)):
                raise RegimeViolation(
                    f"cloud invariant violated: d = {d_eff:g} outside "
                    f"[{lo:g}, {hi:g}] = [d_min, d_max] * a^t")

    @property
    def M(self) -> int:
        return len(self.centers)

    @property
    def is_spherical(self) -> bool:
        return self._spherical

    @property
    def d_eff(self) -> float:
        """Min surface-to-surface distance; +inf for a single scatterer."""
        return self._d_eff

    @property
    def a_eff(self) -> float:
        """Max obstacle diameter 2*max(r_m)."""
        return 2.0 * float(np.max(self.radii))


def row_blocks(n: int):
    """Row slices (i0, i1) of an n-row pairwise array, about PAIR_BLOCK pairs each."""
    rows = max(1, PAIR_BLOCK // n)
    return ((i0, min(i0 + rows, n)) for i0 in range(0, n, rows))


def pairwise_row_blocks(centers: np.ndarray):
    """Yield (i0, i1, dist), dist[k, j - i0] = |z_(i0+k) - z_j| for j >= i0: the upper triangle."""
    x, y, z = (np.ascontiguousarray(centers[:, k]) for k in range(3))
    for i0, i1 in row_blocks(len(centers)):
        dx, dy, dz = (c[i0:i1, None] - c[i0:] for c in (x, y, z))
        yield i0, i1, np.sqrt(dx * dx + dy * dy + dz * dz)


def _min_surface_distance(centers: np.ndarray, radii: np.ndarray) -> float:
    return float(min(np.min(dist - radii[i0:i1, None] - radii[None, i0:], initial=math.inf,
                            where=np.triu(np.ones(dist.shape, dtype=bool), 1))
                     for i0, i1, dist in pairwise_row_blocks(centers)))


@dataclass(frozen=True)
class CloudStats:
    """Summary returned by cloud_stats."""

    M: int
    a_eff: float
    d_eff: float
    lambda_plus: float
    lambda_minus: float


def cloud_stats(cloud: ScattererCloud) -> CloudStats:
    """M, max diameter, min surface distance, and impedance-prefactor bounds.

    With regime provenance the prefactors lambda_{m,0} = lambda_m * a^beta are
    recovered exactly and lambda_plus = max|lambda_{m,0}|,
    lambda_minus = min|Re lambda_{m,0}|. Without a regime the raw impedances
    are used (a^0 convention). d_eff is +inf for M = 1.
    """
    lam = cloud.impedances
    if cloud.regime is not None:
        lam = lam * cloud.regime.a**cloud.regime.beta
    return CloudStats(
        M=cloud.M,
        a_eff=cloud.a_eff,
        d_eff=cloud.d_eff,
        lambda_plus=float(np.max(np.abs(lam))),
        lambda_minus=float(np.min(np.abs(lam.real))),
    )


def layer_count(n: int) -> int:
    """Number of cells in cubic layer n around a center cell: (2n+1)^3 - (2n-1)^3."""
    if n < 1:
        raise ValueError("layer index must be >= 1")
    return 24 * n * n + 2


def generate_grid_cloud(regime: RegimeParams, box_side: float,
                        jitter: float = 0.0, seed: int = 0) -> ScattererCloud:
    """Deterministically place M = floor(M_max * a^(-s)) spheres on a cubic lattice.

    The lattice pitch is a + (1+jitter)*d_min*a^t, so adjacent spheres of
    diameter a sit at surface distance (1+jitter)*d_min*a^t before jitter and
    never closer than d_min*a^t after it: each center is displaced by at most
    jitter*d_nominal/2 (d_nominal = d_min*a^t), uniformly per axis, via
    numpy's seeded PCG64 generator (bitwise deterministic for a given seed).
    Cells fill in lexicographic index order and the occupied block is centered
    at the origin; a single scatterer lands exactly at the origin.

    Raises:
        RegimeViolation: inadmissible regime or jitter incompatible with the
            distance window.
        CapacityExceeded: occupied block (plus sphere radii and worst-case
            jitter) does not fit in the box.
    """
    if not 0 <= jitter < 1:
        raise RegimeViolation("jitter must lie in [0, 1)")
    M = regime.M
    if M >= 2 and jitter > 0 and (1 + 2 * jitter) * regime.d_min > regime.d_max * (1 + _REL_TOL):
        raise RegimeViolation(
            "jitter incompatible with distance window: need (1+2*jitter)*d_min <= d_max")
    a = regime.a
    d_nom = regime.d_min * a**regime.t
    pitch = a + (1 + jitter) * d_nom
    n = int(math.ceil(M ** (1.0 / 3.0) - 1e-9))
    idx = np.array([(i, j, k) for i in range(n) for j in range(n) for k in range(n)][:M],
                   dtype=float)
    lo, hi = idx.min(axis=0), idx.max(axis=0)
    centers = (idx - (lo + hi) / 2.0) * pitch
    extent = (hi - lo) * pitch + a + jitter * d_nom
    if np.any(extent > box_side * (1 + _REL_TOL)):
        raise CapacityExceeded(
            f"cloud extent {extent.max():g} exceeds box_side {box_side:g}")
    if jitter > 0:
        rng = np.random.default_rng(seed)
        disp = rng.uniform(-1.0, 1.0, size=(M, 3)) * (jitter * d_nom / (2.0 * math.sqrt(3.0)))
        centers = centers + disp
    radii = np.full(M, a / 2.0)
    impedances = np.full(M, regime.impedance, dtype=complex)
    return ScattererCloud(centers=centers, radii=radii, impedances=impedances, regime=regime)
