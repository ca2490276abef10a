"""Scatterer clouds, scaling-regime bookkeeping, and incident waves.

A cloud of M small obstacles is described by centers z_m, radii r_m (enclosing
balls; all generated obstacles are spheres of diameter a) and impedances
lambda_m. The asymptotic regime ties everything to the single small parameter
a = max diameter:

    M = floor(M_max * a^(-s)),   d in [d_min, d_max] * a^t,
    lambda_m = lambda0 * a^(-beta),

with admissibility beta <= 1, s <= 2 - beta, s/3 <= t. d is the minimum
surface-to-surface distance; for a single scatterer it is reported as +inf.

d comes from a cell list (Allen & Tildesley, Computer Simulation of Liquids,
1987), not from all M^2 pairs. The smallest gap u between centers that are
adjacent in lexicographic order bounds the minimum from above, so the closest
pair lies within u + 2 max r_m of each other: bin the centers into cubic
cells of that side and compare each cell with itself and its 13 forward
neighbours only. Each candidate pair is evaluated with the formula of
pair_distances, so d is the brute-force minimum bit for bit, and candidates
go in chunks of CELL_PAIRS, so a poor u costs time but never memory.

Every pass over the rows of an M x M matrix goes through row_block_pass:
the fixed blocks of row_blocks, about PAIR_BLOCK entries each, computed into
scratch buffers allocated once per pass, so no pass allocates an M x M
temporary or a new one per block. Passes bound by arithmetic (Foldy-Lax
assembly) deal those blocks among FOLDYLAX_THREADS worker threads; passes
bound by memory bandwidth keep one worker, so their sums add up in the same
order every run. The block layout never depends on the worker count.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from ._threads import thread_count
from .errors import CapacityExceeded, InsufficientMemory, OverlappingSpheres, RegimeViolation

DEFAULT_KAPPA_MAX = 2.0 * np.pi
_REL_TOL = 1e-12
THETA_UNIT_TOL = 1e-14
# row-block passes take blocks of about this many pairs or matrix entries
PAIR_BLOCK = 1 << 17
CELL_PAIRS = 1 << 14  # candidate pairs per chunk of the cell-list search
CELL_KEYS = 1 << 62  # cell keys stay below this, clear of int64 overflow
# the cell list's neighbour offsets: a cell itself and the 13 that follow it
# in lexicographic order, so each pair of neighbouring cells is visited once
_FORWARD = [(dx, dy, dz) for dx in (0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
            if (dx, dy, dz) >= (0, 0, 0)]
CLOUD_BYTES_PER_SPHERE = 512  # generate_grid_cloud's peak, validation included


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


def _available_bytes() -> int | None:
    """MemAvailable from /proc/meminfo in bytes; None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            return next(int(ln.split()[1]) * 1024 for ln in fh if ln.startswith("MemAvailable:"))
    except (OSError, ValueError, IndexError, StopIteration):
        return None


def _require_memory(need: int, subject: str, purpose: str):
    """Raise InsufficientMemory when need bytes exceed MemAvailable."""
    available = _available_bytes()
    if available is not None and need > available:
        # need rounds up, available down: a refusal never reads "needs 0 MiB"
        raise InsufficientMemory(f"{subject} needs {math.ceil(need / 2**20)} MiB for "
                                 f"{purpose}; {available // 2**20} MiB available")


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
            (0 < self.M_max < math.inf, "0 < M_max < inf"),
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
        if not math.isfinite(self._count):
            raise RegimeViolation("regime admissibility violated: M_max * a^(-s) < inf")

    @property
    def _count(self) -> float:
        """M_max * a^(-s), +inf where it overflows a float."""
        try:
            return self.M_max * self.a ** (-self.s)
        except OverflowError:
            return math.inf

    @property
    def M(self) -> int:
        """Scatterer count floor(M_max * a^(-s)), at least 1."""
        return max(1, int(math.floor(self._count + 1e-9)))

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
        if M > 1 and M > rg._count * (1 + _REL_TOL) + 1e-9:
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


def row_blocks(n: int, width: int | None = None, min_rows: int = 1):
    """Row slices (i0, i1) of an n-row array of width (default n) columns,
    about PAIR_BLOCK entries each and at least min_rows rows."""
    rows = max(min_rows, PAIR_BLOCK // (width or n))
    return [(i0, min(i0 + rows, n)) for i0 in range(0, n, rows)]


def block_view(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The leading rows*cols entries of a flat scratch buffer as a (rows, cols) array."""
    return buf[:rows * cols].reshape(rows, cols)


def row_block_pass(body, n: int, width: int | None = None, scratch=(), threaded=False,
                   total: np.ndarray | None = None, min_rows: int = 1):
    """Apply body to row_blocks(n, width, min_rows); return its results in block order.

    body(i0, i1, *bufs) handles rows i0:i1. scratch lists the dtypes of its
    flat scratch buffers: each worker allocates one of each, rows*width
    entries long, once per call, and body views a prefix with block_view.
    A memory-bound pass runs on one worker. A threaded pass, one bound by
    arithmetic (numpy releases the GIL inside ufunc loops), deals the same
    blocks round-robin to thread_count() workers; body must not depend on
    the order in which blocks run. With total, each worker also passes body
    a zeroed array shaped like it, after the scratch buffers, to add its
    blocks into; these are added into total in worker order, so the sum is
    the same every run with as many workers. An exception raised by body is
    raised here once every worker has stopped.
    """
    width = width or n
    blocks = row_blocks(n, width, min_rows)
    workers = min(thread_count() if threaded else 1, len(blocks))
    size = max((i1 - i0 for i0, i1 in blocks), default=0) * width
    sums = [np.zeros_like(total) for _ in range(workers)] if total is not None else []

    def run(w):
        bufs = [np.empty(size, dtype) for dtype in scratch] + sums[w:w + 1]
        return [body(i0, i1, *bufs) for i0, i1 in blocks[w::workers]]

    if workers <= 1:
        results = run(0)
    else:
        from concurrent.futures import ThreadPoolExecutor  # here: it imports logging

        with ThreadPoolExecutor(workers) as pool:
            parts = [pool.submit(run, w) for w in range(workers)]
        results = [None] * len(blocks)
        for w, part in enumerate(parts):
            results[w::workers] = part.result()
    for part in sums:
        total += part
    return results


def pair_distances(xyz: np.ndarray, i0: int, i1: int, out: np.ndarray,
                   tmp: np.ndarray) -> np.ndarray:
    """out[k, j - i0] = |z_(i0+k) - z_j| for j >= i0: rows i0:i1 of the upper triangle.

    xyz is the (3, n) contiguous transpose of the centers; out and tmp are
    (i1 - i0, n - i0) scratch. The sum is (dx*dx + dy*dy) + dz*dz, in the
    order of the dense formula, so every distance is symmetric bit for bit.
    """
    for k, c in enumerate(xyz):
        dst = tmp if k else out
        np.subtract(c[i0:i1, None], c[None, i0:], out=dst)
        np.multiply(dst, dst, out=dst)
        if k:
            np.add(out, tmp, out=out)
    return np.sqrt(out, out=out)


def _gaps(xyz: np.ndarray, radii: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(|z_i - z_j| - r_i) - r_j of the pairs (p, q), i the lower index of each,
    in the order of pair_distances and the brute force over all pairs."""
    i, j = np.minimum(p, q), np.maximum(p, q)
    d2 = None
    for c in xyz:
        diff = c[i] - c[j]
        d2 = diff * diff if d2 is None else np.add(d2, diff * diff, out=d2)
    return (np.sqrt(d2, out=d2) - radii[i]) - radii[j]


def _cell_keys(centers: np.ndarray, side: float):
    """Integer keys of the cubic cells of that side holding each center, and
    the key steps of the x and y axes (z steps by 1).

    Along each axis, runs of empty cells wider than one shrink to one, so
    cells are adjacent exactly when they were and a few far outliers keep the
    keys small. The side doubles in the rare case the keys would reach
    CELL_KEYS.
    """
    origin = centers.min(axis=0)
    while True:
        cells = np.floor((centers - origin) / side).astype(np.int64)
        coords = []
        for column in cells.T:
            order = np.argsort(column, kind="stable")
            steps = np.diff(column[order], prepend=column[order[0]])
            coord = np.empty_like(column)
            coord[order] = np.cumsum(np.minimum(steps, 2))
            coords.append(coord)
        # one empty coordinate past the last: a neighbour never wraps into an occupied cell
        ex, ey, ez = (int(c.max()) + 2 for c in coords)
        if ex * ey * ez < CELL_KEYS:
            return (coords[0] * ey + coords[1]) * ez + coords[2], ey * ez, ez
        side *= 2.0


def _min_surface_distance(centers: np.ndarray, radii: np.ndarray) -> float:
    """min over i < j of (|z_i - z_j| - r_i) - r_j by the cell list; +inf for M = 1."""
    n = len(centers)
    if n < 2:
        return math.inf
    xyz = np.ascontiguousarray(centers.T)
    order = np.lexsort(xyz[::-1])
    upper = float(_gaps(xyz, radii, order[:-1], order[1:]).min())
    # the closest pair is at most `upper` apart at its surfaces, so its centers
    # are at most `side` apart, with room for the rounding of gaps and cells
    span = float(np.max(xyz.max(axis=1) - xyz.min(axis=1)))
    side = (upper + 2.0 * float(radii.max())) * (1.0 + 1e-6) + span * 1e-12
    keys, step_x, step_y = _cell_keys(centers, side if side > 0 else 1.0)
    members = np.argsort(keys, kind="stable")
    keys = keys[members]
    first = np.flatnonzero(np.diff(keys, prepend=-1))  # where each cell's members start
    cell, count = keys[first], np.diff(first, append=n)
    best = upper
    for dx, dy, dz in _FORWARD:
        wanted = cell + (dx * step_x + dy * step_y + dz)
        found = np.minimum(np.searchsorted(cell, wanted), len(cell) - 1)
        a = np.flatnonzero(cell[found] == wanted)
        b = found[a]
        # number the pairs of the cell pairs (a, b) through, and take them in chunks
        width = count[b]
        end = np.cumsum(count[a] * width)
        pairs = int(end[-1]) if len(end) else 0
        for t0 in range(0, pairs, CELL_PAIRS):
            t = np.arange(t0, min(t0 + CELL_PAIRS, pairs))
            g = np.searchsorted(end, t, side="right")
            local = t - (end[g] - count[a[g]] * width[g])
            p = members[first[a[g]] + local // width[g]]
            q = members[first[b[g]] + local % width[g]]
            keep = p != q  # a cell paired with itself
            if keep.any():
                best = min(best, float(_gaps(xyz, radii, p[keep], q[keep]).min()))
    return best


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
        InsufficientMemory: CLOUD_BYTES_PER_SPHERE * M bytes exceed MemAvailable.
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
    _require_memory(CLOUD_BYTES_PER_SPHERE * M, f"M = {M}", "the lattice cloud")
    idx = np.column_stack(np.unravel_index(np.arange(M), (n, n, n))).astype(float)
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
