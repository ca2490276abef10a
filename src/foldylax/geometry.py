"""Scatterer clouds, scaling-regime bookkeeping, and incident waves.

A cloud of M small obstacles is described by centers z_m, radii r_m (enclosing
balls; all generated obstacles are spheres of diameter a) and impedances
lambda_m. The asymptotic regime ties everything to the single small parameter
a = max diameter:

    M = floor(M_max * a^(-s)),   d in [d_min, d_max] * a^t,
    lambda_m = lambda0 * a^(-beta),

with admissibility beta <= 1, s <= 2 - beta, s/3 <= t. d is the minimum
surface-to-surface distance, +inf for a single scatterer; a cloud needs d > 0
and radii in [RADIUS_MIN, COORD_MAX), so that 4 pi r^2 and the squared
distances of centers are normal floats.

d comes from a cell list (Allen & Tildesley, Computer Simulation of Liquids,
1987), not from all M^2 pairs. The smallest gap u between centers that are
adjacent in lexicographic order bounds the minimum from above, so the closest
pair lies within u + 2 max r_m of each other: bin the centers into cubic
cells of that side and compare each cell with itself and its 13 forward
neighbours only. Each candidate pair is evaluated with the formula of
pair_distances, so d is the brute-force minimum bit for bit, and candidates
go in chunks of CELL_PAIRS, so a poor u costs time but never memory.

A pass over the rows of an M x M matrix takes the fixed blocks of
row_blocks, about PAIR_BLOCK entries each, so that it allocates no M x M
temporary. Each block has at least two rows, a lone last row joining the
block before it: numpy takes a one-row product as a dot product, which sums
in another order, so a row's bits would depend on the layout. Foldy-Lax
assembly, bound by arithmetic, deals its blocks among FOLDYLAX_THREADS
threading.Thread workers through row_block_pass, and each block allocates
its own scratch; passes bound by memory bandwidth are plain loops. The
block layout never depends on the worker count, and each block's result is
its own, so no pass's result does either.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from ._threads import thread_count
from .errors import (CapacityExceeded, InsufficientMemory, NonUnitDirection, OverlappingSpheres,
                     RegimeViolation)

DEFAULT_KAPPA_MAX = 2.0 * np.pi
_REL_TOL = 1e-12
THETA_UNIT_TOL = 1e-14  # | |x| - 1 | bound of an incident direction
UNIT_TOL = 1e-10  # | |x| - 1 | bound of a far-field direction
# row-block passes take blocks of about this many pairs or matrix entries
PAIR_BLOCK = 1 << 17
CELL_PAIRS = 1 << 14  # candidate pairs per chunk of the cell-list search
CELL_KEYS = 1 << 62  # cell keys stay below this, clear of int64 overflow
# the cell list's neighbour offsets: a cell itself and the 13 that follow it
# in lexicographic order, so each pair of neighbouring cells is visited once
_FORWARD = [(dx, dy, dz) for dx in (0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
            if (dx, dy, dz) >= (0, 0, 0)]
# radii in [RADIUS_MIN, COORD_MAX) and centers below COORD_MAX: squares stay normal floats
COORD_MAX = 1e150
RADIUS_MIN = 1e-150
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


def _require_unit(directions: np.ndarray, tol: float):
    """Raise NonUnitDirection unless | |x| - 1 | <= tol for each x on the last axis; NaN fails."""
    if not np.all(np.abs(np.linalg.norm(directions, axis=-1) - 1.0) <= tol):
        raise NonUnitDirection("directions must be unit vectors")


def _require_spheres(cloud: ScattererCloud, subject: str):
    """Raise ValueError unless the cloud's obstacles are true spheres."""
    if not cloud.is_spherical:
        raise ValueError(f"{subject} requires true spheres (no explicit areas)")


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
        # every field finite: a comparison with inf also fails for NaN
        checks = [
            (0 < self.a < math.inf, "0 < a < inf"),
            (0 <= self.s < math.inf, "0 <= s < inf"),
            (0 <= self.t < math.inf, "0 <= t < inf"),
            (0 <= self.beta <= 1 + _REL_TOL, "0 <= beta <= 1"),
            (0 < self.M_max < math.inf, "0 < M_max < inf"),
            (0 < self.d_min < math.inf, "0 < d_min < inf"),
            (self.d_min <= self.d_max < math.inf, "d_min <= d_max < inf"),
            (abs(self.lambda0) > 0 and _finite([self.lambda0.real, self.lambda0.imag]),
             "0 < |lambda0| < inf"),
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
    """Plane wave exp(i*kappa*x.theta); NaN, +-inf or non-unit theta raises NonUnitDirection."""

    kappa: float
    theta: np.ndarray

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float).reshape(3)
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        if not (0 < self.kappa <= DEFAULT_KAPPA_MAX):
            raise ValueError(f"kappa must lie in (0, {DEFAULT_KAPPA_MAX}]")
        _require_unit(theta, THETA_UNIT_TOL)


@dataclass(frozen=True)
class ScattererCloud:
    """Immutable cloud of scatterers, optionally tagged with its regime.

    radii are enclosing-ball radii in [RADIUS_MIN, COORD_MAX), used for all
    distance bookkeeping: 4*pi*r^2 is a normal float, and the overlap check
    finds each pair's distance, by pair_distances' formula, above r_i + r_j,
    so assembly meets only distinct centers. areas defaults to 4*pi*r^2;
    passing it explicitly, as normal floats (a subnormal one has lost digits),
    marks the obstacles as general shapes with known |dD_m|, which the general
    coefficient variant can use but the spherical variant and the two oracles,
    the boundary-integral and the modal series, cannot (_require_spheres).
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
        if max(np.max(np.abs(centers)), np.max(radii)) >= COORD_MAX:
            raise ValueError(f"centers and radii must stay below {COORD_MAX:g} in magnitude")
        if np.any(radii < RADIUS_MIN):
            raise ValueError(f"radii must lie in [{RADIUS_MIN:g}, {COORD_MAX:g})")
        if np.any(np.abs(imped) == 0):
            raise ValueError("impedances must be nonzero")
        spherical = self.areas is None
        areas = 4.0 * np.pi * radii**2 if spherical else np.array(self.areas, dtype=float).reshape(-1)
        if not _finite(areas):
            raise ValueError("cloud data must be finite")
        if len(areas) != len(centers) or np.any(areas < np.finfo(float).tiny):
            raise ValueError("areas must be positive normal floats, one per scatterer")
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


def row_blocks(n: int, width: int | None = None, min_rows: int = 2):
    """Row slices (i0, i1) of an n-row array of width (default n) columns,
    about PAIR_BLOCK entries each and at least min_rows rows. A lone last row
    joins the block before it, so the last block may have one row more than
    the others, or fewer."""
    rows = max(min_rows, PAIR_BLOCK // (width or n))
    blocks = [(i0, min(i0 + rows, n)) for i0 in range(0, n, rows)]
    if len(blocks) > 1 and blocks[-1][0] == n - 1:
        blocks[-2:] = [(blocks[-2][0], n)]
    return blocks


def row_block_pass(body, blocks):
    """Apply body to each row block (i0, i1) of blocks on thread_count()
    threads, the caller's among them; return its results in block order.

    body(i0, i1) handles rows i0:i1. The blocks are dealt round-robin to the
    workers, for a body bound by arithmetic (numpy releases the GIL inside
    ufunc loops); body must not depend on the order in which blocks run. An
    exception raised by body is raised here once every worker has stopped,
    the first worker's first.
    """
    workers = min(thread_count(), len(blocks))
    results = [None] * len(blocks)
    errors = [None] * workers

    def run(w):
        try:
            results[w::workers] = [body(i0, i1) for i0, i1 in blocks[w::workers]]
        except BaseException as exc:  # re-raised below, in the caller's thread
            errors[w] = exc

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)  # the caller's thread is worker 0
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def pair_distances(xyz: np.ndarray, i0: int, i1: int, j0: int, out: np.ndarray,
                   tmp: np.ndarray) -> np.ndarray:
    """out[k, j - j0] = |z_(i0+k) - z_j| for j >= j0: rows i0:i1 from column j0 on.

    xyz is the (3, n) contiguous transpose of the centers; out and tmp are
    (i1 - i0, n - j0) scratch. The sum is (dx*dx + dy*dy) + dz*dz, in the
    order of the dense formula, so every distance is symmetric bit for bit.
    """
    for k, c in enumerate(xyz):
        dst = tmp if k else out
        np.subtract(c[i0:i1, None], c[None, j0:], out=dst)
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


# numpy's SeedSequence (pool of 4 words) and PCG64 (XSL-RR 128/64) constants
_SEED_INIT_A, _SEED_MULT_A, _SEED_INIT_B, _SEED_MULT_B = (0x43B0D7E5, 0x931E8875, 0x8B51F9DD,
                                                          0x58F38DED)
_SEED_MIX_L, _SEED_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _pcg64_state(seed: int):
    """(state, increment) of numpy.random.PCG64(SeedSequence(seed)), in integers."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed >> 32 * k & _MASK32 for k in range(max(1, -(-seed.bit_length() // 32)))]

    def hasher(const, mult):
        def hashmix(value):
            nonlocal const
            value ^= const
            const = const * mult & _MASK32
            value = value * const & _MASK32
            return value ^ value >> 16
        return hashmix

    def mix(x, y):
        r = (_SEED_MIX_L * x - _SEED_MIX_R * y) & _MASK32
        return r ^ r >> 16

    hashmix = hasher(_SEED_INIT_A, _SEED_MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for i in range(4):
        for j in range(4):
            if i != j:
                pool[j] = mix(pool[j], hashmix(pool[i]))
    for word in entropy[4:]:
        for j in range(4):
            pool[j] = mix(pool[j], hashmix(word))
    hashmix = hasher(_SEED_INIT_B, _SEED_MULT_B)  # generate_state(4, uint64)
    words = [hashmix(pool[i % 4]) for i in range(8)]
    u64 = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
    initstate, initseq = u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]
    inc = (initseq << 1 | 1) & _MASK128
    return ((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc


def _uniform_jitter(seed: int, count: int) -> np.ndarray:
    """numpy.random.default_rng(seed).uniform(-1, 1, count), bit for bit, from
    the PCG64 stream: each draw steps the state, takes the XSL-RR output x and
    maps it to -1 + 2 ((x >> 11) 2^-53)."""
    state, inc = _pcg64_state(seed)

    def draws(state=state):
        for _ in range(count):
            state = (state * _PCG_MULT + inc) & _MASK128
            word, turn = (state >> 64 ^ state) & _MASK64, state >> 122
            yield -1.0 + 2.0 * (((word >> turn | word << 64 - turn) & _MASK64) >> 11) * 2.0**-53

    return np.fromiter(draws(), dtype=float, count=count)


def generate_grid_cloud(regime: RegimeParams, box_side: float,
                        jitter: float = 0.0, seed: int = 0) -> ScattererCloud:
    """Deterministically place M = floor(M_max * a^(-s)) spheres on a cubic lattice.

    The lattice pitch is a + (1+jitter)*d_min*a^t, so adjacent spheres of
    diameter a sit at surface distance (1+jitter)*d_min*a^t before jitter and
    never closer than d_min*a^t after it: each center is displaced by at most
    jitter*d_nominal/2 (d_nominal = d_min*a^t), uniformly per axis, by the
    package's own PCG64 stream, _uniform_jitter: bit for bit
    numpy.random.default_rng(seed).uniform(-1, 1, (M, 3)), which
    tests/test_geometry.py::TestOwnedJitterStream pins, without loading
    numpy.random. A negative seed raises ValueError.
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
    if not np.all(extent <= box_side * (1 + _REL_TOL)):
        raise CapacityExceeded(
            f"cloud extent {extent.max():g} exceeds box_side {box_side:g}")
    if jitter > 0:
        disp = _uniform_jitter(seed, 3 * M).reshape(M, 3)
        centers = centers + disp * (jitter * d_nom / (2.0 * math.sqrt(3.0)))
    radii = np.full(M, a / 2.0)
    impedances = np.full(M, regime.impedance, dtype=complex)
    return ScattererCloud(centers=centers, radii=radii, impedances=impedances, regime=regime)
