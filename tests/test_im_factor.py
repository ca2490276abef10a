"""The factor path of the packed Foldy-Lax matrix: real strips of Re B, and
Im B off the diagonal as -kappa H H^T with H real, of rank (L+1)^2.

The clouds here are compact, kappa R <= 2, and a few hundred strong, so
they take the factor; the strip path's own tests live in
test_pairwise_blocks and pass unchanged."""

import math
import tracemalloc

import numpy as np
import pytest

from foldylax import RegimeParams, ScattererCloud, assemble, generate_grid_cloud, solve
from foldylax import foldy
from foldylax.geometry import row_blocks

from cloud_helpers import THREADS, assembled_per_thread_count, make_wave
from dense_reference import dense_formula, scan

M = 343
U = 2.0**-53


def compact_cloud(seed=0, mixed_signs=False):
    """A jittered 7 x 7 x 7 unit lattice of small spheres: R is about 5.3."""
    rng = np.random.default_rng(seed)
    idx = np.indices((7, 7, 7)).reshape(3, -1).T.astype(float)
    impedances = np.full(M, -1.0 + 0.2j)
    if mixed_signs:  # the LU path
        impedances[0] = -impedances[0]
    return ScattererCloud(centers=idx + rng.uniform(-0.1, 0.1, size=(M, 3)),
                          radii=np.full(M, 0.05), impedances=impedances)


def radius(cloud):
    return float(foldy._factor_frame(cloud.centers)[1].max())


def wave_at(cloud, x):
    """The incident wave whose kappa R is x."""
    return make_wave(kappa=x / radius(cloud), theta=(1.0, 2.0, -0.5))


def tail(x, L):
    """sum_{l>L} (2l+1) x^(2l)/((2l+1)!!)^2, term by term."""
    return math.fsum((2 * l + 1) * (x**l / math.prod(range(1, 2 * l + 2, 2))) ** 2
                     for l in range(L + 1, L + 80))


def degree_of(system):
    return math.isqrt(system.matrix.factor.shape[1]) - 1


def least_degree(x):
    """The least L whose tail is below 2^-53."""
    return next(L for L in range(100) if tail(x, L) < 2.0**-53)


def strip_path(monkeypatch, cloud, wave):
    """The same system with Im B kept in complex strips."""
    with monkeypatch.context() as patch:
        patch.setattr(foldy, "_factor_degree", lambda *args: None)
        system = assemble(cloud, wave, "general")
    assert system.matrix.factor is None
    return system


def test_degree_is_the_least_with_a_tail_below_2_to_the_minus_53():
    for x in (0.0, 1e-9, 0.25, 0.7, 1.0, 2.0, 7.5):
        assert foldy._tail_degree(x, 60) == least_degree(x), x
    # the tail cannot fall below 2^-53 by max_degree: no factor
    assert foldy._tail_degree(2.0, 10) is None and foldy._tail_degree(2.0, 11) == 11
    assert foldy._tail_degree(50.0, 40) is None


def test_selection_rule_on_both_sides(monkeypatch):
    """16 M (L+1)^2 bytes, twice H's, must be fewer than the 8 bytes per
    strip entry of the imaginary halves, 16 M K < 8 entries."""
    cloud = compact_cloud()
    wave = wave_at(cloud, 0.25)
    L = least_degree(0.25)
    K = (L + 1) ** 2
    assert L == 5
    boundary = 2 * M * K
    r = foldy._factor_frame(cloud.centers)[1]
    assert foldy._factor_degree(r, wave.kappa, boundary + 1) == L
    assert foldy._factor_degree(r, wave.kappa, boundary) is None
    entries = sum((i1 - i0) * (M - i0) for i0, i1 in row_blocks(M, min_rows=foldy.STRIP_ROWS))
    assert entries > boundary and degree_of(assemble(cloud, wave, "general")) == L
    # kappa R = 8 needs about 30 degrees: F would outweigh the imaginary halves
    assert assemble(cloud, wave_at(cloud, 8.0), "general").matrix.factor is None
    # the benchmark's sweep cloud of 20 spheres: kappa R = 0.04 takes L = 3,
    # and 2 M K = 640 exceeds its 400 strip entries
    rg = RegimeParams(a=0.01, s=1.0, t=1.0, beta=0.0, M_max=0.2)
    small = generate_grid_cloud(rg, box_side=math.inf, jitter=0.3, seed=1)
    assert small.M == 20 and foldy._tail_degree(radius(small), 60) == 3
    assert assemble(small, make_wave(), "spherical").matrix.factor is None


@pytest.mark.parametrize("x", [0.25, 2.0])
def test_re_b_diagonal_and_certificate_are_the_strip_path_bits(monkeypatch, x):
    """Re np.asarray(B) is the dense formula bit for bit, the diagonal is
    exactly -1/C_m, and ||Re B_n||_F, gamma and q are the strip path's bits,
    for every worker count."""
    cloud = compact_cloud()
    wave = wave_at(cloud, x)
    ref = dense_formula(cloud, wave)
    strips = strip_path(monkeypatch, cloud, wave)
    certificate = (strips.matrix.frobenius_offdiag_real, strips.matrix.gamma, strips.matrix.q)
    for threads, system in assembled_per_thread_count(monkeypatch, cloud, wave):
        B = system.matrix
        assert B.factor is not None and B.strips[0].dtype == float, threads
        dense = np.asarray(B)
        assert np.array_equal(dense.real, ref.real), threads
        assert np.array_equal(dense, dense.T), threads
        assert np.array_equal(B.diagonal(), -1.0 / system.coefficients), threads
        assert np.array_equal(dense.diagonal(), ref.diagonal()), threads
        assert (B.frobenius_offdiag_real, B.gamma, B.q) == certificate
        assert B.nbytes < strips.matrix.nbytes


def im_error(cloud, wave, L):
    """max over i != j of |Im B^_ij - Im B_ij| / (kappa/4pi) with H of degree L."""
    H = np.empty((cloud.M, (L + 1) ** 2))
    foldy._fill_factor(H, *foldy._factor_frame(cloud.centers), wave.kappa, L)
    im = -wave.kappa * (H @ H.T)
    ref = dense_formula(cloud, wave).imag
    off = ~np.eye(cloud.M, dtype=bool)
    return float(np.max(np.abs(im - ref)[off])) / (wave.kappa / (4.0 * np.pi))


def im_bound(x, L):
    """The module docstring's bound over kappa/4pi: tau(L) + 2 eta + (K + 5) u,
    eta = 2 (L+1) u, and 3 u more for the rounding of the reference."""
    return tail(x, L) + 4 * (L + 1) * U + ((L + 1) ** 2 + 8) * U


@pytest.mark.parametrize("x", [0.25, 1.0, 2.0])
def test_im_b_within_the_derived_bound(x):
    """np.asarray(B).imag and H's inner products stay within the bound of the
    least degree whose tail is below 2^-53, which F must reach."""
    cloud = compact_cloud()
    wave = wave_at(cloud, x)
    system = assemble(cloud, wave, "general")
    L = least_degree(x)
    bound = im_bound(x, L)
    assert im_error(cloud, wave, L) <= bound
    dense = np.asarray(system.matrix)
    ref = dense_formula(cloud, wave)
    off = ~np.eye(M, dtype=bool)
    assert np.max(np.abs(dense.imag - ref.imag)[off]) <= bound * wave.kappa / (4.0 * np.pi)


def test_one_degree_early_breaks_the_bound():
    """At kappa R = 0.25 the tail of degree 4 is about 870 u: H stopped one
    degree early is off by hundreds of ulps, where the bound allows about 70."""
    cloud = compact_cloud()
    wave = wave_at(cloud, 0.25)
    L = degree_of(assemble(cloud, wave, "general"))
    assert im_error(cloud, wave, L - 1) > 3 * im_bound(0.25, L)


def test_product_matches_the_dense_product(monkeypatch):
    """Within 2 M u ||(|B| |x|)||_inf of np.asarray(B) @ x and of the strip
    path's product, for complex, real and constant x: both sides of each
    comparison sum the same terms in their own orders (Higham, ch. 3)."""
    cloud = compact_cloud(seed=3)
    wave = wave_at(cloud, 1.0)
    B = assemble(cloud, wave, "general").matrix
    strips = strip_path(monkeypatch, cloud, wave).matrix
    dense = np.asarray(B)
    rng = np.random.default_rng(5)
    for x in (rng.normal(size=M) + 1j * rng.normal(size=M), rng.normal(size=M), np.ones(M)):
        bound = 2 * M * U * np.max(np.abs(dense) @ np.abs(x))
        y = B @ x
        assert np.max(np.abs(y - dense @ x)) <= bound
        assert np.max(np.abs(y - strips @ x)) <= bound


def test_solutions_match_the_strip_path(monkeypatch):
    """The certified GMRES and, with mixed signs, the LU fallback, which
    factors np.asarray(B): the same charges to 1e-13 and the same path."""
    for mixed_signs in (False, True):
        cloud = compact_cloud(seed=1, mixed_signs=mixed_signs)
        wave = wave_at(cloud, 1.0)
        sol = solve(assemble(cloud, wave, "general"))
        ref = solve(strip_path(monkeypatch, cloud, wave))
        assert (sol.iterations is None) == mixed_signs == (ref.iterations is None)
        assert np.max(np.abs(sol.charges - ref.charges)) <= 1e-13 * np.max(np.abs(ref.charges))


def test_certificate_matches_the_dense_scan():
    B = assemble(compact_cloud(), wave_at(compact_cloud(), 2.0), "general").matrix
    frob, gamma = scan(np.asarray(B))
    assert B.frobenius_offdiag_real == pytest.approx(frob, rel=1e-13, abs=0)
    assert B.gamma == pytest.approx(gamma, rel=0, abs=1e-15)


def test_assemble_peak_is_matrix_plus_scratch(monkeypatch):
    """The real strips, H, each worker's one float buffer of one row
    sub-block (FILL_BLOCK entries), the scratch of one block of H (an
    eighth of its rows, at least STRIP_ROWS, by (L+1)^2 + 16 columns) and at
    most 256 KiB per worker besides."""
    cloud = compact_cloud()
    wave = wave_at(cloud, 1.0)
    blocks = row_blocks(M)
    for threads in THREADS:
        monkeypatch.setenv("FOLDYLAX_THREADS", str(threads))
        workers = min(threads, len(blocks))
        scratch = workers * 8 * foldy.FILL_BLOCK
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            system = assemble(cloud, wave, "general")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        K = system.matrix.factor.shape[1]
        block = foldy.FACTOR_SCRATCH * max(foldy.STRIP_ROWS, math.ceil(M / 8)) * (K + 16)
        assert peak <= system.matrix.nbytes + scratch + block + workers * 2**18, threads


@pytest.mark.parametrize("L", [0, 1, 2, 3, 7])
def test_factor_scratch_is_within_its_admission(L):
    """At M = 400, computing H peaks within the FACTOR_SCRATCH bytes per entry
    of one block that the matrix admits, the block counted (L+1)^2 + 16
    columns wide: at small L its per-row arrays outweigh its columns."""
    m, K = 400, (L + 1) ** 2
    centers = np.indices((8, 10, 5)).reshape(3, -1).T.astype(float)
    H = np.empty((m, K))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        foldy._fill_factor(H, *foldy._factor_frame(centers), 0.1, L)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= foldy.FACTOR_SCRATCH * min(m, foldy._factor_rows(m)) * (K + 16)


def test_certified_solve_peak_is_the_basis_plus_vectors(monkeypatch):
    """GMRES holds its basis of GMRES_RESTART + 1 vectors, read through views,
    the Hessenberg factor and at most 10 vectors of M besides: no conjugated
    (j+1) x M copy of the basis, which reaches 8 vectors in the 8 products here."""
    monkeypatch.setenv("FOLDYLAX_THREADS", "2")
    cloud = compact_cloud()
    system = assemble(cloud, wave_at(cloud, 1.0), "general")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sol = solve(system)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    vector = 16 * M
    basis = (foldy.GMRES_RESTART + 1) * vector + 16 * foldy.GMRES_RESTART**2
    assert sol.iterations == 8
    assert peak <= basis + 10 * vector
