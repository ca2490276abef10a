"""The row-blocked pairwise passes, the packed Foldy-Lax matrix and the cell
list agree with the dense formulas they replace, bit for bit and whatever the
number of worker threads."""

import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
# _checked_lu_solve imports scipy.linalg on first use; loading it here keeps
# the import's allocations out of every tracemalloc window below
import scipy.linalg  # noqa: F401

from foldylax import (RegimeParams, ScattererCloud, assemble, farfield, farfield_kernel,
                      fibonacci_sphere, generate_grid_cloud, invertibility_report, solve)
from foldylax import foldy, geometry
from foldylax._threads import thread_count
from foldylax.geometry import PAIR_BLOCK, row_blocks

from cloud_helpers import THREADS, assembled_per_thread_count, make_wave
from dense_reference import dense_distances, dense_formula, min_surface_distance, scan

M = 700  # several row blocks, the last one partial


def mixed_radii_cloud(m=M, seed=0):
    """Jittered unit lattice with radii in [0.05, 0.3]: gaps stay positive."""
    rng = np.random.default_rng(seed)
    n = math.ceil(m ** (1 / 3))
    idx = np.indices((n, n, n)).reshape(3, -1).T[:m].astype(float)
    centers = idx + rng.uniform(-0.1, 0.1, size=(m, 3))
    return ScattererCloud(centers=centers, radii=rng.uniform(0.05, 0.3, size=m),
                          impedances=np.full(m, -1.0 + 0.2j))


def test_block_layout_is_exercised():
    blocks = list(row_blocks(M))
    rows = blocks[0][1] - blocks[0][0]
    assert len(blocks) >= 3 and M % rows != 0
    assert rows * M <= PAIR_BLOCK
    assert blocks[-1][1] == M
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 5000), width=st.integers(1, 10**6),
       min_rows=st.sampled_from([None, 1, 2, 64]))
@example(n=129, width=10**6, min_rows=64)
@example(n=129, width=10**6, min_rows=None)
def test_row_blocks_tile_the_rows_and_merge_a_lone_last_row(n, width, min_rows):
    """In order and without gaps; every block but the last has the common row
    count, and the last is no lone row unless it is the only block. By
    default a block has at least two rows."""
    if min_rows is None:
        blocks, min_rows = row_blocks(n, width), 2
    else:
        blocks = row_blocks(n, width, min_rows)
    rows = max(min_rows, PAIR_BLOCK // width)
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    sizes = [i1 - i0 for i0, i1 in blocks]
    assert all(size == rows for size in sizes[:-1])
    assert 0 < sizes[-1] <= rows + 1 and (sizes[-1] > 1 or len(blocks) == 1)
    if min_rows >= 2:
        assert min(sizes) > 1 or n == 1


def strip_layout(B):
    return [(i0, S.shape) for i0, S in B.strips.items()]


MERGED = 321  # with PAIR_BLOCK = 2^14, strips of 64 rows and a lone last row


@pytest.mark.parametrize("kappa_r", [3.0, 0.25])  # the strip path, the factor path
def test_a_merged_last_strip_is_filled_like_the_others(monkeypatch, kappa_r):
    """The lone last row joins the strip before it, of 65 rows where the
    others have 64: the gamma mask and the fill scratch hold it, Re B is the
    dense formula bit for bit on both paths (all of B on the strip path), and
    the certificate matches the dense scan, for every worker count."""
    monkeypatch.setattr(geometry, "PAIR_BLOCK", 2**14)
    cloud = mixed_radii_cloud(MERGED, seed=9)
    radius = float(foldy._factor_frame(cloud.centers)[1].max())
    wave = make_wave(kappa=kappa_r / radius, theta=(1.0, 2.0, -0.5))
    ref = dense_formula(cloud, wave)
    frob, gamma = scan(ref)
    layout = [(i0, (64, MERGED - i0)) for i0 in range(0, 256, 64)] + [(256, (65, 65))]
    for threads, system in assembled_per_thread_count(monkeypatch, cloud, wave):
        B = system.matrix
        assert strip_layout(B) == layout, threads
        assert (B.factor is None) == (kappa_r > 1), threads
        dense = np.asarray(B)
        assert np.array_equal(dense.real, ref.real), threads
        if B.factor is None:  # the factor path's Im B is bounded in test_im_factor
            assert np.array_equal(dense.imag, ref.imag), threads
        assert B.frobenius_offdiag_real == pytest.approx(frob, rel=1e-13, abs=0)
        assert B.gamma == pytest.approx(gamma, rel=0, abs=1e-15)


def test_a_merged_last_strip_solves(monkeypatch):
    """The certified GMRES and, with mixed signs, the LU over strips whose
    last one has a row more than the others."""
    monkeypatch.setattr(geometry, "PAIR_BLOCK", 2**14)
    centers = mixed_radii_cloud(MERGED, seed=9).centers
    impedances = np.full(MERGED, -1.0 + 0.2j)
    for certified in (True, False):
        impedances[0] = -1.0 + 0.2j if certified else 1.0 + 0.2j
        cloud = ScattererCloud(centers=centers, radii=np.full(MERGED, 0.05),
                               impedances=impedances)
        sol = solve(assemble(cloud, make_wave(kappa=0.7), "general"))
        assert list(sol.system.matrix.strips)[-1] == 256
        assert (sol.iterations is not None) == certified
        assert sol.residual_inf <= 1e-10


def test_lu_equilibrates_a_merged_last_block(monkeypatch):
    """The LU's row scaling runs over row_blocks(n); at n = 313 its last block
    has 53 rows where the others have 52, and its buffer holds them."""
    monkeypatch.setattr(geometry, "PAIR_BLOCK", 2**14)
    n = 313
    sizes = [i1 - i0 for i0, i1 in row_blocks(n)]
    assert sizes[-1] == sizes[0] + 1 == 53
    rng = np.random.default_rng(12)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 4 * n**0.5 * np.eye(n)
    rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
    _, residual = foldy._checked_lu_solve(A, rhs, foldy.RESIDUAL_TOL)
    assert residual <= 1e-10


def test_assemble_bit_identical_to_dense_formula(monkeypatch):
    """The packed B densifies to the dense formula, in strips of row_blocks(M)
    (PAIR_BLOCK // M > STRIP_ROWS rows here), for every worker count."""
    cloud = mixed_radii_cloud()
    wave = make_wave(kappa=1.3, theta=(1.0, 2.0, -0.5))
    ref = dense_formula(cloud, wave)
    layout = [(i0, (i1 - i0, M - i0)) for i0, i1 in row_blocks(M)]
    for threads, system in assembled_per_thread_count(monkeypatch, cloud, wave):
        assert system.matrix.shape == (M, M)
        assert strip_layout(system.matrix) == layout, threads
        assert np.array_equal(np.asarray(system.matrix), ref), threads


def test_strip_layout_does_not_depend_on_thread_count(monkeypatch):
    """Where PAIR_BLOCK // M gives fewer, strips have STRIP_ROWS rows from the
    diagonal on, the last one partial: the same for every worker count."""
    monkeypatch.setattr(geometry, "PAIR_BLOCK", 2**14)
    rows = foldy.STRIP_ROWS
    assert geometry.PAIR_BLOCK // M < rows and M % rows != 0
    layout = [(i0, (min(rows, M - i0), M - i0)) for i0 in range(0, M, rows)]
    cloud, wave = mixed_radii_cloud(seed=2), make_wave(kappa=0.7)
    ref = dense_formula(cloud, wave)
    for threads, system in assembled_per_thread_count(monkeypatch, cloud, wave):
        B = system.matrix
        assert strip_layout(B) == layout, threads
        assert B.nbytes == 16 * sum(k * w for _, (k, w) in layout)
        assert np.array_equal(np.asarray(B), ref), threads
        assert np.array_equal(B.diagonal(), ref.diagonal())


def correctly_rounded_product(B, x):
    """B @ x with each row's sum of the rounded products B_ij x_j rounded once (fsum)."""
    x = np.asarray(x, dtype=complex)
    re = np.concatenate([B.real * x.real, -(B.imag * x.imag)], axis=1)
    im = np.concatenate([B.real * x.imag, B.imag * x.real], axis=1)
    return np.array([complex(math.fsum(a), math.fsum(b)) for a, b in zip(re, im)])


def test_packed_product_matches_the_dense_product(monkeypatch):
    """Assembled B against the dense formula: within 1e-15 ||(|B| |x|)||_inf
    over many strips, in both representations, and bit for bit over one.

    Complex strips hold the formula's bits, and their product is compared
    with numpy's dense one. Real strips with H (kappa R = 1) are compared
    with the correctly rounded product of the formula: numpy's dense product
    is itself up to 1.3e-15 ||(|B| |x|)||_inf off it there, the packed one
    below 0.5e-15."""
    rng = np.random.default_rng(11)
    cloud = mixed_radii_cloud(seed=4)
    xs = [rng.normal(size=M) + 1j * rng.normal(size=M), rng.normal(size=M), np.ones(M)]
    monkeypatch.setattr(geometry, "PAIR_BLOCK", 2**14)
    radius = float(foldy._factor_frame(cloud.centers)[1].max())
    for kappa in (1.6, 1.0 / radius):
        wave = make_wave(kappa=kappa)
        B = dense_formula(cloud, wave)
        packed = assemble(cloud, wave, "general").matrix
        assert len(packed.strips) == math.ceil(M / foldy.STRIP_ROWS)
        assert (packed.factor is None) == (kappa == 1.6)
        for x in xs:
            bound = 1e-15 * np.max(np.abs(B) @ np.abs(x))
            ref = B @ x if packed.factor is None else correctly_rounded_product(B, x)
            assert np.max(np.abs(packed @ x - ref)) <= bound
    small = ScattererCloud(centers=cloud.centers[:50], radii=cloud.radii[:50],
                           impedances=cloud.impedances[:50])
    wave = make_wave(kappa=1.6)
    packed, B = assemble(small, wave, "general").matrix, dense_formula(small, wave)
    assert len(packed.strips) == 1 and packed.factor is None
    for x in xs:
        assert (packed @ x[:50]).tobytes() == (B @ x[:50]).tobytes()


def test_d_eff_is_the_brute_force_minimum_for_mixed_radii(monkeypatch):
    cloud = mixed_radii_cloud(seed=3)
    gap = dense_distances(cloud.centers) - cloud.radii[:, None] - cloud.radii[None, :]
    for threads in THREADS:
        monkeypatch.setenv("FOLDYLAX_THREADS", str(threads))
        again = ScattererCloud(centers=cloud.centers, radii=cloud.radii,
                               impedances=cloud.impedances)
        assert again.d_eff == np.min(gap[np.triu_indices(M, k=1)]), threads


def d_eff_of(centers, radii):
    return geometry._min_surface_distance(np.asarray(centers, dtype=float),
                                          np.asarray(radii, dtype=float))


def test_cell_list_matches_brute_force_on_a_jittered_lattice():
    rg = RegimeParams(a=0.04, s=0.0, t=1.0, beta=0.0, M_max=1e4, lambda0=-0.5)
    cloud = generate_grid_cloud(rg, box_side=math.inf, jitter=0.3, seed=5)
    assert cloud.M == 10**4
    assert cloud.d_eff == min_surface_distance(cloud.centers, cloud.radii)


def test_cell_list_with_a_far_outlier_and_two_spheres():
    cloud = mixed_radii_cloud(seed=6)
    centers = np.array(cloud.centers)
    centers[M // 2] = (3e7, -1e6, 5e5)  # far from all: the cell keys stay small
    assert d_eff_of(centers, cloud.radii) == min_surface_distance(centers, cloud.radii)
    # the outlier is one of the closest two
    pair = np.array([[0.0, 0.0, 0.0], [4e6, 3e6, 0.0]])
    lattice = np.indices((4, 4, 4)).reshape(3, -1).T * 1e8
    both = np.concatenate([pair, lattice + 1e9])
    radii = np.full(len(both), 0.25)
    assert d_eff_of(both, radii) == min_surface_distance(both, radii) == 5e6 - 0.5
    two = [[0.1, 0.2, 0.3], [0.1 + 1 / 3, 0.2, 0.3 - 1 / 7]]
    assert d_eff_of(two, [0.01, 0.02]) == min_surface_distance(np.array(two),
                                                               np.array([0.01, 0.02]))
    assert d_eff_of([[1.0, 2.0, 3.0]], [0.5]) == math.inf


def test_cell_list_finds_the_pair_a_poor_bound_hides(monkeypatch):
    """Neighbours in lexicographic order are all far apart, so one cell holds
    every center; chunks smaller than that cell's pairs, and cells too fine
    for the key range, still give the exact minimum."""
    x = np.arange(200, dtype=float)
    centers = np.column_stack([x, np.where(x % 2 == 0, 0.0, 1e3), np.zeros(200)])
    centers[10, 0] += 0.5  # the closest pair: 10 and 12, 1.5 apart
    radii = np.full(200, 0.1)
    expected = min_surface_distance(centers, radii)
    assert expected == (1.5 - 0.1) - 0.1
    assert d_eff_of(centers, radii) == expected
    monkeypatch.setattr(geometry, "CELL_PAIRS", 7)
    assert d_eff_of(centers, radii) == expected
    cloud = mixed_radii_cloud(seed=8)
    expected = min_surface_distance(cloud.centers, cloud.radii)
    monkeypatch.setattr(geometry, "CELL_KEYS", 40)  # the side doubles to 2 cells a side
    assert d_eff_of(cloud.centers, cloud.radii) == expected


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 120),
       scale=st.sampled_from([1e-3, 1.0, 1e4]), spread=st.floats(0.0, 1.0),
       grid=st.sampled_from([None, 0.25, 1.0]))
def test_cell_list_is_the_brute_force_minimum(seed, m, scale, spread, grid):
    """Random clouds, some on a coarse grid (ties and equal coordinates), some
    with overlapping or coincident spheres: the same bits as all pairs."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-scale, scale, size=(m, 3))
    if grid is not None:
        centers = np.round(centers / (grid * scale)) * (grid * scale)
    radii = scale * 1e-2 * (1.0 + spread * rng.uniform(0.0, 9.0, size=m))
    assert d_eff_of(centers, radii) == min_surface_distance(centers, radii)


def test_validating_a_jittered_lattice_of_10_5_spheres_is_fast():
    rg = RegimeParams(a=0.04, s=0.0, t=1.0, beta=0.0, M_max=1e5, lambda0=-0.5)
    cloud = generate_grid_cloud(rg, box_side=math.inf, jitter=0.3, seed=2)
    start = time.perf_counter()
    again = ScattererCloud(centers=cloud.centers, radii=cloud.radii,
                           impedances=cloud.impedances, regime=rg)
    assert time.perf_counter() - start < 2.0
    assert again.d_eff == cloud.d_eff
    assert rg.d_min * rg.a <= cloud.d_eff <= rg.d_max * rg.a


def test_certificate_stats_do_not_depend_on_thread_count(monkeypatch):
    """Assembly's ||Re B_n||_F, gamma and q are the same bits for 1, 2 and 3
    workers, and the first two match the dense reference."""
    cloud, wave = mixed_radii_cloud(), make_wave(kappa=1.3)
    stats = []
    for _, system in assembled_per_thread_count(monkeypatch, cloud, wave):
        B = system.matrix
        stats.append((B.frobenius_offdiag_real, B.gamma, B.q))
    assert stats[1:] == stats[:-1]
    frob, gamma = scan(np.asarray(system.matrix))
    for fused_frob, fused_gamma, _ in stats:
        assert fused_frob == pytest.approx(frob, rel=1e-13, abs=0)
        assert fused_gamma == pytest.approx(gamma, rel=0, abs=1e-15)


def test_certificate_stats_of_small_systems():
    """One scatterer has no pairs; of two, only the first row has a j > i."""
    wave = make_wave(kappa=0.9)
    for centers in ([[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [0.3, 1.1, -0.4]]):
        cloud = ScattererCloud(centers=centers, radii=np.full(len(centers), 0.05),
                               impedances=np.full(len(centers), -1.0 + 0.5j))
        B = assemble(cloud, wave, "general").matrix
        frob, gamma = scan(np.asarray(B))
        assert B.frobenius_offdiag_real == pytest.approx(frob, rel=1e-15, abs=0)
        assert B.gamma == pytest.approx(gamma, abs=1e-15)


def test_assemble_peak_is_matrix_plus_scratch(monkeypatch):
    """No per-strip temporaries: the packed B, each worker's scratch (one float
    buffer of one row sub-block, FILL_BLOCK entries) and at most 256 KiB per
    worker besides."""
    cloud = mixed_radii_cloud()
    blocks = row_blocks(M)
    for threads in THREADS:
        monkeypatch.setenv("FOLDYLAX_THREADS", str(threads))
        workers = min(threads, len(blocks))
        scratch = workers * 8 * foldy.FILL_BLOCK
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            system = assemble(cloud, make_wave(), "general")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= system.matrix.nbytes + scratch + workers * 2**18, threads


def lattice_cloud(shape, seed=0):
    """A jittered unit lattice of spheres of radius 0.05."""
    rng = np.random.default_rng(seed)
    centers = np.indices(shape).reshape(3, -1).T.astype(float)
    return ScattererCloud(centers=centers + rng.uniform(-0.1, 0.1, size=centers.shape),
                          radii=np.full(len(centers), 0.05),
                          impedances=np.full(len(centers), -1.0 + 0.2j))


def test_fill_bits_do_not_depend_on_the_sub_block_size(monkeypatch):
    """B's strips, q and gamma are the same bits for FILL_BLOCK = 16, 300 and
    2^15, on 1 and 2 workers. M = 400 takes the factor path and M = 8 the
    complex strips. At 16 every row of M = 400 is wider than FILL_BLOCK, so
    each sub-block is one row, and the peak holds B, each worker's one row
    of max(FILL_BLOCK, M) floats and at most 256 KiB per worker besides."""
    cases = [(lattice_cloud((8, 10, 5)), make_wave(kappa=0.05, theta=(1.0, 2.0, -0.5))),
             (lattice_cloud((2, 2, 2)), make_wave(kappa=2.0, theta=(1.0, 2.0, -0.5)))]
    for cloud, wave in cases:
        m = cloud.M
        blocks = row_blocks(m, min_rows=foldy.STRIP_ROWS)
        seen = set()
        for fill_block in (1 << 15, 300, 16):
            monkeypatch.setattr(foldy, "FILL_BLOCK", fill_block)
            for threads in (1, 2):
                monkeypatch.setenv("FOLDYLAX_THREADS", str(threads))
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    B = assemble(cloud, wave, "general").matrix
                    peak = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
                assert (B.factor is None) == (m == 8)
                seen.add((tuple(S.tobytes() for S in B.strips.values()), B.q, B.gamma))
                if fill_block == 16:
                    workers = min(threads, len(blocks))
                    assert peak <= (B.nbytes + workers * 8 * max(fill_block, m)
                                    + workers * 2**18), (m, threads)
        assert len(seen) == 1, m


def solution_with(cloud, charges, wave):
    """A solution carrying given charges, for far-field tests that need no solve."""
    system = foldy.FoldyLaxSystem(matrix=None, rhs=None, coefficients=None, cloud=cloud,
                                  wave=wave)
    return foldy.FoldyLaxSolution(charges=charges, residual_inf=0.0, system=system,
                                  diagnostics=None)


def test_farfield_blocks_bit_identical_to_one_product():
    cloud = mixed_radii_cloud()
    wave = make_wave(kappa=1.3, theta=(1.0, 2.0, -0.5))
    rng = np.random.default_rng(4)
    sol = solution_with(cloud, rng.normal(size=M) + 1j * rng.normal(size=M), wave)
    rows = PAIR_BLOCK // (16 * M)  # directions per block
    # a partial last block, and a last block of one direction
    for n_dirs in (2 * rows + rows // 2, 2 * rows + 1, 1):
        xhat = fibonacci_sphere(n_dirs)
        ref = farfield_kernel(wave.kappa, xhat[:, None, :], cloud.centers[None]) @ sol.charges
        assert np.array_equal(farfield(sol, xhat).values, ref), n_dirs


def test_farfield_blocks_of_a_large_cloud_take_two_directions(monkeypatch):
    """Past M = 8192 a block of PAIR_BLOCK / (16 M) directions would hold a
    single one, which numpy would take as a dot product: blocks take two
    directions, a lone last one joins the block before it, no direction is
    evaluated twice, and the values are one product's bits."""
    n = 21  # 9261 centers
    centers = np.indices((n, n, n)).reshape(3, -1).T.astype(float)
    cloud = ScattererCloud(centers=centers, radii=np.full(n**3, 0.1),
                           impedances=np.full(n**3, -1.0 + 0.2j))
    assert PAIR_BLOCK // (16 * cloud.M) == 0
    wave = make_wave(kappa=1.3, theta=(1.0, 2.0, -0.5))
    rng = np.random.default_rng(6)
    sol = solution_with(cloud, rng.normal(size=cloud.M) + 1j * rng.normal(size=cloud.M), wave)
    xhat = fibonacci_sphere(5)
    ref = farfield_kernel(wave.kappa, xhat[:, None, :], cloud.centers[None]) @ sol.charges
    rows = []

    def counted(kappa, directions, z):
        rows.append(len(directions))
        return farfield_kernel(kappa, directions, z)

    monkeypatch.setattr(foldy, "farfield_kernel", counted)
    assert np.array_equal(farfield(sol, xhat).values, ref)
    assert rows == [2, 3]


def test_farfield_peak_memory_is_blocked():
    """M = 2500 and 200 directions: one block of PAIR_BLOCK // (16 M) = 3
    directions at a time, its kernel and exp's temporaries within 48 bytes per
    direction and center, where one (200, M, 3) product is 12 MB."""
    rg = RegimeParams(a=0.02, s=2.0, t=1.0, beta=0.0, lambda0=-0.5)
    cloud = generate_grid_cloud(rg, box_side=math.inf)
    assert cloud.M == 2500
    sol = solution_with(cloud, np.ones(cloud.M, dtype=complex), make_wave())
    xhat = fibonacci_sphere(200)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        farfield(sol, xhat)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    rows = PAIR_BLOCK // (16 * cloud.M)
    assert rows == 3 and peak < rows * cloud.M * 48


def test_thread_count_defaults_to_the_cpus_available(monkeypatch):
    monkeypatch.delenv("FOLDYLAX_THREADS", raising=False)
    assert thread_count() == len(os.sched_getaffinity(0))
    monkeypatch.setenv("FOLDYLAX_THREADS", "3")
    assert thread_count() == 3
    for bad in ("0", "-1", "two"):
        monkeypatch.setenv("FOLDYLAX_THREADS", bad)
        with pytest.raises(ValueError, match="FOLDYLAX_THREADS"):
            thread_count()


@pytest.mark.parametrize("raising, raised", [((1,), 1), ((0, 1), 0)],
                         ids=["worker 1", "workers 0 and 1"])
def test_row_block_pass_raises_a_workers_exception(monkeypatch, raising, raised):
    """A worker's exception is raised in the caller once every worker has
    stopped, worker 0's first, and no worker thread is left running."""
    monkeypatch.setenv("FOLDYLAX_THREADS", "2")
    started = threading.active_count()
    worker_1_ran = threading.Event()

    def body(i0, i1):  # two one-row blocks: worker w runs block (w, w + 1)
        if i0 == 1:
            worker_1_ran.set()
        else:
            assert worker_1_ran.wait(10)
        if i0 in raising:
            raise ValueError(i0)
        return i0

    with pytest.raises(ValueError) as info:
        geometry.row_block_pass(body, [(0, 1), (1, 2)])
    assert info.value.args == (raised,)
    assert threading.active_count() == started


def test_report_read_off_the_matrix_matches_distance_formulas():
    rg = RegimeParams(a=0.04, s=2.0, t=1.0, beta=0.0, lambda0=-0.5)
    cloud = generate_grid_cloud(rg, box_side=math.inf, jitter=0.3, seed=2)
    assert len(list(row_blocks(cloud.M))) >= 3
    wave = make_wave(kappa=1.7)
    rep = invertibility_report(assemble(cloud, wave, "general"))
    dist = dense_distances(cloud.centers)[~np.eye(cloud.M, dtype=bool)]
    cos = np.cos(wave.kappa * dist)
    frob = math.sqrt(math.fsum((cos / (4.0 * np.pi * dist)) ** 2))
    assert rep.frobenius_offdiag_real == pytest.approx(frob, rel=1e-12)
    assert rep.gamma == pytest.approx(float(np.min(cos)), abs=1e-14)


def peak_of_solving(cloud):
    """tracemalloc peak of assemble + report + solve, with the system and solution."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        system = assemble(cloud, make_wave(), "general")
        invertibility_report(system)
        sol = solve(system)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, system, sol


def dense_lattice_976():
    rg = RegimeParams(a=0.032, s=2.0, t=1.0, beta=0.0, lambda0=-0.5)
    cloud = generate_grid_cloud(rg, box_side=math.inf, jitter=0.3, seed=1)
    assert 950 <= cloud.M <= 1000
    return cloud


def test_peak_memory_of_certified_solve_is_matrix_plus_blocks(monkeypatch):
    """GMRES needs no dense copy: the packed B (0.57 of the 16 M^2 bytes of a
    dense B) and two workers' assembly scratch stay within 0.9 x 16 M^2."""
    monkeypatch.setenv("FOLDYLAX_THREADS", "2")  # the scratch grows with the workers
    peak, system, sol = peak_of_solving(dense_lattice_976())
    assert sol.iterations is not None
    assert peak <= 0.9 * 16 * system.cloud.M ** 2


def test_peak_memory_is_matrix_plus_lu_copy(monkeypatch):
    """The LU path (mixed signs) adds one dense copy and lu_factor's mask,
    17 M^2 bytes, to the packed B: within 1.7 x 16 M^2."""
    monkeypatch.setenv("FOLDYLAX_THREADS", "2")
    cloud = dense_lattice_976()
    imped = np.array(cloud.impedances)
    imped[0] = -imped[0]
    mixed = ScattererCloud(centers=cloud.centers, radii=cloud.radii,
                           impedances=imped, regime=cloud.regime)
    peak, system, sol = peak_of_solving(mixed)
    assert sol.iterations is None
    assert peak <= 1.7 * 16 * system.cloud.M ** 2


def test_available_bytes_is_positive_or_unknown():
    available = geometry._available_bytes()
    assert available is None or available > 0
