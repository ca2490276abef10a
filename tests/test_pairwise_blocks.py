"""The row-blocked pairwise passes agree with the dense formulas they replace."""

import math
import tracemalloc

import numpy as np
import pytest

from foldylax import (CoincidentCenters, RegimeParams, ScattererCloud, assemble,
                      generate_grid_cloud, invertibility_report, solve)
from foldylax import foldy
from foldylax.geometry import PAIR_BLOCK, row_blocks

from conftest import make_wave

M = 700  # several row blocks, the last one partial


def mixed_radii_cloud(m=M, seed=0):
    """Jittered unit lattice with radii in [0.05, 0.3]: gaps stay positive."""
    rng = np.random.default_rng(seed)
    n = math.ceil(m ** (1 / 3))
    idx = np.indices((n, n, n)).reshape(3, -1).T[:m].astype(float)
    centers = idx + rng.uniform(-0.1, 0.1, size=(m, 3))
    return ScattererCloud(centers=centers, radii=rng.uniform(0.05, 0.3, size=m),
                          impedances=np.full(m, -1.0 + 0.2j))


def dense_distances(centers):
    return np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=-1)


def test_block_layout_is_exercised():
    blocks = list(row_blocks(M))
    rows = blocks[0][1] - blocks[0][0]
    assert len(blocks) >= 3 and M % rows != 0
    assert rows * M <= PAIR_BLOCK
    assert blocks[-1][1] == M
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))


def test_assemble_bit_identical_to_dense_formula():
    cloud = mixed_radii_cloud()
    wave = make_wave(kappa=1.3, theta=(1.0, 2.0, -0.5))
    system = assemble(cloud, wave, "general")
    dist = dense_distances(cloud.centers)
    off = ~np.eye(M, dtype=bool)
    ref = np.zeros((M, M), dtype=complex)
    ref[off] = -np.exp(1j * wave.kappa * dist[off]) / (4.0 * np.pi * dist[off])
    ref[np.diag_indices(M)] = -1.0 / system.coefficients
    assert np.array_equal(system.matrix, ref)


def test_d_eff_is_the_brute_force_minimum_for_mixed_radii():
    cloud = mixed_radii_cloud(seed=3)
    gap = dense_distances(cloud.centers) - cloud.radii[:, None] - cloud.radii[None, :]
    assert cloud.d_eff == np.min(gap[np.triu_indices(M, k=1)])


def test_coincident_centers_in_the_last_block_raise():
    cloud = mixed_radii_cloud()
    last_start = list(row_blocks(M))[-1][0]
    assert last_start <= M - 2
    centers = np.array(cloud.centers)
    centers[M - 1] = centers[M - 2]
    # construction refuses the overlap, so swap the centers in afterwards
    object.__setattr__(cloud, "centers", centers)
    with pytest.raises(CoincidentCenters):
        assemble(cloud, make_wave(), "general")


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


def test_peak_memory_is_matrix_plus_lu_copy():
    """assemble + report + solve stay within 2.3x the bytes of B (about 4x before)."""
    rg = RegimeParams(a=0.032, s=2.0, t=1.0, beta=0.0, lambda0=-0.5)
    cloud = generate_grid_cloud(rg, box_side=math.inf, jitter=0.3, seed=1)
    assert 950 <= cloud.M <= 1000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        system = assemble(cloud, make_wave(), "general")
        invertibility_report(system)
        solve(system)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * system.matrix.nbytes


def test_available_bytes_is_positive_or_unknown():
    available = foldy._available_bytes()
    assert available is None or available > 0
