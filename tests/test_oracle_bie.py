"""Coupled boundary-integral solver vs brute-force quadrature oracles."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn, spherical_yn

from foldylax import (RegimeParams, ResonanceGuard, ScattererCloud, assemble_bie,
                      bie_farfield, generate_grid_cloud, solve_bie)
from foldylax import foldy, geometry, oracle
from foldylax.kernels import fibonacci_sphere
from foldylax.spherical import harmonic_matrix, n_coeffs, sphere_quadrature

from cloud_helpers import WatchedMatrix, make_cloud, make_wave
from dense_reference import bie_matrix, neumann_scan, phi
from quadrature_oracles import coupling_block


class TestSingleSphere:
    def test_matrix_is_diagonal(self, wave):
        cloud = make_cloud([[0, 0, 0]], 0.2, -1.0)
        system = assemble_bie(cloud, wave, L=6, quad_order=16)
        A = np.asarray(system.matrix)
        off = A - np.diag(np.diag(A))
        assert np.max(np.abs(off)) == 0.0

    def test_solution_matches_modal_division(self, wave):
        """Coefficients equal rhs / diagonal, rebuilt from raw special functions."""
        r, lam, L = 0.2, -1.5 + 0.3j, 6
        cloud = make_cloud([[0, 0, 0]], r, lam)
        sol = solve_bie(assemble_bie(cloud, wave, L=L, quad_order=16))
        kappa = wave.kappa
        z = kappa * r
        c = sol.coefficients[0]
        Yt = harmonic_matrix(L, wave.theta.reshape(1, 3))[0]
        for l in range(L + 1):
            j = spherical_jn(l, z)
            jp = spherical_jn(l, z, derivative=True)
            h = j + 1j * spherical_yn(l, z)
            hp = jp + 1j * spherical_yn(l, z, derivative=True)
            s_l = 1j * kappa * r * r * j * h
            dstar = 0.5 + 1j * kappa**2 * r * r * j * hp
            diag = (dstar - 0.5) + lam * s_l
            radial = -(4 * np.pi) * (1j**l) * (kappa * jp + lam * j)
            for m in range(-l, l + 1):
                idx = l * l + l + m
                expected = radial * np.conj(Yt[idx]) / diag
                assert c[idx] == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_translation_covariance(self, tilted_wave):
        v = np.array([0.4, -0.9, 0.6])
        dirs = sphere_quadrature(4).points
        kappa = tilted_wave.kappa
        s0 = solve_bie(assemble_bie(make_cloud([[0, 0, 0]], 0.1, -1.0),
                                    tilted_wave, L=8, quad_order=16))
        s1 = solve_bie(assemble_bie(make_cloud([v], 0.1, -1.0),
                                    tilted_wave, L=8, quad_order=16))
        g0 = bie_farfield(s0, dirs)
        g1 = bie_farfield(s1, dirs)
        phase = np.exp(1j * kappa * (float(tilted_wave.theta @ v) - dirs @ v))
        assert np.allclose(g1.values, g0.values * phase, rtol=1e-11)

    def test_resonance_guard_propagates(self, wave):
        limit = (4 * np.pi / 3) ** (1 / 3) * np.pi
        cloud = make_cloud([[0, 0, 0]], 0.51 * limit, -1.0)
        with pytest.raises(ResonanceGuard):
            assemble_bie(cloud, wave, L=4, quad_order=12)


class TestCouplingBlock:
    def test_against_brute_force_quadrature(self, tilted_wave):
        """One block column vs direct FD-normal-derivative quadrature."""
        kappa = tilted_wave.kappa
        L, order = 4, 20
        nc = n_coeffs(L)
        c1, c2 = np.array([0.0, 0.0, 0.0]), np.array([0.9, 0.2, -0.4])
        r1, r2 = 0.15, 0.1
        lam1 = -1.2 + 0.4j
        cloud = ScattererCloud(centers=np.stack([c1, c2]),
                               radii=np.array([r1, r2]),
                               impedances=np.array([lam1, -0.8 + 0j]))
        system = assemble_bie(cloud, tilted_wave, L=L, quad_order=order)
        block = np.asarray(system.matrix)[0:nc, nc:2 * nc]

        quad = sphere_quadrature(order)
        Y = harmonic_matrix(L, quad.points)
        li, mi = 2, 1
        idx = li * li + li + mi
        sigma = Y[:, idx]                      # density Y_21 on sphere 2

        def single_layer_at(x):
            acc = 0j
            for q in range(quad.size):
                y = c2 + r2 * quad.points[q]
                acc += quad.weights[q] * r2**2 * phi(kappa, x, y) * sigma[q]
            return acc

        h = 1e-5
        f = np.empty(quad.size, dtype=complex)
        for p in range(quad.size):
            nu = quad.points[p]
            x = c1 + r1 * nu
            dn = (single_layer_at(x + h * nu) - single_layer_at(x - h * nu)) / (2 * h)
            f[p] = dn + lam1 * single_layer_at(x)
        projected = Y.conj().T @ (quad.weights * f)
        assert np.allclose(block[:, idx], projected, atol=1e-7)

    @pytest.mark.parametrize("L", [4, 8, 12])
    @pytest.mark.parametrize("offset", [[0.0, 1.0, 0.0], [2.0, -1.5, 3.0]],
                             ids=["close", "far"])
    def test_addition_theorem_matches_quadrature(self, tilted_wave, L, offset):
        """Both cross blocks vs q = 40 product quadrature of the kernel.

        The close pair has a gap about one radius and kappa*d = 1, where
        h_{2L}(kappa d) ~ 1e18 would amplify any roundoff left in a Gaunt
        coefficient that should vanish."""
        nc = n_coeffs(L)
        centers = np.array([[0.0, 0.0, 0.0], offset])
        radii = np.array([0.35, 0.3])
        lams = np.array([-1.2 + 0.4j, -0.8 + 0.3j])
        cloud = ScattererCloud(centers=centers, radii=radii, impedances=lams)
        A = np.asarray(assemble_bie(cloud, tilted_wave, L=L).matrix)
        for m, j in ((0, 1), (1, 0)):
            exact = A[m * nc:(m + 1) * nc, j * nc:(j + 1) * nc]
            quad = coupling_block(tilted_wave.kappa, lams[m], centers[m], radii[m],
                                  centers[j], radii[j], L, 40)
            assert np.max(np.abs(exact - quad)) <= 1e-12 * np.max(np.abs(quad))

    def test_far_separation_decouples(self, wave):
        """Coupling correction decays like the inverse separation."""
        r, lam = 0.1, -1.0
        iso = solve_bie(assemble_bie(make_cloud([[0, 0, 0]], r, lam), wave,
                                     L=6, quad_order=16)).coefficients[0]
        gaps = []
        for d in (25.0, 50.0):
            cloud = make_cloud([[0, 0, 0], [d, 0, 0]], r, lam)
            sol = solve_bie(assemble_bie(cloud, wave, L=6, quad_order=16))
            gaps.append(np.max(np.abs(sol.coefficients[0] - iso)))
        scale = np.max(np.abs(iso))
        assert gaps[1] < 1e-2 * scale
        assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.25)


class TestCoupledSolve:
    def test_mirror_symmetry(self):
        """z-mirrored pair under an in-plane wave: c2_lm = (-1)^(l+m) c1_lm."""
        wave = make_wave(kappa=1.0, theta=(1.0, 0.0, 0.0))
        c = 0.4
        cloud = make_cloud([[0, 0, -c], [0, 0, c]], 0.1, -1.0 + 0.5j)
        sol = solve_bie(assemble_bie(cloud, wave, L=8, quad_order=20))
        c1, c2 = sol.coefficients
        L = sol.system.L
        for l in range(L + 1):
            for m in range(-l, l + 1):
                idx = l * l + l + m
                assert c2[idx] == pytest.approx((-1.0) ** (l + m) * c1[idx],
                                                rel=1e-10, abs=1e-13)

    def test_residual_reported(self, wave):
        cloud = make_cloud([[0, 0, 0], [0.6, 0, 0], [0.1, 0.7, 0.2]], 0.05, -1.0)
        sol = solve_bie(assemble_bie(cloud, wave, L=6, quad_order=16))
        assert sol.residual_inf <= 1e-9

    def test_truncation_and_quadrature_converged(self, tilted_wave):
        cloud = make_cloud([[0, 0, 0], [0.5, 0.1, 0.0]], 0.05, -1.0)
        dirs = sphere_quadrature(4).points
        base = bie_farfield(solve_bie(assemble_bie(cloud, tilted_wave,
                                                   L=8, quad_order=24)), dirs)
        finer_l = bie_farfield(solve_bie(assemble_bie(cloud, tilted_wave,
                                                      L=12, quad_order=24)), dirs)
        finer_q = bie_farfield(solve_bie(assemble_bie(cloud, tilted_wave,
                                                      L=8, quad_order=32)), dirs)
        assert np.max(np.abs(base.values - finer_l.values)) <= 1e-9
        assert np.max(np.abs(base.values - finer_q.values)) <= 1e-9

    def test_absorbing_warns_on_negative_im(self, wave):
        cloud = make_cloud([[0, 0, 0], [0.8, 0, 0]], 0.05, -1.0 - 0.5j)
        with pytest.warns(UserWarning, match="Im"):
            assemble_bie(cloud, wave, L=4, quad_order=12)

    def test_requires_spheres(self, wave):
        cloud = make_cloud([[0, 0, 0]], 0.1, -1.0, areas=np.array([0.1]))
        with pytest.raises(ValueError):
            assemble_bie(cloud, wave, L=4, quad_order=12)


def clear_per_degree_caches():
    oracle._coaxial_table.cache_clear()
    oracle._rotation_factor.cache_clear()


def traced_peak(fn, *args, **kwargs):
    """(result, tracemalloc peak of fn) with the Gaunt table and Delta built afresh."""
    oracle._coaxial_table(2)  # first-use imports land outside the window
    oracle._rotation_factor(2)
    clear_per_degree_caches()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        clear_per_degree_caches()
    return out, peak


class TestMemoryGuard:
    """The bytes assemble_bie asks of the memory guard cover what it allocates."""

    @pytest.mark.parametrize("L", [6, 12, 20])
    def test_table_bound_exceeds_its_peak(self, L):
        """The Gaunt table and Delta: the workspace of M = 1, which has no pairs."""
        _, peak = traced_peak(lambda: (oracle._coaxial_table(L), oracle._rotation_factor(L)))
        assert peak <= oracle._admitted_bytes(1, L)[1]

    @pytest.mark.parametrize("m, L", [(2, 6), (2, 12), (2, 20), (8, 12), (20, 6)])
    def test_assembly_peak_within_matrix_and_coupling(self, wave, m, L):
        """The tracemalloc peak of assemble_bie stays within the bytes it admits."""
        n = math.ceil(m ** (1 / 3))
        centers = 0.3 * np.array([(i, j, k) for i in range(n) for j in range(n)
                                  for k in range(n)][:m], dtype=float)
        cloud = make_cloud(centers, 0.04, -1.0)
        system, peak = traced_peak(assemble_bie, cloud, wave, L=L)
        operator, workspace = oracle._admitted_bytes(m, L)
        assert system.matrix.nbytes <= operator
        assert peak <= operator + workspace


class TestFarField:
    def test_matches_direct_surface_integral(self, tilted_wave):
        """Uinf(xhat) = sum_m int_{dD_m} e^{-i kappa xhat.y} sigma_m(y) dS."""
        kappa = tilted_wave.kappa
        cloud = make_cloud([[0, 0, 0], [0.7, -0.2, 0.3]], 0.08, -1.1 + 0.2j)
        L, order = 8, 24
        sol = solve_bie(assemble_bie(cloud, tilted_wave, L=L, quad_order=order))
        dirs = sphere_quadrature(3).points
        grid = bie_farfield(sol, dirs)
        quad = sphere_quadrature(order)
        Y = harmonic_matrix(L, quad.points)
        for i, xhat in enumerate(dirs):
            acc = 0j
            for r, center, c in zip(cloud.radii, cloud.centers, sol.coefficients):
                vals = Y @ c
                ys = center + r * quad.points
                acc += np.sum(quad.weights * r**2
                              * np.exp(-1j * kappa * ys @ xhat) * vals)
            assert grid.values[i] == pytest.approx(acc, rel=1e-11)

    def test_blocks_bit_identical_to_one_product(self, tilted_wave, monkeypatch):
        """Blocks of directions give the bits of one block holding the whole
        grid, a lone last direction included."""
        cloud = make_cloud([[0, 0, 0], [0.7, -0.2, 0.3], [-0.4, 0.5, 0.1]], 0.08, -1.1 + 0.2j)
        L = 4
        sol = solve_bie(assemble_bie(cloud, tilted_wave, L=L))
        rows = geometry.PAIR_BLOCK // (n_coeffs(L) + cloud.M)  # directions per block
        grids = [fibonacci_sphere(n) for n in (2 * rows + rows // 2, 2 * rows + 1, 1)]
        blocked = [bie_farfield(sol, dirs).values for dirs in grids]
        monkeypatch.setattr(geometry, "PAIR_BLOCK", 1 << 40)
        for dirs, values in zip(grids, blocked):
            assert len(geometry.row_blocks(len(dirs), n_coeffs(L) + cloud.M)) == 1
            assert np.array_equal(values, bie_farfield(sol, dirs).values), len(dirs)

    def test_grid_tagged_with_wave(self, wave):
        cloud = make_cloud([[0, 0, 0]], 0.1, -1.0)
        sol = solve_bie(assemble_bie(cloud, wave, L=4, quad_order=12))
        grid = bie_farfield(sol, np.array([[0.0, 0.0, 1.0]]))
        assert grid.wave is wave


def grid_spheres(a, m_max, seed):
    """The spherical clouds of the compare and sweep benchmark workloads."""
    regime = RegimeParams(a=a, s=1.0, t=1.0, beta=0.0, M_max=m_max, lambda0=-1.0)
    return generate_grid_cloud(regime, box_side=math.inf, jitter=0.3, seed=seed)


def test_incident_phases_are_the_foldy_lax_rhs():
    """The BIE's incident data take their phases e^{i kappa z_m.theta} from
    the Foldy-Lax right-hand side, bit for bit: on the compare workload's
    seed-1 cloud at theta = (0.6, 0, 0.8) the product centers @ theta rounds
    one phase differently."""
    cloud, wave = grid_spheres(0.04, 0.32, 1), make_wave(theta=(0.6, 0.0, 0.8))
    phase = foldy.assemble(cloud, wave).rhs
    assert np.any(np.exp(1j * wave.kappa * (cloud.centers @ wave.theta)) != phase)
    L = 3
    radial = np.linspace(0.5, 2.0, cloud.M * (L + 1)).reshape(cloud.M, L + 1)
    scale = oracle._per_degree(4.0 * np.pi * (1j ** np.arange(L + 1)) * radial, L)
    Yt = harmonic_matrix(L, wave.theta.reshape(1, 3))[0]
    assert np.array_equal(oracle._incident_coeffs(wave, cloud.centers, radial, L),
                          -phase[:, None] * scale * np.conj(Yt))


def near_touching_pair():
    """Two spheres 0.002 apart at L = 8: q = ||C D^-1||_F = 1.28."""
    cloud = make_cloud([[0, 0, 0], [0.202, 0, 0]], 0.1, -1.0)
    return assemble_bie(cloud, make_wave(), L=8)


class TestCertifiedSolve:
    @pytest.mark.parametrize("a, m_max, L", [(0.04, 0.32, 12), (0.04, 0.2, 6),
                                             (0.02, 0.2, 6), (0.01, 0.2, 6)])
    @pytest.mark.parametrize("seed", [1, 4])
    def test_gmres_matches_lu(self, a, m_max, L, seed):
        system = assemble_bie(grid_spheres(a, m_max, seed), make_wave(), L=L)
        assert system.matrix.q < 0.5
        sol = solve_bie(system)
        assert sol.iterations is not None and sol.iterations <= 10
        x = sol.coefficients.reshape(-1)
        ref, _ = foldy._checked_lu_solve(system.matrix, system.rhs, oracle.BIE_RESIDUAL_TOL)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        dirs = sphere_quadrature(6).points
        lu = oracle.BieSolution(coefficients=ref.reshape(sol.coefficients.shape),
                                residual_inf=0.0, system=system)
        far, far_lu = bie_farfield(sol, dirs).values, bie_farfield(lu, dirs).values
        assert np.max(np.abs(far - far_lu)) <= 1e-12 * np.max(np.abs(far_lu))

    def test_q_at_least_one_takes_the_lu_path(self, monkeypatch):
        """The LU scales the rows of its own dense copy: no caller passes a scale."""
        system = near_touching_pair()
        assert system.matrix.q >= 1.0
        scales = []
        checked_lu_solve = foldy._checked_lu_solve

        def recorded(A, rhs, residual_tol, scale=None):
            scales.append(scale)
            return checked_lu_solve(A, rhs, residual_tol)

        monkeypatch.setattr(foldy, "_checked_lu_solve", recorded)
        sol = solve_bie(system)
        assert sol.iterations is None and sol.residual_inf <= oracle.BIE_RESIDUAL_TOL
        assert scales == [None]

    def test_iteration_cap_takes_the_lu_path(self, monkeypatch):
        system = assemble_bie(grid_spheres(0.02, 0.2, 1), make_wave(), L=6)
        certified = solve_bie(system)
        monkeypatch.setattr(foldy, "GMRES_MAXITER", 3)
        capped = solve_bie(system)
        assert certified.iterations > 3 and capped.iterations is None
        x, ref = (sol.coefficients.reshape(-1) for sol in (certified, capped))
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_q_is_the_frobenius_norm_of_c_over_d(self):
        """q from the coaxial blocks against the dense formula."""
        system = assemble_bie(grid_spheres(0.01, 0.2, 2), make_wave(), L=6)
        A = np.asarray(system.matrix)
        d = A.diagonal()
        C = A - np.diag(d)
        assert system.matrix.q == pytest.approx(np.linalg.norm(C / d[None, :]), rel=1e-12)

    @pytest.mark.parametrize("kappa", [1e-5, 1e-10])
    def test_small_kappa_keeps_q_finite(self, kappa):
        """compare_bie's cloud at small kappa: Coax grows like (kappa d)^-(l+l'+1),
        so each entry is scaled before it is squared. q matches the dense
        ||C D^-1||_F and certifies, with no overflow warning."""
        cloud = grid_spheres(0.04, 0.32, 1)
        system = assemble_bie(cloud, make_wave(kappa=kappa), L=12)
        q, _ = neumann_scan(bie_matrix(cloud, make_wave(kappa=kappa), 12))
        assert system.matrix.q == pytest.approx(q, rel=1e-12)
        sol = solve_bie(system)
        assert sol.iterations is not None and sol.iterations <= 10

    def test_certified_solve_never_densifies(self, monkeypatch):
        """compare_bie's cloud: GMRES reads A only through products and its diagonal."""
        system = assemble_bie(grid_spheres(0.04, 0.32, 1), make_wave(), L=12)
        reference = solve_bie(system)
        watched = dataclasses.replace(system, matrix=WatchedMatrix(system.matrix))
        monkeypatch.setattr(foldy, "_checked_lu_solve", None)
        monkeypatch.setattr(WatchedMatrix, "products", 0)
        sol = solve_bie(watched)
        assert sol.iterations == reference.iterations <= 10
        assert WatchedMatrix.products > sol.iterations  # and one residual per restart
        assert np.array_equal(sol.coefficients, reference.coefficients)


def assert_subblocks_close(A, ref, M, L, rtol):
    """Each (l, l') sub-block of each sphere block within rtol of its largest
    reference entry; a sub-block that is zero in ref must be zero in A."""
    starts = np.arange(M)[:, None] * n_coeffs(L) + np.arange(L + 1) ** 2
    starts = starts.reshape(-1)

    def block_max(X):
        X = np.maximum.reduceat(np.abs(X), starts, axis=0)
        return np.maximum.reduceat(X, starts, axis=1)

    err, scale = block_max(A - ref), block_max(ref)
    assert np.all(err <= rtol * scale), float(np.max(err / np.where(scale > 0, scale, 1)))


class TestPackedStore:
    """The coaxial blocks and phases against the dense A of dense_reference.bie_matrix."""

    @staticmethod
    def cloud(m):
        rng = np.random.default_rng(m)
        n = math.ceil(m ** (1 / 3))
        lattice = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)][:m]
        centers = 0.3 * np.array(lattice, dtype=float) + rng.uniform(-0.03, 0.03, (m, 3))
        impedances = rng.uniform(-2.0, -0.5, m) + 1j * rng.uniform(0.0, 0.5, m)
        return ScattererCloud(centers=centers, radii=rng.uniform(0.03, 0.05, m),
                              impedances=impedances)

    @pytest.mark.parametrize("m, L, block", [(1, 12, None), (2, 12, None), (8, 12, None),
                                             (20, 6, None), (12, 3, 5)],
                             ids=["1-12", "2-12", "8-12", "20-6", "12-3-split"])
    def test_matches_the_dense_matrix(self, tilted_wave, monkeypatch, m, L, block):
        """block pairs a block, where given: the 11 pairs of gap 1 then span
        three blocks, and the third also starts gap 2."""
        cloud = self.cloud(m)
        if block:
            coaxial = (L + 1) * (L + 2) * (2 * L + 3) // 6
            monkeypatch.setattr(geometry, "PAIR_BLOCK", block * (coaxial + 1))
        system = assemble_bie(cloud, tilted_wave, L=L)
        A = bie_matrix(cloud, tilted_wave, L)
        operator = system.matrix
        if block:  # 66 pairs, the lone last one joining the block before it
            assert [p1 - p0 for p0, p1, _ in operator._blocks] == [5] * 12 + [6]
        dense = np.asarray(operator)
        assert operator.shape == A.shape and dense.dtype == A.dtype
        assert_subblocks_close(dense, A, m, L, 1e-12)
        assert np.array_equal(operator.diagonal(), A.diagonal())
        # per pair: the (l, l', |m|) coaxial entries, a zero pad and two phase rows
        coaxial = (L + 1) * (L + 2) * (2 * L + 3) // 6
        pairs, nc = m * (m - 1) // 2, n_coeffs(L)
        assert operator.nbytes == 16 * pairs * (coaxial + 1 + 2 * (2 * L + 1)) + 16 * m * nc
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = rng.standard_normal(len(A)) + 1j * rng.standard_normal(len(A))
            y = A @ x
            assert np.linalg.norm(operator @ x - y) <= 1e-14 * np.linalg.norm(y)
        q, _ = neumann_scan(A)
        assert system.matrix.q == pytest.approx(q, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("a, m_max, L", [(0.01, 0.2, 6), (0.04, 0.32, 12)])
    def test_product_allocates_order_n(self, monkeypatch, a, m_max, L):
        """sweep_rate's M = 20 at L = 6 and compare_bie's cloud: a product
        allocates at most 8 vectors of length N, since its work buffers come
        with the operator, and it leaves numpy's ufunc buffer size as it was,
        also where it raises."""
        A = assemble_bie(grid_spheres(a, m_max, 1), make_wave(), L=L).matrix
        x = np.exp(0.37j * np.arange(A.shape[0]))
        A @ x  # first-use allocations land outside the window
        bufsize = np.getbufsize()
        tracemalloc.start()
        try:
            A @ x
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8 * A.shape[0]
        assert np.getbufsize() == bufsize

        def translate(*args):
            assert np.getbufsize() == oracle.UFUNC_BUFSIZE
            raise ValueError("translate")

        monkeypatch.setattr(A, "_translate", translate)
        with pytest.raises(ValueError, match="translate"):
            A @ x
        assert np.getbufsize() == bufsize

    def test_solve_allocates_order_n_beyond_the_store(self):
        """compare_bie's cloud: the certified solve holds GMRES's Krylov basis
        of GMRES_RESTART + 1 vectors of length N, at most 24 more, and the
        work arrays of one block of pairs that assembly admits; nothing of
        size N^2."""
        system = assemble_bie(grid_spheres(0.04, 0.32, 1), make_wave(), L=12)
        solve_bie(system)  # first-use allocations land outside the window
        sol, peak = traced_peak(solve_bie, system)
        N = system.matrix.shape[0]
        bound = 16 * N * (foldy.GMRES_RESTART + 1 + 24) + oracle._admitted_bytes(8, 12)[1]
        assert sol.iterations is not None
        assert peak <= bound < 16 * N * N / 2


def exact_delta(l):
    """d^l(pi/2) from Wigner's sum in exact rational arithmetic, rounded once."""
    f = math.factorial
    out = np.empty((2 * l + 1, 2 * l + 1))
    for i, mp in enumerate(range(-l, l + 1)):
        for j, m in enumerate(range(-l, l + 1)):
            total = sum(Fraction((-1) ** (k - m + mp),
                                 f(l + m - k) * f(k) * f(l - k - mp) * f(k - m + mp))
                        for k in range(max(0, m - mp), min(l + m, l - mp) + 1))
            square = total * total * f(l + mp) * f(l - mp) * f(l + m) * f(l - m) / 4**l
            out[i, j] = math.copysign(math.sqrt(square), total)
    return out


class TestRotation:
    def test_delta_is_wigner_d_at_half_pi(self):
        L = 12
        delta = oracle._rotation_factor(L)
        for l in range(L + 1):
            block = delta[l, L - l:L + l + 1, L - l:L + l + 1]
            assert np.max(np.abs(block - exact_delta(l))) <= 1e-14
            outside = delta[l].copy()
            outside[L - l:L + l + 1, L - l:L + l + 1] = 0.0
            assert not outside.any()  # exactly block-diagonal: no leak across degrees

    @pytest.mark.parametrize("L", [1, 12, 40])
    def test_delta_is_orthogonal(self, L):
        delta = oracle._rotation_factor(L)
        for l in range(L + 1):
            block = delta[l, L - l:L + l + 1, L - l:L + l + 1]
            assert np.max(np.abs(block @ block.T - np.eye(2 * l + 1))) <= 1e-14


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


directions = st.one_of(
    st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]),
    st.floats(0.0, 2 * math.pi).map(lambda phi: (math.cos(phi), math.sin(phi), 0.0)),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1))


@settings(max_examples=40, deadline=None)
@given(dhat=directions, dist=st.floats(0.5, 3.0), kappa=st.floats(0.3, 2.0),
       radii=st.tuples(st.floats(0.05, 0.2), st.floats(0.05, 0.2)),
       L=st.sampled_from([0, 1, 6, 12]))
@example(dhat=(0.0, 5.960464477539063e-08, 0.75), dist=3.0, kappa=1.0,
         radii=(0.125, 0.125), L=1)  # a tilt of 8e-8: arccos(z) put theta off by 1e-9
def test_rotated_coaxial_blocks_match_the_table(dhat, dist, kappa, radii, L):
    """Both scaled blocks t_m (S|R) o_j of a pair against the full Gaunt
    table, per (l, l') sub-block: Coax entries span many decades, so a
    sub-block is compared with its own largest entry."""
    centers = np.array([dist * unit(dhat), [0.0, 0.0, 0.0]])
    cloud = ScattererCloud(centers=centers, radii=np.array(radii),
                           impedances=np.array([-1.2 + 0.3j, -0.7 + 0.1j]))
    wave = make_wave(kappa=kappa, theta=(0.3, -0.4, 1.0))
    A = np.asarray(assemble_bie(cloud, wave, L=L).matrix)
    assert_subblocks_close(A, bie_matrix(cloud, wave, L), 2, L, 1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6), L=st.integers(1, 4),
       radius=st.floats(0.05, 0.3), kappa=st.floats(0.2, 3.0))
def test_neumann_certificate_bounds_the_smallest_singular_value(seed, m, L, radius, kappa):
    """Wherever q < 1, sigma_min(A D^-1) >= 1 - q."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.2, size=(m, 3))
    gaps = np.linalg.norm(centers[:, None] - centers[None], axis=-1)[np.triu_indices(m, 1)]
    assume(np.min(gaps) > 2.05 * radius)
    assume(kappa * 2 * radius < oracle.RESONANCE_DIAMETER_LIMIT)
    impedances = rng.uniform(-4.0, 4.0, m) + 1j * rng.uniform(0.0, 2.0, m)
    cloud = ScattererCloud(centers=centers, radii=np.full(m, radius), impedances=impedances)
    system = assemble_bie(cloud, make_wave(kappa=kappa), L=L)
    q = system.matrix.q
    if q < 1:
        A = np.asarray(system.matrix)
        sigma = np.linalg.svd(A / A.diagonal()[None, :], compute_uv=False)[-1]
        assert sigma >= (1 - q) * (1 - 1e-12)
