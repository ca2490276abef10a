import cmath
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foldylax import (FarFieldGrid, MissingRegime, NonUnitDirection,
                      RegimeParams, RegimeViolation, ScattererCloud,
                      SingularSystem, SphericalPole, ZeroImpedance, assemble,
                      assemble_bie, bie_farfield, farfield,
                      generate_grid_cloud, invertibility_report, mie_reference,
                      solve, solve_bie)
from foldylax import foldy, oracle
from foldylax.kernels import fibonacci_sphere

from cloud_helpers import charge_bound_check, make_cloud, make_wave, run_python
from dense_reference import DenseMatrix, phi


def one_coefficient(lam, variant, radius, area=math.nan) -> complex:
    """foldy._coefficients on one obstacle."""
    return foldy._coefficients(np.array([lam], dtype=complex), foldy.Variant(variant),
                               np.array([radius]), np.array([area]))[0]


class TestCoefficient:
    def test_general_reference(self):
        # C = -lambda * |dD|; unit sphere, lambda = -1: C = 4 pi
        cloud = make_cloud([[0, 0, 0]], 1.0, -1.0)
        c = one_coefficient(-1.0, "general", 1.0, cloud.areas[0])
        assert c == pytest.approx(4 * np.pi)

    def test_general_uses_area_directly(self):
        c = one_coefficient(2.0, "general", 0.1, 0.7)
        assert c == pytest.approx(-1.4)

    def test_spherical_reference(self):
        # C = lambda*4*pi*r^2/(-1+lambda*r); lambda=-1, r=1: 2 pi
        c = one_coefficient(-1.0, "spherical", 1.0)
        assert c == pytest.approx(2 * np.pi)

    def test_variants_agree_as_radius_shrinks(self):
        lam = -2.0 + 0.5j
        vals = []
        for r in (1e-3, 1e-6):
            cloud = make_cloud([[0, 0, 0]], r, lam)
            g, s = (foldy._coefficients(cloud.impedances, foldy.Variant(variant), cloud.radii,
                                        cloud.areas)[0] for variant in ("general", "spherical"))
            vals.append(abs(g - s) / abs(g))
        # relative gap is O(lambda r) and shrinks with it
        assert vals[0] < 3e-3
        assert vals[1] < 3e-6

    def test_spherical_pole(self):
        with pytest.raises(SphericalPole):
            one_coefficient(2.0, "spherical", 0.5)
        with pytest.raises(SphericalPole):
            one_coefficient(2.0 + 1e-14j, "spherical", 0.5)

    def test_zero_impedance(self):
        for variant in ("general", "spherical"):
            with pytest.raises(ZeroImpedance):
                one_coefficient(0.0, variant, 0.1, 4 * np.pi * 0.01)

    @pytest.mark.parametrize("lam", [1e-310, -1e-310, 1e-320])
    def test_coefficient_without_finite_reciprocal(self, lam):
        """C_m is finite and nonzero, but B's diagonal entry -1/C_m would overflow."""
        area = 4.0 * math.pi * 0.025**2
        c = -lam * area
        assert c != 0 and math.isinf(abs(-1.0 / c))
        with pytest.raises(ZeroImpedance):
            one_coefficient(lam, "general", 0.025, area)


def python_coefficient(lam: complex, variant: str, radius: float, area: float) -> complex:
    """C_m in Python's own complex arithmetic, one obstacle at a time."""
    if variant == "spherical":
        return lam * (4.0 * np.pi * radius**2) / (-1.0 + lam * radius)
    return -lam * area


def random_obstacles(rng, n):
    """Impedances with zero, negative-zero and tiny parts among them."""
    parts = rng.normal(size=(2, n)) * 10.0 ** rng.uniform(-3, 3, size=(2, n))
    parts[0, ::7], parts[1, 1::7], parts[1, 2::7] = 0.0, 0.0, -0.0
    return parts[0] + 1j * parts[1], rng.uniform(1e-4, 0.3, n), rng.uniform(1e-6, 1.0, n)


@pytest.mark.parametrize("variant", ["general", "spherical"])
def test_coefficients_match_python_complex_arithmetic(variant):
    """numpy divides complex numbers by a reciprocal and squares by r*r;
    Python uses Smith's method and libm's pow. The vector form is Python's."""
    lam, radii, areas = random_obstacles(np.random.default_rng(7), 4000)
    lam[0] = 1.0 / radii[0] + 1j  # near a pole, but clear of it
    values = foldy._coefficients(lam, foldy.Variant(variant), radii, areas)
    ref = np.array([python_coefficient(complex(l), variant, float(r), float(a))
                    for l, r, a in zip(lam, radii, areas)])
    assert np.array_equal(values.view(np.uint64), ref.view(np.uint64))


def test_assemble_raises_what_coefficient_raises_for_the_first_failure(wave):
    """Obstacles 1 and 3 both fail, with different messages: obstacle 1 decides."""
    centers = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]]
    for variant, imped, areas in [
            ("spherical", [-1.0, 20.0, 1e300, 20.0 + 1e-14j], None),  # -1 + 20 * 0.05 = 0
            ("general", [-1.0, 1e300, 20.0, 1e300 + 1e300j], [0.1, 1e10, 0.1, 1e10])]:
        area = areas or [math.nan] * 4
        with pytest.raises((SphericalPole, ZeroImpedance)) as first:
            one_coefficient(imped[1], variant, 0.05, area[1])
        with pytest.raises((SphericalPole, ZeroImpedance)) as last:
            one_coefficient(imped[3], variant, 0.05, area[3])
        assert str(first.value) != str(last.value)
        cloud = make_cloud(centers, 0.05, imped, areas=areas and np.array(areas))
        with pytest.raises(type(first.value), match=re.escape(str(first.value))):
            assemble(cloud, wave, variant)


class TestAssemble:
    def test_single_sphere_closed_form(self, wave):
        # M = 1: Q = -C * e^{i kappa theta.z}
        z = np.array([0.2, -0.4, 0.7])
        cloud = make_cloud([z], 0.05, -1.0)
        for variant in ("general", "spherical"):
            sol = solve(assemble(cloud, wave, variant))
            C = sol.system.coefficients[0]
            expected = -C * cmath.exp(1j * wave.kappa * float(wave.theta @ z))
            assert sol.charges[0] == pytest.approx(expected, rel=1e-14)

    def test_two_spheres_match_independent_cramer(self):
        """Freeze one symmetric M = 2 case against hand Cramer values."""
        wave = make_wave(kappa=1.0, theta=(0.0, 0.0, 1.0))
        cloud = make_cloud([[0, 0, 0], [1.5, 0, 0]], 0.05, -1.0)
        sol = solve(assemble(cloud, wave, "spherical"))
        golden = -0.029916495982131679 + 4.7362229345028698e-05j
        assert sol.charges[0] == pytest.approx(golden, rel=1e-13)
        assert sol.charges[1] == pytest.approx(golden, rel=1e-13)
        sol_g = solve(assemble(cloud, wave, "general"))
        golden_g = -0.031412136382428124 + 5.2216258213345511e-05j
        assert sol_g.charges[0] == pytest.approx(golden_g, rel=1e-13)

    def test_two_spheres_general_cramer_oracle(self, tilted_wave):
        """Asymmetric M = 2 vs Cramer's rule built from scratch."""
        wave = tilted_wave
        z = [np.array([0.1, 0.2, -0.3]), np.array([-0.9, 0.4, 0.8])]
        lams = [-1.5 + 0.2j, -0.7 + 0.1j]
        r = 0.04
        cloud = ScattererCloud(centers=np.array(z), radii=np.full(2, r),
                               impedances=np.array(lams, dtype=complex))
        sol = solve(assemble(cloud, wave, "general"))
        area = 4 * math.pi * r * r
        b = [-1.0 / (-lams[0] * area), -1.0 / (-lams[1] * area)]
        ph = phi(wave.kappa, z[0], z[1])
        u = [cmath.exp(1j * wave.kappa * float(wave.theta @ zz)) for zz in z]
        det = b[0] * b[1] - ph * ph
        q0 = (u[0] * b[1] + ph * u[1]) / det
        q1 = (b[0] * u[1] + ph * u[0]) / det
        assert sol.charges[0] == pytest.approx(q0, rel=1e-12)
        assert sol.charges[1] == pytest.approx(q1, rel=1e-12)

    def test_three_spheres_adjugate_oracle(self, tilted_wave):
        """M = 3 vs an explicit cofactor inverse, all built in the test."""
        wave = tilted_wave
        z = [np.array([0.0, 0.0, 0.0]), np.array([0.6, 0.0, 0.0]),
             np.array([0.1, 0.7, 0.2])]
        lams = [-1.0, -2.0 + 0.3j, -0.5 - 0.1j]
        r = 0.02
        cloud = ScattererCloud(centers=np.array(z), radii=np.full(3, r),
                               impedances=np.array(lams, dtype=complex))
        sol = solve(assemble(cloud, wave, "spherical"))
        B = [[0j] * 3 for _ in range(3)]
        for i in range(3):
            C = lams[i] * 4 * math.pi * r * r / (-1 + lams[i] * r)
            B[i][i] = -1.0 / C
            for j in range(3):
                if i != j:
                    B[i][j] = -phi(wave.kappa, z[i], z[j])
        u = [cmath.exp(1j * wave.kappa * float(wave.theta @ zz)) for zz in z]

        def det2(a, b, c, d):
            return a * d - b * c

        det3 = (B[0][0] * det2(B[1][1], B[1][2], B[2][1], B[2][2])
                - B[0][1] * det2(B[1][0], B[1][2], B[2][0], B[2][2])
                + B[0][2] * det2(B[1][0], B[1][1], B[2][0], B[2][1]))
        for i in range(3):
            cols = [0, 1, 2]
            num = 0j
            # Cramer: replace column i with u
            Brep = [[u[k] if c == i else B[k][c] for c in cols] for k in range(3)]
            num = (Brep[0][0] * det2(Brep[1][1], Brep[1][2], Brep[2][1], Brep[2][2])
                   - Brep[0][1] * det2(Brep[1][0], Brep[1][2], Brep[2][0], Brep[2][2])
                   + Brep[0][2] * det2(Brep[1][0], Brep[1][1], Brep[2][0], Brep[2][1]))
            assert sol.charges[i] == pytest.approx(num / det3, rel=1e-13)

    def test_kappa_a_guard(self):
        cloud = make_cloud([[0, 0, 0]], 0.5, -1.0)
        with pytest.raises(RegimeViolation):
            assemble(cloud, make_wave(kappa=2.0), "general")

    def test_general_variant_refuses_beta_one(self):
        rg = RegimeParams(a=0.1, s=0.5, t=1.0, beta=1.0, lambda0=-1.0)
        cloud = generate_grid_cloud(rg, box_side=math.inf)
        with pytest.raises(RegimeViolation):
            assemble(cloud, make_wave(), "general")
        solve(assemble(cloud, make_wave(), "spherical"))

    def test_spherical_variant_refuses_explicit_areas(self, wave):
        cloud = make_cloud([[0, 0, 0]], 0.1, -1.0, areas=np.array([0.12]))
        with pytest.raises(ValueError):
            assemble(cloud, wave, "spherical")
        assemble(cloud, wave, "general")

    def test_coincident_centers_blocked_upstream(self):
        # the overlap check already refuses coincident centers at construction
        from foldylax import OverlappingSpheres
        with pytest.raises(OverlappingSpheres):
            ScattererCloud(centers=np.zeros((2, 3)), radii=np.full(2, 0.05),
                           impedances=np.full(2, -1.0 + 0j))

    def test_matrix_is_complex_symmetric(self, tilted_wave):
        cloud = make_cloud([[0, 0, 0], [0.8, 0, 0], [0.2, 0.9, 0.1]], 0.03, -1.0)
        B = np.asarray(assemble(cloud, tilted_wave, "general").matrix)
        assert np.array_equal(B, B.T)


class TestSolve:
    @pytest.mark.filterwarnings("ignore:Diagonal number")
    def test_singular_matrix_raises(self, wave):
        cloud = make_cloud([[0, 0, 0], [1.0, 0, 0]], 0.05, -1.0)
        bad = dataclasses.replace(assemble(cloud, wave, "general"),
                                  matrix=DenseMatrix(np.zeros((2, 2))))
        with pytest.raises(SingularSystem):
            solve(bad)

    def test_residual_reported(self, wave):
        cloud = make_cloud([[0, 0, 0], [1.0, 0, 0]], 0.05, -1.0)
        sol = solve(assemble(cloud, wave, "general"))
        assert sol.residual_inf <= 1e-10
        B, rhs = sol.system.matrix, sol.system.rhs
        res = np.linalg.norm(B @ sol.charges - rhs, np.inf) / np.linalg.norm(rhs, np.inf)
        assert sol.residual_inf == pytest.approx(res)

    def test_diagnostics_attached_only_with_regime(self, wave):
        rg = RegimeParams(a=0.1, s=1.0, t=1.0, beta=0.0, lambda0=-1.0)
        tagged = generate_grid_cloud(rg, box_side=math.inf)
        assert solve(assemble(tagged, wave, "general")).diagnostics is not None
        bare = make_cloud([[0, 0, 0]], 0.05, -1.0)
        assert solve(assemble(bare, wave, "general")).diagnostics is None


def test_nan_residual_raises():
    with pytest.raises(SingularSystem):
        foldy._relative_residual(np.array([math.nan + 0j]), np.ones(1, dtype=complex),
                                 foldy.RESIDUAL_TOL)


def lu_charges(system):
    return foldy._checked_lu_solve(system.matrix, system.rhs, foldy.RESIDUAL_TOL)[0]


def certified(system):
    """Whether solve() certifies the system: 1 - q > PIVOT_REL_TOL for its matrix's q."""
    return 1.0 - system.matrix.q > foldy.PIVOT_REL_TOL


def jittered_lattice(a=0.05, lambda0=-0.5, seed=4):
    rg = RegimeParams(a=a, s=2.0, t=1.0, beta=0.0, lambda0=lambda0)
    return generate_grid_cloud(rg, box_side=math.inf, jitter=0.3, seed=seed)


def sphere_cloud_of_five():
    """sweep_rate's first cloud: five spheres at a = 0.04."""
    rg = RegimeParams(a=0.04, s=1.0, t=1.0, beta=0.0, M_max=0.2, lambda0=-1.0)
    cloud = generate_grid_cloud(rg, box_side=math.inf, jitter=0.3, seed=1)
    assert cloud.M == 5
    return cloud


def with_one_flipped_sign(cloud):
    imped = np.array(cloud.impedances)
    imped[0] = -imped[0]
    return ScattererCloud(centers=cloud.centers, radii=cloud.radii,
                          impedances=imped, regime=cloud.regime)


class TestCertifiedSolve:
    """Where Re B is certified definite, GMRES replaces the dense LU."""

    @pytest.mark.parametrize("variant", ["general", "spherical"])
    @pytest.mark.parametrize("lambda0", [-0.5, 0.5 + 0.2j])
    def test_gmres_matches_lu_on_lattices(self, tilted_wave, variant, lambda0):
        system = assemble(jittered_lattice(lambda0=lambda0), tilted_wave, variant)
        assert certified(system)
        sol = solve(system)
        assert 0 < sol.iterations <= 15  # 1 - q is about 0.7: 8-9 products
        ref = lu_charges(system)
        assert np.max(np.abs(sol.charges - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert sol.residual_inf <= math.sqrt(system.cloud.M) * foldy.GMRES_TOL

    def test_mixed_signs_take_the_lu_path(self, wave):
        system = assemble(with_one_flipped_sign(jittered_lattice()), wave, "general")
        assert not certified(system)
        sol = solve(system)
        assert sol.iterations is None
        assert sol.diagnostics.applicable_case == "Mixed"
        assert np.array_equal(sol.charges, lu_charges(system))

    def test_q_is_weyls_ratio(self, wave):
        """The matrix's q is its own ||Re B_n||_F over min|Re B_mm|, as the
        dense scan finds it, and inf where the signs are mixed."""
        for cloud, same_sign in ((jittered_lattice(), True),
                                 (with_one_flipped_sign(jittered_lattice()), False)):
            B = assemble(cloud, wave, "general").matrix
            ratio = B.frobenius_offdiag_real / float(np.min(np.abs(B.diagonal().real)))
            assert B.q == (ratio if same_sign else math.inf)
            assert B.q == pytest.approx(DenseMatrix(np.asarray(B)).q, rel=1e-13)

    def test_weak_diagonal_takes_the_lu_path(self, wave):
        cloud = make_cloud([[0, 0, 0], [1.0, 0, 0]], 0.05, -1.0)
        weak = dataclasses.replace(assemble(cloud, wave, "general"),
                                   matrix=DenseMatrix([[0.5, 1.0], [1.0, 0.5]]))
        assert not certified(weak)
        sol = solve(weak)
        assert sol.iterations is None
        assert np.allclose(weak.matrix @ sol.charges, weak.rhs, rtol=1e-14, atol=0)

    def test_margin_must_clear_the_pivot_tolerance(self):
        # off-diagonal x with sqrt(2)*x just below 1: q < 1 but 1 - q is
        # within PIVOT_REL_TOL of zero, so no certificate
        x = (1.0 - 4e-15) / math.sqrt(2.0)
        B = np.array([[1.0, x], [x, 1.0]])
        rhs = np.array([1.0, 2.0], dtype=complex)
        for A in (DenseMatrix(B), DenseMatrix(-B)):
            assert 0 < 1.0 - A.q <= foldy.PIVOT_REL_TOL
            assert foldy._certified_solve(A, rhs, foldy.RESIDUAL_TOL)[2] is None
        A = DenseMatrix(B)
        A.q = 0.5
        assert foldy._certified_solve(A, rhs, foldy.RESIDUAL_TOL)[2] > 0

    @pytest.mark.parametrize("build, solver, tol", [
        (lambda: assemble(jittered_lattice(), make_wave(), "general"), solve,
         foldy.RESIDUAL_TOL),
        (lambda: assemble_bie(sphere_cloud_of_five(), make_wave(), L=6), solve_bie,
         oracle.BIE_RESIDUAL_TOL)], ids=["foldy-lax", "bie"])
    @pytest.mark.parametrize("q", [None, 1.0, math.inf, math.nan],
                             ids=["own", "one", "inf", "nan"])
    def test_solve_policy_reads_the_operators_q(self, monkeypatch, build, solver, tol, q):
        """The operator's own q certifies GMRES; forced to 1, inf or NaN (which
        fails closed) it sends the same system to the LU, which passes its
        residual check."""
        system = build()
        assert certified(system)
        if q is not None:
            monkeypatch.setattr(system.matrix, "q", q)
        sol = solver(system)
        assert (sol.iterations is None) == (q is not None)
        assert sol.residual_inf <= tol
        x = sol.charges if solver is solve else sol.coefficients.reshape(-1)
        assert np.allclose(system.matrix @ x, system.rhs, rtol=0,
                           atol=10 * tol * np.max(np.abs(system.rhs)))

    def test_iteration_cap_falls_back_to_lu(self, wave, monkeypatch):
        system = assemble(jittered_lattice(), wave, "general")
        monkeypatch.setattr(foldy, "GMRES_MAXITER", 2)
        sol = solve(system)
        assert sol.iterations is None
        assert np.array_equal(sol.charges, lu_charges(system))

    def test_restart_matches_lu(self, wave, monkeypatch):
        """A restart every 3 products takes the triangular solve each cycle."""
        system = assemble(jittered_lattice(), wave, "general")  # 8-9 products unrestarted
        monkeypatch.setattr(foldy, "GMRES_RESTART", 3)
        sol = solve(system)
        assert sol.iterations > 3
        ref = lu_charges(system)
        assert np.max(np.abs(sol.charges - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("a, lambda0, variant", [
        (0.1, -0.5, "general"), (0.1, 0.5, "general"), (0.05, -0.5, "general"),
        (0.04, -0.5, "general"), (0.032, -0.5, "general"), (0.1, 0.5, "spherical"),
        (0.05, -0.5 + 0.3j, "spherical")])
    def test_lemma_condition_implies_certificate(self, wave, a, lambda0, variant):
        """On the test lattices where the lemma holds, so does the certificate."""
        for jitter in (0.0, 0.3):
            rg = RegimeParams(a=a, s=2.0, t=1.0, beta=0.0, lambda0=lambda0)
            cloud = generate_grid_cloud(rg, box_side=math.inf, jitter=jitter, seed=1)
            system = assemble(cloud, wave, variant)
            assert invertibility_report(system).condition_applicable
            assert certified(system)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 12),
       radius=st.floats(0.01, 0.25), kappa=st.floats(0.1, 3.0),
       flip=st.booleans())
def test_certificate_bounds_the_smallest_singular_value(seed, m, radius, kappa, flip):
    """Wherever mu > 0 for one sign of Re B_mm, sigma_min(B) >= mu."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.5, size=(m, 3))
    gaps = np.linalg.norm(centers[:, None] - centers[None], axis=-1)[np.triu_indices(m, 1)]
    assume(np.min(gaps) > 2.2 * radius)
    sign = -1.0 if flip else 1.0
    impedances = sign * rng.uniform(0.1, 4.0, m) + 1j * rng.uniform(-2.0, 2.0, m)
    cloud = ScattererCloud(centers=centers, radii=np.full(m, radius),
                           impedances=impedances)
    assume(kappa * cloud.a_eff < 1.0)
    system = assemble(cloud, make_wave(kappa=kappa), "general")
    B, frob = system.matrix, system.matrix.frobenius_offdiag_real
    mu = float(np.min(np.abs(B.diagonal().real))) - frob
    if mu > 0:
        assert np.linalg.svd(np.asarray(B), compute_uv=False)[-1] >= mu * (1 - 1e-12)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.0, 2.0 * math.pi), (1.0, 1e3),
                                    (1e3, 1e6)])
def test_cos_and_sin_are_the_parts_of_exp(lo, hi):
    """assemble writes cos(kappa d) and sin(kappa d) where it took e^{i kappa d}."""
    x = np.random.default_rng(int(hi)).uniform(lo, hi, size=10**6)
    e = np.exp(1j * x)
    assert np.cos(x).tobytes() == e.real.tobytes()
    assert np.sin(x).tobytes() == e.imag.tobytes()


def test_solver_imports_no_scipy_sparse(tmp_path):
    """GMRES is numpy: importing the solvers must not load scipy.sparse."""
    code = ("import sys, foldylax.foldy, foldylax.oracle; "
            "print([m for m in sys.modules if m.startswith('scipy.sparse')])")
    assert run_python(code, tmp_path) == "[]"


GENERATE = ("import json, sys; from foldylax.cli import main; "
            "assert main('generate --a 0.05 --s 2 --lambda0 -0.5 --jitter 0.3 "
            "--out c.json'.split()) == 0; ")
SCIPY_LOADED = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"


def test_generate_and_certified_solve_load_no_scipy(tmp_path):
    code = GENERATE + (
        "assert main('solve c.json --check-invertibility --out x'.split()) == 0; "
        f"print({SCIPY_LOADED})")
    assert run_python(code, tmp_path) == "[]"


def test_oracle_imports_no_scipy(tmp_path):
    code = f"import sys, foldylax.oracle, foldylax.analysis; print({SCIPY_LOADED})"
    assert run_python(code, tmp_path) == "[]"


def test_certified_compare_and_sweep_load_no_scipy(tmp_path):
    code = GENERATE.replace("--a 0.05 --s 2", "--a 0.1 --s 1 --Mmax 0.5") + (
        "assert main('compare c.json --variant spherical --oracle bie --L 6 "
        "--directions 16 --out x'.split()) == 0; "
        "assert main('sweep --a-values 0.04,0.02,0.01 --s 1 --Mmax 0.2 --jitter 0.3 "
        "--variant spherical --oracle bie --L 4 --directions 16 --out s.csv'.split()) == 0; "
        f"print({SCIPY_LOADED})")
    assert run_python(code, tmp_path) == "[]"


def test_bie_lu_fallback_loads_scipy_linalg_when_it_runs(tmp_path):
    """Two spheres 0.002 apart at L = 8 have q >= 1: no certificate."""
    code = ("import sys, numpy as np; from foldylax import ScattererCloud, oracle; "
            "from foldylax.geometry import IncidentWave; "
            "cloud = ScattererCloud(centers=np.array([[0, 0, 0], [0.202, 0, 0]]), "
            "radii=np.full(2, 0.1), impedances=np.full(2, -1 + 0j)); "
            "system = oracle.assemble_bie(cloud, IncidentWave(kappa=1.0, "
            "theta=np.array([0.0, 0.0, 1.0])), L=8); "
            f"before = {SCIPY_LOADED}; "
            "sol = oracle.solve_bie(system); "
            "print(before, sol.iterations, 'scipy.linalg' in sys.modules)")
    assert run_python(code, tmp_path) == "[] None True"


def test_lu_fallback_loads_scipy_linalg_when_it_runs(tmp_path):
    code = GENERATE + (
        "from foldylax import foldy, io; "
        "doc = json.load(open('c.json')); "
        "doc['impedance_re'][0] = -doc['impedance_re'][0]; "
        "json.dump(doc, open('c.json', 'w')); "
        "system = foldy.assemble(io.load_cloud('c.json'), "
        "foldy.IncidentWave(kappa=1.0, theta=[0.0, 0.0, 1.0])); "
        f"before = {SCIPY_LOADED}; "
        "sol = foldy.solve(system); "
        "assert main('solve c.json --out x'.split()) == 0; "
        "print(before, sol.iterations, 'scipy.linalg' in sys.modules)")
    assert run_python(code, tmp_path) == "[] None True"


class TestFarField:
    def test_matches_direct_sum(self, tilted_wave):
        cloud = make_cloud([[0, 0, 0], [0.9, 0.1, -0.2]], 0.04, -1.3)
        sol = solve(assemble(cloud, tilted_wave, "spherical"))
        grid = farfield(sol, fibonacci_sphere(32))
        k = tilted_wave.kappa
        for i, xhat in enumerate(grid.directions):
            direct = sum(cmath.exp(-1j * k * float(xhat @ z)) * q
                         for z, q in zip(cloud.centers, sol.charges))
            assert grid.values[i] == pytest.approx(direct, rel=1e-14)

    def test_default_grid_size(self, wave):
        sol = solve(assemble(make_cloud([[0, 0, 0]], 0.05, -1.0), wave, "general"))
        assert farfield(sol).directions.shape == (200, 3)

    def test_reciprocity(self):
        """Uinf(xhat; theta) == Uinf(-theta; -xhat) for any cloud."""
        rng = np.random.default_rng(5)
        centers = rng.uniform(-1, 1, (6, 3)) * 2.0
        cloud = make_cloud(centers, 0.02, -1.0 + 0.2j)
        for _ in range(5):
            d1 = rng.normal(size=3)
            d2 = rng.normal(size=3)
            d1 /= np.linalg.norm(d1)
            d2 /= np.linalg.norm(d2)
            k = 1.1
            sol_f = solve(assemble(cloud, make_wave(k, d1), "general"))
            val_f = farfield(sol_f, d2[None, :]).values[0]
            sol_b = solve(assemble(cloud, make_wave(k, -d2), "general"))
            val_b = farfield(sol_b, -d1[None, :]).values[0]
            assert val_f == pytest.approx(val_b, rel=1e-12)

    def test_translation_covariance(self, tilted_wave):
        """Shifting the cloud by v multiplies Uinf by e^{i kappa (theta-xhat).v}."""
        centers = np.array([[0.0, 0, 0], [1.0, 0.3, -0.2], [0.1, -0.8, 0.5]])
        v = np.array([0.37, -1.2, 0.85])
        dirs = fibonacci_sphere(16)
        base = make_cloud(centers, 0.03, -1.0)
        moved = make_cloud(centers + v, 0.03, -1.0)
        k = tilted_wave.kappa
        g0 = farfield(solve(assemble(base, tilted_wave, "general")), dirs)
        g1 = farfield(solve(assemble(moved, tilted_wave, "general")), dirs)
        phase = np.exp(1j * k * (float(tilted_wave.theta @ v) - dirs @ v))
        assert np.allclose(g1.values, g0.values * phase, rtol=1e-12)

    def test_grid_validation(self, wave):
        with pytest.raises(ValueError):
            FarFieldGrid(directions=np.array([[0.0, 0.0, 2.0]]),
                         values=np.array([1.0 + 0j]), wave=wave)
        with pytest.raises(ValueError):
            FarFieldGrid(directions=np.array([[0.0, 0.0, 1.0]]),
                         values=np.array([np.nan + 0j]), wave=wave)

    def test_non_unit_direction_is_one_typed_error(self, wave):
        """Every far field refuses a direction off the unit sphere, NaN
        included, with NonUnitDirection: the Foldy-Lax and BIE far fields, the
        modal series and the grid they all build."""
        cloud = make_cloud([[0, 0, 0], [0.5, 0, 0]], 0.05, -1.0)
        bie = solve_bie(assemble_bie(cloud, wave, L=2, quad_order=4))
        for bad in ([0.0, 0.0, 1.001], [np.nan, 0.0, 0.0]):
            dirs = np.array([bad, [1.0, 0.0, 0.0]])
            for far_field in (lambda: farfield(solve(assemble(cloud, wave)), dirs),
                              lambda: bie_farfield(bie, dirs),
                              lambda: mie_reference(wave, 0.05, -1.0, dirs),
                              lambda: FarFieldGrid(directions=dirs, values=np.ones(2),
                                                   wave=wave)):
                with pytest.raises(NonUnitDirection):
                    far_field()

    def test_grid_length_mismatch_rejected(self, wave):
        with pytest.raises(ValueError, match="^directions/values length mismatch$"):
            FarFieldGrid(directions=np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
                         values=np.array([1.0 + 0j, 2.0 + 0j, 3.0 + 0j]), wave=wave)


class TestInvertibilityReport:
    def lattice(self, a=0.1, lambda0=-0.5, beta=0.0, s=2.0):
        rg = RegimeParams(a=a, s=s, t=1.0, beta=beta, M_max=1.0,
                          d_min=1.0, d_max=2.0, lambda0=lambda0)
        return generate_grid_cloud(rg, box_side=math.inf), rg

    def test_single_scatterer_trivial(self, wave):
        cloud = make_cloud([[0, 0, 0]], 0.05, -1.0,
                           regime=RegimeParams(a=0.1, s=0.0, t=1.0, beta=0.0,
                                               lambda0=-1.0))
        rep = invertibility_report(assemble(cloud, wave, "general"))
        assert rep.frobenius_offdiag_real == 0.0
        assert rep.condition_applicable
        assert rep.gamma == 1.0

    def test_requires_regime(self, wave):
        cloud = make_cloud([[0, 0, 0], [1.0, 0, 0]], 0.05, -1.0)
        system = assemble(cloud, wave, "general")
        with pytest.raises(MissingRegime):
            invertibility_report(system)

    def test_frobenius_matches_direct_sum(self, wave):
        cloud, rg = self.lattice(a=0.1)
        system = assemble(cloud, wave, "general")
        rep = invertibility_report(system)
        acc = 0.0
        for i in range(cloud.M):
            for j in range(cloud.M):
                if i != j:
                    r = math.dist(cloud.centers[i], cloud.centers[j])
                    acc += (math.cos(wave.kappa * r) / (4 * math.pi * r)) ** 2
        assert rep.frobenius_offdiag_real == pytest.approx(math.sqrt(acc), rel=1e-12)

    def test_case_dispatch(self, wave):
        cloud, _ = self.lattice(lambda0=-0.5)
        rep = invertibility_report(assemble(cloud, wave, "general"))
        assert rep.applicable_case == "NegRealLambda"
        assert rep.condition_applicable

        # C_m flips sign with lambda, and the verdict follows it
        cloud_p, _ = self.lattice(lambda0=0.5)
        rep_p = invertibility_report(assemble(cloud_p, wave, "general"))
        assert rep_p.applicable_case == "PosRealLambda"
        assert rep_p.condition_applicable

    def test_mixed_signs(self, wave):
        rg = RegimeParams(a=0.2, s=1.0, t=1.0, beta=0.0, lambda0=-1.0)
        base = generate_grid_cloud(rg, box_side=math.inf)
        imped = np.array(base.impedances)
        imped[0] = +1.0
        mixed = ScattererCloud(centers=base.centers, radii=base.radii,
                               impedances=imped, regime=rg)
        system = assemble(mixed, wave, "general")
        rep = invertibility_report(system)
        assert rep.applicable_case == "Mixed"
        # row-sign flips reduce Mixed to the numerator min|Re C_m|
        c = system.coefficients
        flipped = np.min(np.abs(c.real)) / np.max(np.abs(c)) ** 2 > rep.lemma_threshold
        assert rep.condition_applicable == flipped

    def test_bound_rhs_bounds_no_lattice_beyond_criterion_6(self):
        """generate --a 0.03 --s 0.75 --t 1.25 --beta 0.9 --Mmax 2
        --lambda0=-1.5, no jitter, at kappa = 3: an admissible lattice whose
        verdict is True while ||Re B_n||_F = 30.143 exceeds bound_rhs =
        5.149. Its q is 3.0, so solve takes the LU, which solves it."""
        rg = RegimeParams(a=0.03, s=0.75, t=1.25, beta=0.9, M_max=2.0, lambda0=-1.5)
        system = assemble(generate_grid_cloud(rg, box_side=math.inf), make_wave(kappa=3.0),
                          "general")
        assert system.cloud.M == 27
        sol = solve(system)
        rep = sol.diagnostics
        assert rep.condition_applicable
        assert rep.frobenius_offdiag_real > rep.bound_rhs
        assert system.matrix.q >= 1.0
        assert sol.iterations is None
        ref = np.linalg.solve(np.asarray(system.matrix), system.rhs)
        assert np.max(np.abs(sol.charges - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_gamma_definition(self, wave):
        cloud, _ = self.lattice(a=0.1)
        rep = invertibility_report(assemble(cloud, wave, "general"))
        dist = np.linalg.norm(cloud.centers[:, None] - cloud.centers[None, :], axis=-1)
        off = ~np.eye(cloud.M, dtype=bool)
        assert rep.gamma == pytest.approx(np.min(np.cos(wave.kappa * dist[off])))


class TestChargeBound:
    def test_scaling_with_radius(self, wave):
        # |Q| ~ a^2 for beta = 0: the normalized ratio stays O(1) as a halves
        ratios = []
        for a in (0.1, 0.05, 0.025):
            rg = RegimeParams(a=a, s=1.0, t=1.0, beta=0.0, lambda0=-0.5)
            cloud = generate_grid_cloud(rg, box_side=math.inf)
            sol = solve(assemble(cloud, wave, "general"))
            assert charge_bound_check(sol, rg)
            ratios.append(np.max(np.abs(sol.charges)) / a**2)
        assert max(ratios) / min(ratios) < 1.5
