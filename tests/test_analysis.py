import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldylax import (FarFieldGrid, GridMismatch, InvertibilityReport, OracleSettings,
                      RegimeParams, assemble, assemble_bie, bie_farfield, convergence_study,
                      farfield, farfield_error, farfield_kernel, fit_rate, generate_grid_cloud,
                      oracle_farfield, plane_wave, predicted_slope, solve, solve_bie)
from foldylax.errors import RateUndetermined, SeriesNotConverged
from foldylax.kernels import fibonacci_sphere

from cloud_helpers import WatchedMatrix, charge_bound_check, make_cloud, make_wave
from quadrature_oracles import mie_reference


def grid_of(values, wave, n=None):
    dirs = fibonacci_sphere(n if n is not None else len(values))
    return FarFieldGrid(directions=dirs, values=np.asarray(values, dtype=complex),
                        wave=wave)


class TestFarfieldError:
    def test_zero_for_identical(self, wave):
        g = grid_of(np.arange(5) + 1j, wave)
        assert farfield_error(g, g) == 0.0

    def test_sup_norm(self, wave):
        a = grid_of([1 + 0j, 2 + 0j, 3 + 0j], wave)
        b = grid_of([1 + 0j, 2 + 4j, 3 + 0j], wave)
        assert farfield_error(a, b) == pytest.approx(4.0)

    def test_metric_properties(self, wave):
        rng = np.random.default_rng(0)
        vals = [rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(3)]
        a, b, c = (grid_of(v, wave) for v in vals)
        assert farfield_error(a, b) == farfield_error(b, a)
        assert farfield_error(a, c) <= farfield_error(a, b) + farfield_error(b, c) + 1e-15

    def test_grid_mismatch(self, wave):
        a = grid_of([1 + 0j] * 8, wave)
        b = grid_of([1 + 0j] * 9, wave)
        with pytest.raises(GridMismatch):
            farfield_error(a, b)
        other = make_wave(kappa=2.0)
        c = grid_of([1 + 0j] * 8, other)
        with pytest.raises(GridMismatch):
            farfield_error(a, c)


class TestRateFit:
    def test_exact_power_law(self):
        a = [0.2, 0.1, 0.05, 0.025]
        errs = [7.0 * x**2.5 for x in a]
        fit = fit_rate(a, errs, predicted_slope=2.5)
        assert fit.slope == pytest.approx(2.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(7.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_used == 4

    def test_scaling_errors_shifts_intercept_only(self):
        a = [0.2, 0.1, 0.05]
        errs = [x**3 for x in a]
        f1 = fit_rate(a, errs, 3.0)
        f2 = fit_rate(a, [10 * e for e in errs], 3.0)
        assert f2.slope == pytest.approx(f1.slope, abs=1e-12)
        assert f2.intercept - f1.intercept == pytest.approx(math.log(10), abs=1e-12)

    def test_noise_floor_excluded(self):
        a = [0.2, 0.1, 0.05, 0.025]
        errs = [0.2**3, 0.1**3, 1e-13, 1e-14]
        fit = fit_rate(a, errs, 3.0)
        assert fit.n_used == 2
        assert fit.slope == pytest.approx(3.0, abs=1e-12)

    def test_all_below_floor_degenerate(self):
        message = ("0 of 3 far-field errors cleared the noise floor, 1e-11 of "
                   "max|U_ref|; a rate fit needs 2")
        with pytest.raises(RateUndetermined, match=f"^{re.escape(message)}$"):
            fit_rate([0.2, 0.1, 0.05], [0.0, 1e-13, 1e-12], 3.0)

    def test_one_usable_sample_is_undetermined(self):
        with pytest.raises(RateUndetermined, match="^1 of 3 "):
            fit_rate([0.2, 0.1, 0.05], [1e-3, 1e-13, 1e-12], 3.0)

    @pytest.mark.parametrize("errs, scales", [
        ([1e-3, 2.5e-4], None), ([1e-3, 2.5e-4], [1.0]), ([1e-3, 2.5e-4, 6.25e-5], [1.0, 1.0])])
    def test_unequal_lengths_are_refused(self, errs, scales):
        """zip would drop the third radius: a slope from two samples, or a
        RateUndetermined that blames the noise floor."""
        with pytest.raises(ValueError, match="^a_values, errors and scales must have equal"):
            fit_rate([0.04, 0.02, 0.01], errs, 2.0, scales)

    def test_floor_is_relative_to_the_scales(self):
        """Errors a^3 under a reference far field of size a^2: all below the
        absolute floor 1e-11, all above 1e-11 of their scale."""
        a = [1e-4, 5e-5, 2.5e-5]
        errs = [x**3 for x in a]
        with pytest.raises(RateUndetermined):
            fit_rate(a, errs, 3.0)
        fit = fit_rate(a, errs, 3.0, scales=[x**2 for x in a])
        assert fit.n_used == 3
        assert fit.slope == pytest.approx(3.0, abs=1e-12)

    def test_matches_least_squares(self):
        a = [0.3, 0.17, 0.09, 0.04, 0.02]
        errs = [0.7, 0.2, 0.11, 0.013, 0.004]
        slope, intercept = np.polyfit(np.log(a), np.log(errs), 1)
        fit = fit_rate(a, errs, 2.0)
        assert fit.slope == pytest.approx(slope, rel=1e-13)
        assert fit.intercept == pytest.approx(intercept, rel=1e-13)
        residual = np.log(errs) - slope * np.log(a) - intercept
        spread = np.log(errs) - np.mean(np.log(errs))
        assert fit.r_squared == pytest.approx(1 - residual @ residual / (spread @ spread),
                                              rel=1e-13)

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            fit_rate([0.2, 0.1], [1.0, 0.5], 1.0)

    def test_usable_samples_at_one_radius_are_refused(self):
        """Three usable errors at one radius leave the slope undetermined;
        the one sample at another radius is below the floor."""
        with pytest.raises(ValueError, match="^rate fit needs two distinct radii"):
            fit_rate([0.1, 0.1, 0.1, 0.05], [1e-3, 2e-3, 3e-3, 0.0], 2.0)

    @settings(max_examples=30, deadline=None)
    @given(p=st.floats(0.5, 4.0), c=st.floats(0.01, 100.0))
    def test_recovers_any_power(self, p, c):
        a = [0.3, 0.17, 0.09, 0.04]
        fit = fit_rate(a, [c * x**p for x in a], p)
        assert fit.slope == pytest.approx(p, rel=1e-9)


class TestPredictedSlope:
    @pytest.mark.parametrize("s,beta,gen,sph", [
        (0.0, 0.0, 3.0, 3.0),
        (1.0, 0.0, 2.0, 2.0),
        (0.0, 0.5, 2.0, 2.5),
        (1.0, 0.5, 1.0, 1.5),
    ])
    def test_formulas(self, s, beta, gen, sph):
        rg = RegimeParams(a=0.1, s=s, t=1.0, beta=beta, lambda0=-1.0)
        assert predicted_slope(rg, "general") == pytest.approx(gen)
        assert predicted_slope(rg, "spherical") == pytest.approx(sph)


class TestOracleFarfield:
    def test_auto_dispatch(self, wave):
        """The default oracle, the BIE, serves every M: one sphere gets its
        residual and densities as a pair does."""
        dirs = fibonacci_sphere(16)
        for centers in ([[0, 0, 0]], [[0, 0, 0], [0.5, 0, 0]]):
            cloud = make_cloud(centers, 0.05, -1.0)
            _, res, dens = oracle_farfield(cloud, wave, dirs, OracleSettings(L=6, quad_order=12))
            assert res <= 1e-9 and len(dens) == len(centers)

    def test_mie_translates_an_off_origin_sphere(self):
        """The BIE, solved in place off the origin, agrees with the modal
        series at the origin translated exactly to the sphere's center:
        Uinf -> e^{i kappa theta.z} e^{-i kappa xhat.z} Uinf."""
        z, r, lam = np.array([0.3, -0.2, 0.5]), 0.05, -2.0 + 0.5j
        wave = make_wave(kappa=2.0, theta=(0.6, 0.0, 0.8))
        dirs = fibonacci_sphere(32)
        mie = (mie_reference(wave, r, lam, dirs, L=12).values
               * plane_wave(wave.kappa, wave.theta, z) * farfield_kernel(wave.kappa, dirs, z))
        bie, _, _ = oracle_farfield(make_cloud([z], r, lam), wave, dirs, OracleSettings(L=12))
        assert np.max(np.abs(mie - bie.values)) < 1e-12 * np.max(np.abs(bie.values))

    def test_mie_requires_single(self):
        """No kind names the modal series any more, nor auto, which picked it
        for M = 1: the BIE serves every M."""
        for kind in ("mie", "auto"):
            with pytest.raises(ValueError, match="^oracle kind must be bie\\|fl$"):
                OracleSettings(kind=kind)

    def test_fl_echo_needs_grid(self, wave):
        single = make_cloud([[0, 0, 0]], 0.05, -1.0)
        with pytest.raises(ValueError):
            oracle_farfield(single, wave, fibonacci_sphere(8),
                            OracleSettings(kind="fl"))
        sol = solve(assemble(single, wave, "general"))
        grid = farfield(sol, fibonacci_sphere(8))
        echoed, _, _ = oracle_farfield(single, wave, grid.directions,
                                       OracleSettings(kind="fl"), fl_grid=grid)
        assert echoed is grid

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            OracleSettings(kind="exact")

    @pytest.mark.parametrize("kind", ["bie", "fl"])
    def test_degree_below_two_and_quad_order_below_one_rejected(self, kind):
        """L < 2 has no L - 2 to check the BIE against."""
        for L in (-1, 0, 1):
            with pytest.raises(ValueError, match="^oracle degree L must be >= 2$"):
                OracleSettings(kind=kind, L=L)
        with pytest.raises(ValueError, match="^quadrature order must be >= 1$"):
            OracleSettings(kind=kind, quad_order=0)
        assert OracleSettings(kind=kind, L=2, quad_order=1).L == 2


class TestConvergenceStudy:
    def test_validates_a_values(self, wave):
        rg = RegimeParams(a=0.1, s=0.0, t=1.0, beta=0.0, lambda0=-1.0)
        with pytest.raises(ValueError):
            convergence_study(rg, [0.1, 0.2, 0.3], wave)
        with pytest.raises(ValueError):
            convergence_study(rg, [0.2, 0.1], wave)

    def test_single_sphere_study(self, wave):
        rg = RegimeParams(a=0.1, s=0.0, t=1.0, beta=0.0, lambda0=-1.0)
        st_out = convergence_study(rg, [0.2, 0.1, 0.05], wave, "spherical",
                                   OracleSettings(n_directions=60))
        assert len(st_out.records) == 3
        assert all(r.M == 1 for r in st_out.records)
        assert st_out.fit.slope == pytest.approx(3.0, abs=0.35)
        errs = [r.error for r in st_out.records]
        assert errs[0] > errs[1] > errs[2]

    def test_rows_record_their_truncation_estimate(self, wave):
        """tau_ratio is the largest of the rows' tau over their errors, tau the
        max|U_L - U_{L-2}| of the BIE far fields, recomputed here."""
        rg = RegimeParams(a=0.1, s=0.0, t=1.0, beta=0.0, lambda0=-1.0)
        dirs = fibonacci_sphere(20)
        study = convergence_study(rg, [0.2, 0.1, 0.05], wave, "spherical",
                                  OracleSettings(L=4, n_directions=len(dirs)))
        ratios = []
        for r in study.records:
            cloud = generate_grid_cloud(dataclasses.replace(rg, a=r.a), box_side=math.inf)
            fine, coarse = (bie_farfield(solve_bie(assemble_bie(cloud, wave, L=L)), dirs).values
                            for L in (4, 2))
            ratios.append(np.max(np.abs(fine - coarse)) / r.error)
        assert 0 < study.tau_ratio == max(ratios) <= 1e-3

    def test_coarse_degree_names_its_row(self, wave):
        """At L = 2, tau of the first row, a = 0.2, is 0.6 of its error."""
        rg = RegimeParams(a=0.1, s=0.0, t=1.0, beta=0.0, lambda0=-1.0)
        with pytest.raises(SeriesNotConverged, match=r"^a=0\.2: .* at L = 2 is too coarse"):
            convergence_study(rg, [0.2, 0.1, 0.05], wave, "spherical",
                              OracleSettings(L=2, n_directions=20))

    def test_noise_floor_tolerated(self, wave):
        """fl oracle yields exact zeros, below the floor: the rate is
        undetermined, not a flat fit."""
        rg = RegimeParams(a=0.1, s=0.0, t=1.0, beta=0.0, lambda0=-1.0)
        with pytest.raises(RateUndetermined, match="^0 of 3 "):
            convergence_study(rg, [0.2, 0.1, 0.05], wave, "spherical",
                              OracleSettings(kind="fl", n_directions=20))


class TestRegimeSweep:
    def test_rows_and_diagnostics(self, wave, monkeypatch):
        rg = RegimeParams(a=0.1, s=2.0, t=1.0, beta=0.0, M_max=1.0,
                          d_min=1.0, d_max=2.0, lambda0=-0.5)
        from foldylax import foldy

        # after assembly a certified solve reads B only through GMRES products
        monkeypatch.setattr(foldy, "_checked_lu_solve", None)
        monkeypatch.setattr(WatchedMatrix, "products", 0)
        sweep = []
        for a in (0.1, 0.05):
            regime = dataclasses.replace(rg, a=a)
            system = assemble(generate_grid_cloud(regime, box_side=math.inf), wave, "general")
            sweep.append((regime, solve(dataclasses.replace(
                system, matrix=WatchedMatrix(system.matrix)))))
        assert [sol.system.cloud.M for _, sol in sweep] == [100, 400]
        assert WatchedMatrix.products > 2
        for regime, sol in sweep:
            report = sol.diagnostics
            assert isinstance(report, InvertibilityReport)
            assert sol.residual_inf <= 1e-10
            assert report.condition_applicable
            assert report.frobenius_offdiag_real <= report.bound_rhs
            assert charge_bound_check(sol, regime)
            assert 0.1 < np.max(np.abs(sol.charges)) / regime.a ** (2.0 - regime.beta) < 10.0
