import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldylax import (FarFieldGrid, GridMismatch, InfeasibleOracle,
                      InvertibilityReport, OracleSettings, RegimeParams, assemble, convergence_study,
                      farfield, farfield_error, fit_rate, oracle_farfield,
                      predicted_slope, regime_sweep, solve)
from foldylax.kernels import fibonacci_sphere

from conftest import make_cloud, make_wave


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
        fit = fit_rate([0.2, 0.1, 0.05], [0.0, 1e-13, 1e-12], 3.0)
        assert fit.n_used == 0
        assert fit.slope == 0.0
        assert fit.r_squared == 0.0

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            fit_rate([0.2, 0.1], [1.0, 0.5], 1.0)

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
        dirs = fibonacci_sphere(16)
        single = make_cloud([[0, 0, 0]], 0.05, -1.0)
        _, res, dens = oracle_farfield(single, wave, dirs,
                                       OracleSettings(L=6, quad_order=12))
        assert math.isnan(res) and dens is None
        pair = make_cloud([[0, 0, 0], [0.5, 0, 0]], 0.05, -1.0)
        _, res2, dens2 = oracle_farfield(pair, wave, dirs,
                                         OracleSettings(L=6, quad_order=12))
        assert res2 <= 1e-9 and len(dens2) == 2

    def test_mie_requires_single(self, wave):
        pair = make_cloud([[0, 0, 0], [0.5, 0, 0]], 0.05, -1.0)
        with pytest.raises(ValueError):
            oracle_farfield(pair, wave, fibonacci_sphere(8),
                            OracleSettings(kind="mie"))

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

    def test_cap_enforced(self, wave):
        pair = make_cloud([[0, 0, 0], [0.5, 0, 0]], 0.05, -1.0)
        with pytest.raises(InfeasibleOracle):
            oracle_farfield(pair, wave, fibonacci_sphere(8),
                            OracleSettings(kind="bie", L=50))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            OracleSettings(kind="exact")


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

    def test_noise_floor_tolerated(self, wave):
        """fl oracle yields exact zeros; the fit degrades gracefully."""
        rg = RegimeParams(a=0.1, s=0.0, t=1.0, beta=0.0, lambda0=-1.0)
        st_out = convergence_study(rg, [0.2, 0.1, 0.05], wave, "spherical",
                                   OracleSettings(kind="fl", n_directions=20))
        assert all(r.error == 0.0 for r in st_out.records)
        assert st_out.fit.n_used == 0
        assert st_out.fit.slope == 0.0


class TestRegimeSweep:
    def test_rows_and_diagnostics(self, wave, monkeypatch):
        rg = RegimeParams(a=0.1, s=2.0, t=1.0, beta=0.0, M_max=1.0,
                          d_min=1.0, d_max=2.0, lambda0=-0.5)
        from foldylax import foldy
        calls = []
        report = foldy.invertibility_report
        monkeypatch.setattr(foldy, "invertibility_report",
                            lambda *a, **k: calls.append(1) or report(*a, **k))
        rows = regime_sweep(rg, [0.1, 0.05], wave)
        assert [r.M for r in rows] == [100, 400]
        assert len(calls) == 2  # one report per row: the solve's own
        for row in rows:
            assert isinstance(row.report, InvertibilityReport)
            assert row.residual <= 1e-10
            assert row.report.condition_applicable
            assert row.report.frobenius_offdiag_real <= row.report.bound_rhs
            assert row.charge_bound_ok
            assert 0.1 < row.charge_ratio < 10.0
