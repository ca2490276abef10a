"""Closed-form sphere operator spectra vs an independent Nystrom quadrature."""

import numpy as np
import pytest
from scipy.special import spherical_jn, spherical_yn

from foldylax import ResonanceGuard, sphere_operator_spectra
from foldylax.spherical import harmonic_matrix, sphere_quadrature

from quadrature_oracles import nystrom_apply


def ref_jl(l, z):
    return spherical_jn(l, z)


def ref_hl(l, z):
    return spherical_jn(l, z) + 1j * spherical_yn(l, z)


class TestClosedForms:
    def test_definition(self):
        # s_l = i kappa r^2 j_l(kr) h_l(kr), dstar_l = 1/2 + i kappa^2 r^2 j_l(kr) h_l'(kr)
        kappa, r, L = 1.3, 0.4, 6
        sp = sphere_operator_spectra(kappa, r, L)
        z = kappa * r
        for l in range(L + 1):
            s_expected = 1j * kappa * r * r * ref_jl(l, z) * ref_hl(l, z)
            assert sp.single_layer[l] == pytest.approx(s_expected, rel=1e-14)
            hp = spherical_jn(l, z, derivative=True) + 1j * spherical_yn(l, z, derivative=True)
            d_expected = 0.5 + 1j * kappa**2 * r * r * ref_jl(l, z) * hp
            assert sp.adjoint_double[l] == pytest.approx(d_expected, rel=1e-13)

    def test_static_limits(self):
        # kappa r -> 0: s_l -> r/(2l+1) and the principal-value adjoint
        # eigenvalue dstar_l -> -1/(2(2l+1)); Im parts decay like (kappa r)^2
        kappa, r = 1e-6, 0.3
        sp = sphere_operator_spectra(kappa, r, 5)
        for l in range(6):
            assert sp.single_layer[l].real == pytest.approx(r / (2 * l + 1), rel=1e-9)
            assert abs(sp.single_layer[l].imag) <= kappa * r * r * (1 + 1e-9)
            assert sp.adjoint_double[l].real == pytest.approx(
                -1.0 / (2 * (2 * l + 1)), rel=1e-8)

    def test_imag_part_sign(self):
        # Im s_l = kappa r^2 j_l(kr)^2 >= 0 for all l
        kappa, r = 1.7, 0.5
        sp = sphere_operator_spectra(kappa, r, 10)
        z = kappa * r
        for l in range(11):
            assert sp.single_layer[l].imag == pytest.approx(
                kappa * r * r * ref_jl(l, z) ** 2, rel=1e-12, abs=1e-300)
            assert sp.single_layer[l].imag >= 0

    def test_resonance_guard(self):
        # diameter limit kappa * 2r < (4 pi / 3)^(1/3) * pi
        limit = (4 * np.pi / 3) ** (1 / 3) * np.pi
        sphere_operator_spectra(1.0, 0.49 * limit, 4)
        with pytest.raises(ResonanceGuard):
            sphere_operator_spectra(1.0, 0.51 * limit, 4)

    def test_truncation_monotone_prefix(self):
        # increasing L preserves the earlier entries exactly
        a = sphere_operator_spectra(1.1, 0.3, 4)
        b = sphere_operator_spectra(1.1, 0.3, 9)
        assert np.array_equal(a.single_layer, b.single_layer[:5])
        assert np.array_equal(a.adjoint_double, b.adjoint_double[:5])


class TestNystromAgreement:
    """Spectra vs a dense rotated-pole quadrature applied to Y_lm densities."""

    @pytest.mark.parametrize("l,m", [(0, 0), (1, 0), (2, 1), (3, -2), (5, 4)])
    def test_single_layer_eigenfunctions(self, l, m):
        kappa, r = 1.2, 0.35
        sp = sphere_operator_spectra(kappa, r, l)
        quad = sphere_quadrature(8)
        targets = quad.points[:12]
        Y = harmonic_matrix(l, targets)[:, l * l + l + m]

        def density(pts):
            return harmonic_matrix(l, pts)[:, l * l + l + m]

        applied = nystrom_apply(kappa, r, density, targets, order=40,
                                operator="single")
        assert np.allclose(applied, sp.single_layer[l] * Y, atol=1e-8)

    @pytest.mark.parametrize("l,m", [(0, 0), (2, -1), (4, 3)])
    def test_adjoint_eigenfunctions(self, l, m):
        kappa, r = 0.9, 0.4
        sp = sphere_operator_spectra(kappa, r, l)
        quad = sphere_quadrature(8)
        targets = quad.points[:12]
        Y = harmonic_matrix(l, targets)[:, l * l + l + m]

        def density(pts):
            return harmonic_matrix(l, pts)[:, l * l + l + m]

        applied = nystrom_apply(kappa, r, density, targets, order=40,
                                operator="adjoint")
        # the quadrature computes the principal-value integral, which is the
        # stored eigenvalue itself (the -1/2 jump term lives in the BIE diagonal)
        assert np.allclose(applied, sp.adjoint_double[l] * Y, atol=1e-8)

    def test_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            nystrom_apply(1.0, 0.3, lambda p: np.ones(len(p)),
                          np.array([[0.0, 0.0, 1.0]]), operator="double")
