"""Separation-of-variables reference: identities and failure modes."""

import numpy as np
import pytest

from foldylax import (SeriesNotConverged, assemble, bie_farfield, assemble_bie,
                      farfield, solve, solve_bie)
from foldylax.kernels import fibonacci_sphere

from cloud_helpers import make_cloud, make_wave
from quadrature_oracles import mie_reference, optical_theorem_residual


def test_agrees_with_bie_single_sphere(tilted_wave):
    dirs = fibonacci_sphere(60)
    r, lam = 0.15, -1.3 + 0.4j
    mie = mie_reference(tilted_wave, r, lam, dirs, L=10)
    sol = solve_bie(assemble_bie(make_cloud([[0, 0, 0]], r, lam),
                                 tilted_wave, L=10, quad_order=20))
    bie = bie_farfield(sol, dirs)
    assert np.max(np.abs(mie.values - bie.values)) <= 1e-10


def test_depends_only_on_scattering_angle(wave):
    # Uinf is a function of xhat.theta alone for a sphere at the origin
    d1 = np.array([[0.6, 0.8, 0.0]])
    d2 = np.array([[0.6, -0.48, 0.64]])  # same z-component structure
    d1[0] /= np.linalg.norm(d1[0])
    d2[0] /= np.linalg.norm(d2[0])
    # force equal dot with theta=(0,0,1): rebuild second direction
    mu = 0.3
    d1 = np.array([[np.sqrt(1 - mu**2), 0.0, mu]])
    d2 = np.array([[0.0, np.sqrt(1 - mu**2), mu]])
    v1 = mie_reference(wave, 0.2, -1.0, d1).values[0]
    v2 = mie_reference(wave, 0.2, -1.0, d2).values[0]
    assert v1 == pytest.approx(v2, rel=1e-14)


def test_small_sphere_matches_point_scatterer(wave):
    """kappa r -> 0: the l = 0 mode dominates and approaches the monopole
    with the spherical coefficient Q = 4 pi lambda r^2 / (1 - lambda r);
    the relative gap is the dipole contribution, O(kappa r)."""
    dirs = fibonacci_sphere(20)
    lam = -1.0
    rels = []
    for r in (0.01, 0.005):
        mie = mie_reference(wave, r, lam, dirs)
        cloud = make_cloud([[0, 0, 0]], r, lam)
        fl = farfield(solve(assemble(cloud, wave, "spherical")), dirs)
        rels.append(np.max(np.abs(mie.values - fl.values))
                    / np.max(np.abs(mie.values)))
    assert rels[0] <= 1e-2
    assert rels[0] / rels[1] == pytest.approx(2.0, rel=0.1)


def test_tail_check_raises(wave):
    # truncating at L = 1 leaves an O((kappa r)^2) relative tail
    with pytest.raises(SeriesNotConverged):
        mie_reference(wave, 0.3, -1.0, np.array([[0.0, 0.0, 1.0]]), L=1)


def test_rejects_bad_radius(wave):
    with pytest.raises(ValueError):
        mie_reference(wave, -0.1, -1.0, np.array([[0.0, 0.0, 1.0]]))


class TestOpticalTheorem:
    def evaluator(self, wave, r, lam, L=12):
        return lambda dirs: mie_reference(wave, r, lam, dirs, L=L).values

    def test_identity_for_real_impedance(self, wave):
        check = optical_theorem_residual(self.evaluator(wave, 0.3, -2.0), wave)
        assert check.residual <= 1e-6
        assert check.absorbing_sign_ok

    def test_identity_under_rotation(self):
        wave = make_wave(kappa=1.4, theta=(0.3, -0.5, 0.9))
        check = optical_theorem_residual(self.evaluator(wave, 0.25, -0.7), wave)
        assert check.residual <= 1e-6

    def test_absorbing_inequality(self, wave):
        # Im(lambda) > 0 absorbs: extinction strictly exceeds scattered power
        check = optical_theorem_residual(self.evaluator(wave, 0.3, -1.0 + 0.8j), wave)
        assert check.absorbing_sign_ok
        assert check.extinction > check.scattered * 1.01

    def test_wrong_length_rejected(self, wave):
        with pytest.raises(ValueError):
            optical_theorem_residual(lambda dirs: np.ones(3, dtype=complex), wave)
