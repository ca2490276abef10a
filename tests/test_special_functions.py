"""The numpy special functions in foldylax.spherical against scipy.special,
and its Gauss-Legendre rule against numpy.polynomial.

The argument ranges are the ones the oracle reaches: kappa*r up to the
resonance guard for the sphere spectra, kappa*d for the translations with
n <= 2L, and tiny kappa*r where j_l underflows towards 1e-180. Near its
zeros j_l has no relative accuracy to test, so kappa*d is checked through
h_n = j_n + i y_n, whose modulus has no zeros.
"""

import math

import numpy as np
import pytest
from scipy.special import eval_legendre, sph_harm_y, spherical_jn, spherical_yn

from foldylax import spherical
from foldylax.oracle import RESONANCE_DIAMETER_LIMIT

TOL = 1e-13  # scipy's own j_l (AMOS) is off by up to 8e-14 at z ~ 1e-6, l ~ 20

SPHERE_Z = np.geomspace(1e-6, RESONANCE_DIAMETER_LIMIT / 2, 400)
TRANSLATION_Z = np.geomspace(0.05, 100.0, 400)
NEAR_SIN_ZEROS = np.array([k * math.pi + e for k in (1, 2) for e in (-1e-9, 0.0, 1e-9)])


def scipy_table(fn, L, z, derivative=False):
    return fn(np.arange(L + 1), np.asarray(z)[..., None], derivative=derivative)


def relative(got, ref):
    return np.max(np.abs(got - ref) / np.abs(ref))


@pytest.mark.parametrize("z", [SPHERE_Z, NEAR_SIN_ZEROS], ids=["sphere", "near-sin-zeros"])
def test_jn_and_hn(z):
    L = 25
    j = spherical.spherical_jn(L, z)
    assert relative(j, scipy_table(spherical_jn, L, z)) <= TOL
    h = j + 1j * spherical.spherical_yn(L, z)
    assert relative(h, scipy_table(spherical_jn, L, z)
                    + 1j * scipy_table(spherical_yn, L, z)) <= TOL
    hp = (spherical.spherical_jn(L, z, derivative=True)
          + 1j * spherical.spherical_yn(L, z, derivative=True))
    assert relative(hp, scipy_table(spherical_jn, L, z, True)
                    + 1j * scipy_table(spherical_yn, L, z, True)) <= TOL


def test_jn_derivative_to_the_scale_of_its_recurrence():
    """j_l' = j_{l-1} - (l+1) j_l/z, as scipy computes it too; j_1' vanishes
    near z = 2.08, so the error is measured against the terms' size."""
    L, z = 25, SPHERE_Z
    got = spherical.spherical_jn(L, z, derivative=True)
    ref = scipy_table(spherical_jn, L, z, True)
    j = scipy_table(spherical_jn, L + 1, z)
    ls = np.arange(1, L + 1)
    scale = np.abs(ref)
    scale[:, 1:] = np.abs(j[:, :L]) + (ls + 1) * np.abs(j[:, 1:L + 1]) / z[:, None]
    assert np.max(np.abs(got - ref) / scale) <= TOL


def test_hn_over_translation_distances():
    """Up to kappa*d = 1e12 too, where j_n comes from the upward recurrence:
    Miller's would start at a degree of about kappa*d."""
    L = 24
    for z in (TRANSLATION_Z, np.geomspace(0.05, 1e12, 400)):
        h = spherical.spherical_jn(L, z) + 1j * spherical.spherical_yn(L, z)
        ref = scipy_table(spherical_jn, L, z) + 1j * scipy_table(spherical_yn, L, z)
        assert relative(h, ref) <= TOL


def test_miller_rescales_where_the_recurrence_would_overflow():
    """At z = 1 and L = 150 the unscaled downward recurrence passes 1e308."""
    L, z = 150, np.array([1.0, 1.5])
    got = spherical.spherical_jn(L, z)[:, :101]
    assert np.all(np.isfinite(got))
    assert relative(got, scipy_table(spherical_jn, 100, z)) <= TOL


def test_miller_values_do_not_depend_on_the_other_arguments():
    """Each element enters the downward recurrence at its own degree: one call
    over radii in [0.3, 3] at kappa = 1.3 gives, bit for bit, the per-element
    calls."""
    z = 1.3 * np.linspace(0.3, 3.0, 50)
    together = spherical.spherical_jn(12, z)
    alone = np.array([spherical.spherical_jn(12, x) for x in z])
    assert together.tobytes() == alone.tobytes()


def test_shapes_and_degree_zero():
    assert spherical.spherical_jn(3, 0.5).shape == (4,)
    assert spherical.spherical_yn(2, np.ones((5, 1))).shape == (5, 1, 3)
    z = np.array([0.5, 2.0])
    assert np.allclose(spherical.spherical_jn(0, z, derivative=True)[:, 0],
                       -spherical_jn(1, z), rtol=TOL, atol=0)
    assert spherical.spherical_jn(4, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def scipy_harmonics(L, points):
    theta, phi = spherical.unit_angles(points)
    return np.column_stack([sph_harm_y(l, m, theta, phi)
                            for l in range(L + 1) for m in range(-l, l + 1)])


def test_harmonics_at_random_points_and_poles():
    """Error per degree against sqrt((2l+1)/(4 pi)), the norm over m of Y_l."""
    L = 24
    rng = np.random.default_rng(3)
    points = rng.normal(size=(300, 3))
    points /= np.linalg.norm(points, axis=1)[:, None]
    points = np.vstack([points, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    got = spherical.harmonic_matrix(L, points)
    ref = scipy_harmonics(L, points)
    ls = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
    scale = np.sqrt((2 * ls + 1) / (4 * np.pi))
    assert np.max(np.abs(got - ref) / scale) <= TOL
    zonal = ls * ls + ls == np.arange(len(ls))  # the m = 0 columns
    north = got[-2]
    assert np.all(north[~zonal] == 0.0)
    assert np.allclose(north[zonal], np.sqrt((2 * np.arange(L + 1) + 1) / (4 * np.pi)),
                       rtol=TOL, atol=0)


def test_legendre_against_eval_legendre():
    L = 40
    x = np.concatenate([np.linspace(-1.0, 1.0, 201), [-1 + 1e-12, 1 - 1e-12]])
    ref = np.stack([eval_legendre(l, x) for l in range(L + 1)], axis=-1)
    assert np.max(np.abs(spherical.legendre_p(L, x) - ref)) <= TOL


@pytest.mark.parametrize("n", [1, 2, 3, 13, 25, 41, 80])
def test_gauss_legendre_against_leggauss(n):
    """Nodes to an ulp of numpy's; weights within numpy's own error, which
    reaches 2e-12 relative at n = 60 (against 5e-14 here, by mpmath), and
    the rule integrates x^(2k), k < n, exactly."""
    x, w = spherical.gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - ref_x)) <= 2.3e-16
    assert np.max(np.abs(w / ref_w - 1.0)) <= 1e-11
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    k = np.arange(n)
    assert np.max(np.abs((x[:, None] ** (2 * k)).T @ w - 2.0 / (2 * k + 1))) <= 1e-14
