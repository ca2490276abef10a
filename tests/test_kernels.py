import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foldylax import NonUnitDirection, kernels
from foldylax.kernels import farfield_kernel, fibonacci_sphere, plane_wave

from dense_reference import phi

coord = st.floats(-10.0, 10.0, allow_nan=False)
point = st.tuples(coord, coord, coord).map(lambda p: np.array(p))


def test_phi_reference_value():
    # kappa=1, unit separation: e^(i)/(4 pi)
    x, y = np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])
    expected = np.exp(1j) / (4 * np.pi)
    assert phi(1.0, x, y) == pytest.approx(expected, abs=1e-16)


def test_phi_static_limit():
    # small kappa*r: phi -> 1/(4 pi r)
    x, y = np.zeros(3), np.array([0.0, 2.0, 0.0])
    assert phi(1e-9, x, y) == pytest.approx(1 / (8 * np.pi), rel=1e-8)


def test_phi_satisfies_helmholtz():
    """Second-order FD Laplacian: (lap + kappa^2) phi ~ 0 away from the pole."""
    kappa, h = 1.7, 1e-3
    y = np.zeros(3)
    x = np.array([0.8, -0.3, 0.5])
    lap = -6.0 * phi(kappa, x, y)
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        lap += phi(kappa, x + e, y) + phi(kappa, x - e, y)
    lap /= h * h
    residual = abs(lap + kappa**2 * phi(kappa, x, y))
    assert residual <= 1e-4 * kappa**2 * abs(phi(kappa, x, y))


def test_plane_wave_values(wave):
    x = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, np.pi]])
    vals = plane_wave(wave.kappa, wave.theta, x)
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(-1.0)


def test_farfield_kernel_is_conjugate_plane_wave():
    kappa = 1.3
    xhat = np.array([[0.0, 1.0, 0.0]])
    z = np.array([0.4, -1.0, 2.0])
    # e^(-i kappa xhat.z) = conj(e^(+i kappa xhat.z))
    assert farfield_kernel(kappa, xhat, z)[0] == pytest.approx(
        np.conj(plane_wave(kappa, xhat[0], z[None, :])[0]))


def test_farfield_kernel_rejects_non_unit():
    z = np.zeros(3)
    with pytest.raises(NonUnitDirection):
        farfield_kernel(1.0, np.array([[0.0, 0.0, 1.1]]), z)
    with pytest.raises(NonUnitDirection):
        farfield_kernel(1.0, np.array([[0.0, 0.0, 1.0 + 1e-9]]), z)
    with pytest.raises(NonUnitDirection):  # NaN fails every comparison
        farfield_kernel(1.0, np.array([[np.nan, 0.0, 0.0]]), z)
    # 1e-10 unit tolerance admits roundoff-level deviations
    farfield_kernel(1.0, np.array([[0.0, 0.0, 1.0 + 1e-11]]), z)


class TestFibonacciSphere:
    def test_shape_and_unit_norm(self):
        pts = fibonacci_sphere(200)
        assert pts.shape == (200, 3)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-15)

    def test_deterministic(self):
        assert np.array_equal(fibonacci_sphere(64), fibonacci_sphere(64))

    def test_quasi_uniform_spread(self):
        pts = fibonacci_sphere(100)
        dots = pts @ pts.T
        np.fill_diagonal(dots, -1.0)
        # nearest neighbors stay separated: no pair closer than ~half the
        # mean spacing 2/sqrt(n)
        assert np.max(dots) < 1.0 - 0.5 * (2.0 / np.sqrt(100)) ** 2 / 2

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            fibonacci_sphere(0)


@settings(max_examples=100, deadline=None)
@given(x=point, y=point, kappa=st.floats(0.1, 6.0))
def test_phi_symmetry_and_modulus(x, y, kappa):
    r = np.linalg.norm(x - y)
    if r < 1e-6:
        return
    a, b = phi(kappa, x, y), phi(kappa, y, x)
    assert a == b
    assert abs(abs(a) - 1 / (4 * np.pi * r)) <= 1e-12 / r


@settings(max_examples=100, deadline=None)
@given(x=point, y=point, v=point, kappa=st.floats(0.1, 6.0))
@example(x=np.zeros(3), y=np.array([2.0915112154849576e-06, 0.0, 0.0]),
         v=np.array([1.0, 0.0, 0.0]), kappa=1.0)
def test_phi_translation_invariance(x, y, v, kappa):
    """Rounding x + v and y + v moves r = |x - y| by a few u (|x + v| + |y + v|),
    which cancellation can make large against r, and phi by (kappa + 1/r)
    times that, relative."""
    r = np.linalg.norm(x - y)
    if r < 1e-6:
        return
    dr = 8 * np.finfo(float).eps / 2 * (np.linalg.norm(x + v) + np.linalg.norm(y + v))
    rel = max(1e-12, (kappa + 1 / r) * dr)
    assert phi(kappa, x + v, y + v) == pytest.approx(phi(kappa, x, y), rel=rel)


@settings(max_examples=100, deadline=None)
@given(z=point, kappa=st.floats(0.1, 6.0), i=st.integers(0, 63))
def test_farfield_kernel_unimodular(z, kappa, i):
    xhat = fibonacci_sphere(64)[i:i + 1]
    val = farfield_kernel(kappa, xhat, z)[0]
    assert abs(val) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("shapes", [((3,), (3,)), ((7, 3), (3,)), ((3,), (5, 3)),
                                    ((40, 1, 3), (1, 300, 3)), ((1, 1, 3), (1, 9, 3))])
def test_dot3_is_the_length_3_sum_bit_for_bit(shapes):
    """plane_wave and farfield_kernel take x.y as (x0*y0 + x1*y1) + x2*y2,
    the sum np.sum(x * y, axis=-1) gives, for every broadcast they meet."""
    rng = np.random.default_rng(len(shapes[0]) * 10 + len(shapes[1]))
    for _ in range(20):
        x = rng.normal(size=shapes[0]) * 10.0 ** rng.uniform(-3, 3, size=shapes[0])
        y = rng.normal(size=shapes[1]) * 10.0 ** rng.uniform(-3, 3, size=shapes[1])
        assert np.array_equal(kernels._dot3(x, y), np.sum(x * y, axis=-1))
