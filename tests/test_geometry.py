import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldylax import (CapacityExceeded, IncidentWave, NonUnitDirection, OverlappingSpheres,
                      RegimeParams, RegimeViolation, ScattererCloud,
                      generate_grid_cloud)
from foldylax import geometry
from foldylax.geometry import CLOUD_BYTES_PER_SPHERE

from cloud_helpers import make_cloud


def std_regime(**kw):
    base = dict(a=0.05, s=2.0, t=1.0, beta=0.0, M_max=1.0,
                d_min=1.0, d_max=2.0, lambda0=-0.5)
    base.update(kw)
    return RegimeParams(**base)


class TestRegimeParams:
    def test_counts_and_impedance(self):
        rg = std_regime(a=0.1, s=1.5, beta=0.5, lambda0=-2.0)
        assert rg.M == 31
        assert rg.impedance == pytest.approx(-2.0 * 0.1**-0.5)

    def test_count_floor_is_one(self):
        assert std_regime(a=0.5, s=0.0, M_max=1.0).M == 1
        assert std_regime(a=0.5, s=1.0, M_max=0.1).M == 1

    def test_count_floor_exact_boundary(self):
        # M_max * a^(-s) = 8 exactly; floor must not lose it to roundoff
        assert std_regime(a=0.25, s=1.5, M_max=1.0).M == 8

    @pytest.mark.parametrize("bad", [
        dict(s=2.5, beta=0.0),          # s <= 2 - beta
        dict(s=2.0, beta=0.5),
        dict(beta=1.5),                 # beta <= 1
        dict(s=1.5, t=0.4),             # s/3 <= t
    ])
    def test_admissibility_rejected(self, bad):
        with pytest.raises(RegimeViolation):
            std_regime(**bad)

    def test_admissibility_boundaries_allowed(self):
        std_regime(s=2.0, beta=0.0)     # s = 2 - beta
        std_regime(s=1.5, beta=0.5, t=0.5)
        std_regime(beta=1.0, s=1.0)     # beta = 1 admissible (general variant refuses later)

    @pytest.mark.parametrize("bad", [dict(a=0.0), dict(a=-0.1), dict(d_min=0.0),
                                     dict(d_min=3.0), dict(M_max=0.0),
                                     dict(lambda0=0.0), dict(M_max=math.inf),
                                     dict(M_max=math.nan), dict(a=1e-200, s=2.0),
                                     # every field finite, NaN included
                                     dict(a=math.inf), dict(s=math.nan), dict(t=math.inf),
                                     dict(d_min=math.inf), dict(d_max=math.inf),
                                     dict(lambda0=complex(math.inf, 0.0)), dict(a=10**400)])
    def test_invalid_parameters(self, bad):
        with pytest.raises((RegimeViolation, ValueError)):
            std_regime(**bad)

    @pytest.mark.parametrize("part", [math.inf, math.nan])
    def test_nonfinite_lambda0_names_its_rule(self, part):
        with pytest.raises(RegimeViolation, match=r"^regime admissibility violated: "
                                                  r"0 < \|lambda0\| < inf$"):
            std_regime(lambda0=complex(part, 0.0))


class TestGenerateGridCloud:
    def test_single_sphere_at_origin(self):
        cloud = generate_grid_cloud(std_regime(a=0.3, s=0.0), box_side=10.0)
        assert cloud.M == 1
        assert np.all(cloud.centers[0] == 0.0)
        assert cloud.radii[0] == pytest.approx(0.15)

    def test_counts_and_window(self):
        rg = std_regime(a=0.05, s=2.0)
        cloud = generate_grid_cloud(rg, box_side=math.inf)
        assert cloud.M == 400
        lo, hi = rg.d_min * rg.a, rg.d_max * rg.a
        assert lo * (1 - 1e-12) <= cloud.d_eff <= hi * (1 + 1e-12)
        assert cloud.a_eff == pytest.approx(rg.a)

    @pytest.mark.parametrize("m_max", [1, 2, 5, 8, 20, 27, 28, 108, 2500])
    def test_lattice_fills_cells_in_lexicographic_order(self, m_max):
        """The centers equal those of the Python loop over all n^3 cells."""
        rg = std_regime(a=0.04, s=0.0, M_max=m_max)
        n = math.ceil(m_max ** (1 / 3) - 1e-9)
        idx = np.array([(i, j, k) for i in range(n) for j in range(n)
                        for k in range(n)][:m_max], dtype=float)
        lo, hi = idx.min(axis=0), idx.max(axis=0)
        pitch = rg.a + rg.d_min * rg.a**rg.t
        cloud = generate_grid_cloud(rg, box_side=math.inf)
        assert np.array_equal(cloud.centers, (idx - (lo + hi) / 2.0) * pitch)

    def test_peak_memory_within_the_guard(self):
        """M = 10^4 with jitter: the tracemalloc peak stays below what
        generate_grid_cloud asks of the memory guard."""
        rg = std_regime(a=0.04, s=0.0, M_max=1e4)
        generate_grid_cloud(std_regime(a=0.04, s=0.0, M_max=30), math.inf, jitter=0.3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cloud = generate_grid_cloud(rg, box_side=math.inf, jitter=0.3, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert cloud.M == 10**4
        assert peak <= CLOUD_BYTES_PER_SPHERE * cloud.M

    def test_determinism_bitwise(self):
        rg = std_regime(a=0.1, s=1.5)
        c1 = generate_grid_cloud(rg, box_side=math.inf, jitter=0.3, seed=11)
        c2 = generate_grid_cloud(rg, box_side=math.inf, jitter=0.3, seed=11)
        assert np.array_equal(c1.centers, c2.centers)
        assert np.array_equal(c1.radii, c2.radii)
        assert np.array_equal(c1.impedances, c2.impedances)

    def test_seed_changes_jittered_centers(self):
        rg = std_regime(a=0.1, s=1.5)
        c1 = generate_grid_cloud(rg, box_side=math.inf, jitter=0.3, seed=1)
        c2 = generate_grid_cloud(rg, box_side=math.inf, jitter=0.3, seed=2)
        assert not np.array_equal(c1.centers, c2.centers)

    @pytest.mark.parametrize("seed", range(100))
    def test_jitter_preserves_window(self, seed):
        rg = std_regime(a=0.08, s=1.7, t=1.0)
        cloud = generate_grid_cloud(rg, box_side=math.inf, jitter=0.45, seed=seed)
        lo, hi = rg.d_min * rg.a**rg.t, rg.d_max * rg.a**rg.t
        assert lo * (1 - 1e-12) <= cloud.d_eff <= hi * (1 + 1e-12)

    def test_jitter_window_compatibility(self):
        # worst-case approach of two jittered neighbors is (1+2*jitter)*d_min
        with pytest.raises(RegimeViolation):
            generate_grid_cloud(std_regime(a=0.05, s=2.0), box_side=math.inf,
                                jitter=0.6, seed=0)
        with pytest.raises(RegimeViolation):
            generate_grid_cloud(std_regime(a=0.05, s=2.0), box_side=math.inf,
                                jitter=1.0, seed=0)

    def test_capacity(self):
        rg = std_regime(a=0.05, s=2.0)  # M = 400, lattice spans ~0.8
        with pytest.raises(CapacityExceeded):
            generate_grid_cloud(rg, box_side=0.3)
        generate_grid_cloud(rg, box_side=2.0)

    def test_regime_tag_attached(self):
        rg = std_regime(a=0.05, s=2.0)
        cloud = generate_grid_cloud(rg, box_side=math.inf)
        assert cloud.regime is rg
        assert cloud.M == 400

    def test_beta_scales_the_impedances(self):
        rg = std_regime(a=0.04, s=1.0, beta=0.5, lambda0=-0.3)
        cloud = generate_grid_cloud(rg, box_side=math.inf)
        assert np.allclose(cloud.impedances, -0.3 * 0.04**-0.5)


class TestScattererCloud:
    def test_overlap_rejected(self):
        with pytest.raises(OverlappingSpheres):
            make_cloud([[0, 0, 0], [0.1, 0, 0]], 0.06, -1.0)

    @pytest.mark.parametrize("centers, radius", [([[0, 0, 0], [1e150, 0, 0]], 0.1),
                                                 ([[0, 0, 0]], 1e300)])
    def test_coordinates_whose_squares_overflow_rejected(self, centers, radius):
        with pytest.raises(ValueError, match="below 1e"):
            make_cloud(centers, radius, -1.0)

    def test_zero_impedance_rejected(self):
        with pytest.raises(ValueError):
            make_cloud([[0, 0, 0]], 0.1, 0.0)

    @pytest.mark.parametrize("centers, radii, areas, message", [
        (np.empty((0, 3)), [], None, "^cloud must contain at least one scatterer$"),
        ([[0.0, 0.0, np.nan]], [0.1], None, "^cloud data must be finite$"),
        ([[0.0, 0.0, 0.0]], [0.0], None, r"^radii must lie in \[1e-150, 1e\+150\)$"),
        ([[0.0, 0.0, 0.0]], [0.1], [0.0],
         "^areas must be positive normal floats, one per scatterer$"),
        ([[0.0, 0.0, 0.0]], [0.1], [np.nan], "^cloud data must be finite$"),
        ([[0.0, 0.0, 0.0]], [0.1], [-np.inf], "^cloud data must be finite$"),
        ([[0.0, 0.0, 0.0]], [1e-160], None, r"^radii must lie in \[1e-150, 1e\+150\)$"),
        ([[0.0, 0.0, 0.0]], [np.nextafter(1e-150, 0)], [1e-3],
         r"^radii must lie in \[1e-150, 1e\+150\)$"),
        ([[0.0, 0.0, 0.0]], [0.1], [1e-320],
         "^areas must be positive normal floats, one per scatterer$")])
    def test_invalid_cloud_rejected(self, centers, radii, areas, message):
        with pytest.raises(ValueError, match=message):
            ScattererCloud(centers=centers, radii=radii,
                           impedances=np.full(len(radii), -1.0 + 0j), areas=areas)

    @pytest.mark.parametrize("areas", [None, [1e-3, 1e-3]])
    def test_radius_floor_is_admitted(self, areas):
        """Two spheres of radius RADIUS_MIN with centers three radii apart:
        4 pi r^2 and the squared distance of the centers are normal floats."""
        r = geometry.RADIUS_MIN
        cloud = ScattererCloud(centers=[[0.0, 0.0, 0.0], [3 * r, 0.0, 0.0]], radii=[r, r],
                               impedances=[-1.0, -1.0], areas=areas)
        assert cloud.d_eff > 0 and (3 * r) ** 2 >= np.finfo(float).tiny
        assert cloud.areas.min() >= np.finfo(float).tiny

    @pytest.mark.parametrize("centers, radius, message", [
        ([[0, 0, 0], [0.125, 0, 0]], 0.025, r"M <= M_max \* a\^\(-s\)$"),
        ([[0, 0, 0]], 0.03, r"2\*max\(r_m\) <= a$")])
    def test_regime_count_and_radius_enforced(self, centers, radius, message):
        """At a = 0.05, s = 0 and M_max = 1 the regime admits one sphere of
        radius at most 0.025; two in the separation window are one too many."""
        rg = std_regime(a=0.05, s=0.0)
        with pytest.raises(RegimeViolation, match=message):
            make_cloud(centers, radius, -0.5, regime=rg)

    def test_regime_window_enforced(self):
        rg = std_regime(a=0.05, s=2.0)
        # separation 0.3 is far above d_max * a = 0.1
        with pytest.raises(RegimeViolation):
            ScattererCloud(centers=np.array([[0, 0, 0], [0.3, 0, 0]]),
                           radii=np.full(2, 0.025), impedances=np.full(2, -0.5 + 0j),
                           regime=rg)

    def test_single_sphere_exempt_from_count_rule(self):
        rg = std_regime(a=0.05, s=0.0, M_max=0.2)  # M_max * a^0 < 1
        make_cloud([[0, 0, 0]], 0.025, -0.5, regime=rg)

    def test_general_areas_flag(self):
        c = make_cloud([[0, 0, 0]], 0.1, -1.0, areas=np.array([0.2]))
        assert not c.is_spherical
        assert c.areas[0] == pytest.approx(0.2)
        c2 = make_cloud([[0, 0, 0]], 0.1, -1.0)
        assert c2.is_spherical
        assert c2.areas[0] == pytest.approx(4 * np.pi * 0.01)

    def test_arrays_read_only(self):
        c = make_cloud([[0, 0, 0]], 0.1, -1.0)
        with pytest.raises(ValueError):
            c.centers[0, 0] = 1.0


class TestIncidentWave:
    def test_unit_tolerance(self):
        IncidentWave(kappa=1.0, theta=np.array([0.0, 0.0, 1.0 + 9e-15]))
        with pytest.raises(ValueError):
            IncidentWave(kappa=1.0, theta=np.array([0.0, 0.0, 1.0 + 1e-12]))

    def test_kappa_window(self):
        with pytest.raises(ValueError):
            IncidentWave(kappa=0.0, theta=np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match=r"^kappa must lie in \(0, 6\.283185307179586\]$"):
            IncidentWave(kappa=7.0, theta=np.array([0.0, 0.0, 1.0]))
        IncidentWave(kappa=2 * math.pi, theta=np.array([0.0, 0.0, 1.0]))

    def test_nan_theta_rejected(self):
        """NaN and +-inf fail the one unit check, with its one message."""
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonUnitDirection, match="^directions must be unit vectors$"):
                IncidentWave(kappa=1.0, theta=np.array([0.0, 0.0, bad]))


@settings(max_examples=50, deadline=None)
@given(a=st.floats(0.01, 0.3), s=st.floats(0.0, 2.0),
       seed=st.integers(0, 2**31 - 1), jitter=st.floats(0.0, 0.45))
def test_generated_cloud_invariants(a, s, seed, jitter):
    """Any admissible generated cloud satisfies its own regime window."""
    rg = RegimeParams(a=a, s=s, t=1.0, beta=0.0, M_max=min(1.0, 30.0 * a**s),
                      d_min=1.0, d_max=2.0, lambda0=-1.0)
    cloud = generate_grid_cloud(rg, box_side=math.inf, jitter=jitter, seed=seed)
    assert 1 <= cloud.M <= max(1, int(rg.M_max * a**-s + 1e-9))
    assert cloud.a_eff <= a * (1 + 1e-12)
    if cloud.M >= 2:
        assert rg.d_min * a * (1 - 1e-12) <= cloud.d_eff <= rg.d_max * a * (1 + 1e-12)
    # rebuilding with the same data revalidates cleanly
    dataclasses.replace(cloud)


EDGE_SEEDS = [2**32 - 1, 2**32, 2**128, 2**200 + 12345, 2**128 + 2**64 + 7]


class TestOwnedJitterStream:
    """generate_grid_cloud draws its jitter from its own PCG64 stream, which
    must stay numpy.random.default_rng(seed).uniform(-1, 1, (M, 3)) bit for bit:
    perfbench/references.json pins the clouds of 100 seeds."""

    @staticmethod
    def assert_bitwise(seed, M):
        ref = np.random.default_rng(seed).uniform(-1.0, 1.0, (M, 3))
        got = geometry._uniform_jitter(seed, 3 * M).reshape(M, 3)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), (seed, M)

    @pytest.mark.parametrize("seed", list(range(100)) + EDGE_SEEDS)
    def test_matches_numpy_default_rng(self, seed):
        for M in (1, 7):
            self.assert_bitwise(seed, M)

    @pytest.mark.parametrize("M", [2500, 10**4])
    def test_matches_numpy_for_large_clouds(self, M):
        for seed in (0, 1, 2**128):
            self.assert_bitwise(seed, M)

    @pytest.mark.parametrize("seed", range(100))
    def test_workload_clouds_unchanged(self, seed):
        """The jittered clouds of the benchmark workloads, against numpy's stream."""
        regimes = [RegimeParams(a=0.02, s=2.0, t=1.0, beta=0.0, lambda0=-0.5)]
        regimes += [RegimeParams(a=a, s=1.0, t=1.0, beta=0.0, M_max=m_max, lambda0=-1.0)
                    for a, m_max in ((0.04, 0.32), (0.04, 0.2), (0.02, 0.2), (0.01, 0.2))]
        for rg in regimes:
            cloud = generate_grid_cloud(rg, box_side=math.inf, jitter=0.3, seed=seed)
            n = math.ceil(rg.M ** (1 / 3) - 1e-9)
            idx = np.column_stack(np.unravel_index(np.arange(rg.M), (n, n, n))).astype(float)
            d_nom = rg.d_min * rg.a**rg.t
            lattice = (idx - (idx.min(axis=0) + idx.max(axis=0)) / 2.0) * (rg.a + 1.3 * d_nom)
            disp = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(rg.M, 3))
            ref = lattice + disp * (0.3 * d_nom / (2.0 * math.sqrt(3.0)))
            assert np.array_equal(cloud.centers, ref)
