import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from foldylax import RegimeParams, generate_grid_cloud
from foldylax.io import (fmt, load_cloud, save_cloud, write_charges_csv,
                         write_density_csv, write_farfield_csv, write_study_csv,
                         write_text_atomic)

from cloud_helpers import make_cloud, read_csv


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_round_trips_any_float(x):
    assert float(fmt(x)) == x


def test_fmt_shortest_common_values():
    assert fmt(1.0) == "1"
    assert fmt(0.5) == "0.5"
    assert fmt(-0.05) == "-0.050000000000000003"


class TestCloudRoundTrip:
    def test_bare_cloud(self, tmp_path):
        cloud = make_cloud([[0.1, 0.2, 0.3], [1.0, 0, 0]], 0.05, -1.5 + 0.25j)
        path = tmp_path / "c.json"
        save_cloud(path, cloud)
        back = load_cloud(path)
        assert np.array_equal(back.centers, cloud.centers)
        assert np.array_equal(back.radii, cloud.radii)
        assert np.array_equal(back.impedances, cloud.impedances)
        assert back.regime is None
        assert back.is_spherical

    def test_regime_preserved_exactly(self, tmp_path):
        rg = RegimeParams(a=0.05, s=2.0, t=1.0, beta=0.0, M_max=1.0,
                          d_min=1.0, d_max=2.0, lambda0=-0.5 + 0.125j)
        cloud = generate_grid_cloud(rg, box_side=math.inf, jitter=0.3, seed=3)
        path = tmp_path / "c.json"
        save_cloud(path, cloud)
        back = load_cloud(path)
        assert np.array_equal(back.centers, cloud.centers)
        assert back.regime is not None
        for field in ("a", "s", "t", "beta", "M_max", "d_min", "d_max", "lambda0"):
            assert getattr(back.regime, field) == getattr(rg, field)

    def test_general_areas_preserved(self, tmp_path):
        cloud = make_cloud([[0, 0, 0]], 0.1, -1.0, areas=np.array([0.07]))
        path = tmp_path / "c.json"
        save_cloud(path, cloud)
        back = load_cloud(path)
        assert not back.is_spherical
        assert back.areas[0] == 0.07

    def test_jittered_lattice_round_trips_bit_for_bit(self, tmp_path):
        rg = RegimeParams(a=0.02, s=2.0, t=1.0, beta=0.0, lambda0=-0.5)
        cloud = generate_grid_cloud(rg, box_side=math.inf, jitter=0.3, seed=5)
        assert cloud.M == 2500
        path = tmp_path / "c.json"
        save_cloud(path, cloud)
        back = load_cloud(path)
        for name in ("centers", "radii", "impedances"):
            assert getattr(back, name).tobytes() == getattr(cloud, name).tobytes()
        assert back.regime == cloud.regime

    def test_double_round_trip_is_identity(self, tmp_path):
        cloud = make_cloud([[0.1, -0.2, 0.9]], 0.033, -1.1 + 0.7j)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_cloud(p1, cloud)
        save_cloud(p2, load_cloud(p1))
        assert p1.read_text() == p2.read_text()

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"version": 99, "centers": [], "radii": [],'
                        ' "impedance_re": [], "impedance_im": []}')
        with pytest.raises(ValueError):
            load_cloud(path)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64("inf")])
def test_dumps_document_refuses_non_finite_floats(tmp_path, value):
    """JSON has no inf or NaN: save_cloud's json.dumps of the cloud document
    refuses them, before the file is opened."""
    cloud = make_cloud([[0.1, 0.2, 0.3], [1.0, 0, 0]], 0.05, -1.5 + 0.25j)
    radii = np.array(cloud.radii)
    radii[1] = value
    # construction refuses the value, so swap the radii in afterwards
    object.__setattr__(cloud, "radii", radii)
    with pytest.raises(ValueError):
        save_cloud(tmp_path / "c.json", cloud)
    assert os.listdir(tmp_path) == []


class TestAtomicWrite:
    def test_no_temp_residue_and_overwrite(self, tmp_path):
        target = tmp_path / "out.txt"
        write_text_atomic(str(target), "first\n")
        write_text_atomic(str(target), "second\n")
        assert target.read_text() == "second\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_taken_temp_name_is_skipped(self, tmp_path, monkeypatch):
        taken = tmp_path / f".tmp-{bytes(6).hex()}~"
        taken.write_text("another writer's\n")
        names = iter([bytes(6), bytes([1] * 6)])
        monkeypatch.setattr(os, "urandom", lambda n: next(names))
        write_text_atomic(str(tmp_path / "out.txt"), "mine\n")
        assert taken.read_text() == "another writer's\n"
        assert sorted(os.listdir(tmp_path)) == [taken.name, "out.txt"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_files_honour_the_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            save_cloud(tmp_path / "c.json", make_cloud([[0, 0, 0], [1, 0, 0]], 0.1, -1.0))
            write_charges_csv(str(tmp_path / "q.csv"), np.array([1 + 2j]))
        finally:
            os.umask(old)
        for name in ("c.json", "q.csv"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode


class TestCsvWriters:
    def test_charges_layout(self, tmp_path):
        path = str(tmp_path / "q.csv")
        write_charges_csv(path, np.array([1 + 2j, -0.5j]), comments=("note",))
        comments, lines = read_csv(path)
        assert comments == ["# note"]
        assert lines[0] == "m,re_Q,im_Q"
        assert lines[1].split(",") == ["1", "1", "2"]
        assert lines[2].split(",")[0] == "2"
        assert float(lines[2].split(",")[2]) == -0.5

    def test_farfield_layout(self, tmp_path):
        path = str(tmp_path / "ff.csv")
        dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        vals = np.array([0.25 + 0j, 1j])
        write_farfield_csv(path, dirs, vals)
        _, lines = read_csv(path)
        assert lines[0] == "xhat_x,xhat_y,xhat_z,re_U,im_U"
        row = lines[1].split(",")
        assert [float(v) for v in row] == [0.0, 0.0, 1.0, 0.25, 0.0]

    def test_density_layout(self, tmp_path):
        path = str(tmp_path / "d.csv")
        # two spheres, L = 1: 4 coefficients each
        c = np.arange(4, dtype=complex)
        write_density_csv(path, np.stack([c, 10 + c]))
        _, lines = read_csv(path)
        assert lines[0] == "sphere,l,m,re,im"
        assert lines[1].split(",")[:3] == ["1", "0", "0"]
        assert lines[2].split(",")[:3] == ["1", "1", "-1"]
        assert lines[5].split(",")[:3] == ["2", "0", "0"]
        assert float(lines[5].split(",")[3]) == 10.0

    def test_study_layout_with_summary(self, tmp_path):
        from foldylax import fit_rate
        path = str(tmp_path / "s.csv")
        a = [0.2, 0.1, 0.05]
        errs = [x**3 for x in a]
        records = [dict(a=x, M=1, d=math.inf, error=e, residual_fl=0.0,
                        residual_bie=float("nan")) for x, e in zip(a, errs)]
        write_study_csv(path, records, fit_rate(a, errs, 3.0))
        _, lines = read_csv(path)
        assert lines[0] == "a,M,d,error,residual_fl,residual_bie"
        assert len(lines) == 1 + 3 + 2
        assert lines[4] == "slope,intercept,r2,predicted"
        assert float(lines[5].split(",")[0]) == pytest.approx(3.0, abs=1e-12)

    def test_values_survive_round_trip_exactly(self, tmp_path):
        path = str(tmp_path / "q.csv")
        q = np.array([0.1 + 0.2j, -1.0 / 3.0 + 1e-17j, 7e300 - 7e-300j])
        write_charges_csv(path, q)
        _, lines = read_csv(path)
        for i, line in enumerate(lines[1:]):
            _, re, im = line.split(",")
            assert float(re) == q[i].real
            assert float(im) == q[i].imag
