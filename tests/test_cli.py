import json
import os

import numpy as np
import pytest

from foldylax.cli import main
from foldylax.io import read_csv, save_cloud

from conftest import make_cloud


def run(args):
    return main([str(a) for a in args])


def gen_args(out, a=0.05, s=2.0, lambda0="-0.5", extra=()):
    return ["generate", "--a", a, "--s", s, "--t", 1, "--beta", 0,
            "--lambda0", lambda0, "--Mmax", 1, "--dmin", 1, "--dmax", 2,
            "--out", out, *extra]


class TestExitCodes:
    def test_generate_ok(self, tmp_path):
        assert run(gen_args(tmp_path / "c.json")) == 0
        assert (tmp_path / "c.json").exists()

    def test_missing_cloud_is_2(self, tmp_path):
        assert run(["solve", tmp_path / "nope.json", "--out", tmp_path / "x"]) == 2

    def test_bad_regime_is_2(self, tmp_path):
        assert run(gen_args(tmp_path / "c.json", s=2.5)) == 2

    def test_bad_a_values_is_2(self, tmp_path):
        assert run(["sweep", "--a-values", "0.1,0.2,0.3",
                    "--out", tmp_path / "s.csv"]) == 2

    def test_mie_oracle_multi_sphere_is_2(self, tmp_path):
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud, a=0.1)) == 0
        assert run(["compare", cloud, "--oracle", "mie",
                    "--out", tmp_path / "x"]) == 2

    def test_singular_system_is_3(self, tmp_path):
        # engineered rank-1 system: C = 1/Phi at kappa*d = 2*pi, rhs off-range
        d, r = 2 * np.pi, 0.1
        cloud = make_cloud([[0, 0, 0], [d, 0, 0]], r, -d / r**2)
        path = tmp_path / "sing.json"
        save_cloud(path, cloud)
        assert run(["solve", path, "--kappa", 1, "--theta", "0,0,1",
                    "--variant", "general", "--out", tmp_path / "x"]) == 3

    def test_infeasible_oracle_is_4(self, tmp_path):
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud)) == 0  # M = 400
        assert run(["compare", cloud, "--oracle", "bie",
                    "--out", tmp_path / "x"]) == 4

    def test_insufficient_memory_is_4(self, tmp_path, monkeypatch, capsys):
        from foldylax import foldy
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud)) == 0  # M = 400
        monkeypatch.setattr(foldy, "_available_bytes", lambda: 1024)
        assert run(["solve", cloud, "--out", tmp_path / "x"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: M = 400 needs 5 MiB") and "Traceback" not in err
        assert not (tmp_path / "x_charges.csv").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["regime"].pop("s"), "cloud document regime missing keys: ['s']"),
        (lambda doc: doc.update(regime=[1, 2]),
         "cloud document regime must be a JSON object, not list"),
        (lambda doc: doc.pop("radii"), "cloud document missing keys: ['radii']"),
    ])
    def test_malformed_document_is_2(self, tmp_path, capsys, edit, message):
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud)) == 0
        doc = json.loads(cloud.read_text())
        edit(doc)
        cloud.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["solve", cloud, "--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_object_document_is_2(self, tmp_path, capsys):
        cloud = tmp_path / "c.json"
        cloud.write_text("[[0, 0, 0]]")
        assert run(["solve", cloud, "--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err == "error: cloud document must be a JSON object, not list\n"

    def test_bad_threads_env_is_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FOLDYLAX_THREADS", "many")
        assert run(gen_args(tmp_path / "c.json")) == 2

    def test_threads_env_applied(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FOLDYLAX_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert run(gen_args(tmp_path / "c.json")) == 0
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


class TestSolveCommand:
    def test_outputs_and_headers(self, tmp_path, capsys):
        cloud = tmp_path / "c.json"
        run(gen_args(cloud, a=0.1))
        assert run(["solve", cloud, "--kappa", 1, "--theta", "0,0,1",
                    "--variant", "general", "--directions", 32,
                    "--check-invertibility", "--out", tmp_path / "r"]) == 0
        out = capsys.readouterr().out
        assert "invertibility" in out
        for suffix in ("_charges.csv", "_farfield.csv"):
            comments, lines = read_csv(str(tmp_path / "r") + suffix)
            assert comments[0].startswith("# foldylax ")
            assert comments[1].startswith("# config: command=solve")
            assert "kappa=1" in comments[1]
            assert len(lines) > 1
        _, ff = read_csv(str(tmp_path / "r") + "_farfield.csv")
        assert len(ff) == 1 + 32

    def test_theta_normalized(self, tmp_path):
        cloud = tmp_path / "c.json"
        run(gen_args(cloud, a=0.1))
        # non-unit input direction is accepted and normalized
        assert run(["solve", cloud, "--theta", "0,0,5",
                    "--out", tmp_path / "r"]) == 0


class TestCompareCommand:
    def test_fl_oracle_round_trip(self, tmp_path, capsys):
        cloud = tmp_path / "c.json"
        run(gen_args(cloud, a=0.1))
        assert run(["compare", cloud, "--oracle", "fl", "--directions", 16,
                    "--out", tmp_path / "cmp"]) == 0
        out = capsys.readouterr().out
        assert "sup_error=0 " in out
        assert (tmp_path / "cmp_fl.csv").exists()
        assert (tmp_path / "cmp_oracle.csv").exists()

    def test_bie_writes_density(self, tmp_path):
        cloud = tmp_path / "pair.json"
        save_cloud(cloud, make_cloud([[0, 0, 0], [0.6, 0, 0]], 0.04, -1.0))
        assert run(["compare", cloud, "--variant", "spherical", "--oracle", "bie",
                    "--L", 6, "--quad-order", 12, "--directions", 16,
                    "--out", tmp_path / "cmp"]) == 0
        _, lines = read_csv(tmp_path / "cmp_density.csv")
        assert lines[0] == "sphere,l,m,re,im"
        assert len(lines) == 1 + 2 * 49  # two spheres, (6+1)^2 rows each

    def test_mie_vs_fl_error_printed(self, tmp_path, capsys):
        cloud = tmp_path / "one.json"
        save_cloud(cloud, make_cloud([[0, 0, 0]], 0.05, -1.0))
        assert run(["compare", cloud, "--variant", "spherical",
                    "--directions", 16, "--out", tmp_path / "cmp"]) == 0
        out = capsys.readouterr().out
        sup = float(out.split("sup_error=")[1].split()[0])
        assert 0 < sup < 5e-3  # O(a^3) truncation gap at a = 0.1


class TestSweepCommand:
    def test_writes_study_with_fit(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        assert run(["sweep", "--a-values", "0.2,0.1,0.05", "--s", 0,
                    "--variant", "spherical", "--directions", 32,
                    "--out", out]) == 0
        comments, lines = read_csv(out)
        assert comments[1].startswith("# config: command=sweep")
        assert lines[0] == "a,M,d,error,residual_fl,residual_bie"
        assert lines[4] == "slope,intercept,r2,predicted"
        slope = float(lines[5].split(",")[0])
        assert slope == pytest.approx(3.0, abs=0.4)
        assert "slope=" in capsys.readouterr().out

    def test_coarse_quad_order_keeps_the_rate(self, tmp_path, capsys):
        """The BIE oracle ignores --quad-order, so q < L+1 cannot alias it."""
        out = tmp_path / "study.csv"
        assert run(["sweep", "--a-values", "0.04,0.02,0.01", "--s", 1,
                    "--Mmax", 0.2, "--variant", "spherical", "--oracle", "bie",
                    "--L", 4, "--quad-order", 1, "--out", out]) == 0
        fit = read_csv(out)[1][5].split(",")
        assert float(fit[0]) == pytest.approx(2.0, abs=0.05)
        assert float(fit[2]) >= 0.99
        assert "slope=" in capsys.readouterr().out

    def test_quad_order_below_one_is_2(self, tmp_path):
        assert run(["sweep", "--a-values", "0.04,0.02,0.01", "--s", 1,
                    "--Mmax", 0.2, "--variant", "spherical", "--oracle", "bie",
                    "--L", 4, "--quad-order", 0, "--out", tmp_path / "s.csv"]) == 2


class TestDeterminism:
    def test_byte_identical_pipeline(self, tmp_path):
        c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
        run(gen_args(c1, extra=["--jitter", 0.4, "--seed", 9]))
        run(gen_args(c2, extra=["--jitter", 0.4, "--seed", 9]))
        assert c1.read_bytes() == c2.read_bytes()
        for tag in ("r1", "r2"):
            assert run(["solve", c1, "--directions", 24,
                        "--out", tmp_path / tag]) == 0
        assert ((tmp_path / "r1_charges.csv").read_bytes()
                == (tmp_path / "r2_charges.csv").read_bytes())
        assert ((tmp_path / "r1_farfield.csv").read_bytes()
                == (tmp_path / "r2_farfield.csv").read_bytes())

    def test_different_seed_differs(self, tmp_path):
        c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
        run(gen_args(c1, extra=["--jitter", 0.4, "--seed", 1]))
        run(gen_args(c2, extra=["--jitter", 0.4, "--seed", 2]))
        assert c1.read_bytes() != c2.read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "foldylax" in capsys.readouterr().out


def test_every_error_class_is_exported():
    import foldylax
    from foldylax import errors
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.FoldylaxError)}
    assert "InsufficientMemory" in classes
    assert classes <= set(foldylax.__all__)
    assert all(getattr(foldylax, name) is getattr(errors, name) for name in classes)
