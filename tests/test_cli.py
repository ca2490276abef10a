import errno
import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from foldylax import cli, errors, foldy, geometry, oracle
from foldylax.cli import main
from foldylax.io import read_csv, save_cloud

from cloud_helpers import make_cloud


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

    @pytest.mark.parametrize("a, s, m_max, name", [
        ("0.04", "0", "inf", "0 < M_max < inf"),
        ("0.04", "0", "nan", "0 < M_max < inf"),
        ("1e-200", "2", "1", "M_max * a^(-s) < inf")])
    def test_infinite_count_is_2(self, tmp_path, capsys, a, s, m_max, name):
        out = tmp_path / "c.json"
        args = gen_args(out, a=a, s=s)
        args[args.index("--Mmax") + 1] = m_max
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err == f"error: regime admissibility violated: {name}\n"
        assert not out.exists()

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

    def test_infeasible_oracle_is_4(self, tmp_path, monkeypatch, capsys):
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud)) == 0  # M = 400
        # N = 67600: the coaxial blocks of 79800 pairs need about 1 GiB; the
        # room is fixed, so that no host attempts it
        monkeypatch.setattr(geometry, "_available_bytes", lambda: 2**29)
        capsys.readouterr()
        assert run(["compare", cloud, "--oracle", "bie",
                    "--out", tmp_path / "x"]) == 4
        assert capsys.readouterr().err == (
            "error: N = 67600 at L = 12 needs 1081 MiB for the boundary-integral operator "
            "and its workspace; 512 MiB available\n")

    def test_insufficient_memory_is_4(self, tmp_path, monkeypatch, capsys):
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud)) == 0  # M = 400
        monkeypatch.setattr(geometry, "_available_bytes", lambda: 1024)
        assert run(["solve", cloud, "--out", tmp_path / "x"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: M = 400 needs 3 MiB for the matrix") and "Traceback" not in err
        assert not (tmp_path / "x_charges.csv").exists()

    @staticmethod
    def room_for(monkeypatch, nbytes):
        monkeypatch.setattr(geometry, "_available_bytes", lambda: nbytes)

    @staticmethod
    def packed_bytes(m):
        """The packed Foldy-Lax matrix: its strips from the diagonal on, about 8 m^2 bytes."""
        strips = geometry.row_blocks(m, min_rows=foldy.STRIP_ROWS)
        return 16 * sum((i1 - i0) * (m - i0) for i0, i1 in strips)

    def test_certified_solve_needs_no_room_for_lu(self, tmp_path, monkeypatch, capsys):
        """Nor for a dense B: the exit-4 boundary is the packed matrix's bytes."""
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud)) == 0  # M = 400, lambda0 = -0.5: Re B definite
        need = self.packed_bytes(400)
        assert need < 16 * 400**2  # the dense B would not fit
        self.room_for(monkeypatch, need - 1)
        assert run(["solve", cloud, "--out", tmp_path / "x"]) == 4
        assert capsys.readouterr().err.startswith(
            "error: M = 400 needs 3 MiB for the matrix; 2 MiB available")
        assert not (tmp_path / "x_charges.csv").exists()
        self.room_for(monkeypatch, need)
        assert run(["solve", cloud, "--out", tmp_path / "x"]) == 0
        assert (tmp_path / "x_charges.csv").exists()

    def test_lu_without_room_is_4(self, tmp_path, monkeypatch, capsys):
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud)) == 0
        doc = json.loads(cloud.read_text())
        doc["impedance_re"][0] = -doc["impedance_re"][0]  # mixed signs: LU path
        cloud.write_text(json.dumps(doc))
        # the packed B fits; the LU's dense copy and lu_factor's mask, 17 M^2 bytes, do not
        self.room_for(monkeypatch, 17 * 400**2 - 1)
        capsys.readouterr()
        assert run(["solve", cloud, "--out", tmp_path / "x"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: 400x400 system needs 3 MiB for its LU factors")
        assert "Traceback" not in err
        assert not (tmp_path / "x_charges.csv").exists()
        assert not (tmp_path / "x_farfield.csv").exists()

    @staticmethod
    def no_bie_work(monkeypatch):
        """Make any per-sphere, Gaunt-table or rotation work of the BIE fail the test."""
        def called(*args, **kwargs):
            raise AssertionError("the memory guard must refuse first")
        for name in ("_self_spectra", "_coaxial_table", "_rotation_factor"):
            monkeypatch.setattr(oracle, name, called)

    def test_bie_without_room_is_4(self, tmp_path, monkeypatch, capsys):
        cloud = tmp_path / "pair.json"
        save_cloud(cloud, make_cloud([[0, 0, 0], [0.6, 0, 0]], 0.04, -1.0))
        monkeypatch.setattr(geometry, "_available_bytes", lambda: 1024)  # room for the Foldy-Lax matrix only
        self.no_bie_work(monkeypatch)
        assert run(["compare", cloud, "--variant", "spherical", "--oracle", "bie",
                    "--L", 20, "--out", tmp_path / "x"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: N = 882 at L = 20 needs 9 MiB for the boundary-integral "
                              "operator and its workspace; 0 MiB available")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("x*"))

    def test_bie_without_room_for_the_table_is_4(self, tmp_path, monkeypatch, capsys):
        cloud = tmp_path / "pair.json"
        save_cloud(cloud, make_cloud([[0, 0, 0], [0.6, 0, 0]], 0.04, -1.0))
        # L = 40: the operator takes 598912 bytes, its Gaunt table about 90 MiB
        monkeypatch.setattr(geometry, "_available_bytes", lambda: 2**20)
        self.no_bie_work(monkeypatch)
        assert run(["compare", cloud, "--variant", "spherical", "--oracle", "bie",
                    "--L", 40, "--out", tmp_path / "x"]) == 4
        assert capsys.readouterr().err == (
            "error: N = 3362 at L = 40 needs 104 MiB for the boundary-integral operator "
            "and its workspace; 1 MiB available\n")
        assert not list(tmp_path.glob("x*"))

    def test_small_bie_refusal_never_reads_0_mib(self, tmp_path, monkeypatch, capsys):
        """Two spheres at L = 2 need about 12 kB; the need rounds up to 1 MiB."""
        cloud = tmp_path / "pair.json"
        save_cloud(cloud, make_cloud([[0, 0, 0], [0.6, 0, 0]], 0.04, -1.0))
        monkeypatch.setattr(geometry, "_available_bytes", lambda: 1024)
        self.no_bie_work(monkeypatch)
        assert run(["compare", cloud, "--variant", "spherical", "--oracle", "bie",
                    "--L", 2, "--out", tmp_path / "x"]) == 4
        assert capsys.readouterr().err == (
            "error: N = 18 at L = 2 needs 1 MiB for the boundary-integral operator "
            "and its workspace; 0 MiB available\n")
        assert not list(tmp_path.glob("x*"))

    def test_generate_without_room_is_4(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(geometry, "_available_bytes", lambda: 2**30)
        out = tmp_path / "g.json"
        assert run(gen_args(out, a=0.04, s=0, extra=["--Mmax", "1e12"])) == 4
        assert capsys.readouterr().err == (
            "error: M = 1000000000000 needs 488281250 MiB for the lattice cloud; "
            "1024 MiB available\n")
        assert not list(tmp_path.iterdir())

    def test_generate_beyond_memory_exits_4_in_a_fresh_process(self, tmp_path):
        """The real case, with no patch: the guard refuses before numpy is
        asked for 10^12 lattice indices. The address-space limit only keeps a
        guard that failed to run from exhausting the host."""
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (4 * 2**30, 4 * 2**30))

        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, FOLDYLAX_THREADS="1", PYTHONPATH=src)
        out = tmp_path / "g.json"
        proc = subprocess.run(
            [sys.executable, "-m", "foldylax.cli",
             *map(str, gen_args(out, a=0.04, s=0, extra=["--Mmax", "1e12"]))],
            env=env, preexec_fn=limit, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("error: M = 1000000000000 needs 488281250 MiB "
                                      "for the lattice cloud; ")
        assert not out.exists()

    def test_check_invertibility_without_regime_is_2(self, tmp_path, capsys):
        cloud = tmp_path / "pair.json"
        save_cloud(cloud, make_cloud([[0, 0, 0], [0.6, 0, 0]], 0.04, -1.0))
        capsys.readouterr()
        assert run(["solve", cloud, "--check-invertibility", "--out", tmp_path / "x"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: invertibility report requires regime parameters\n"
        assert captured.out == ""
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("error", [
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.FoldylaxError)],
        ids=lambda error: error.__name__)
    def test_every_error_has_its_exit_code(self, tmp_path, monkeypatch, capsys, error):
        """4 for too little memory, 3 for numerical failures, 2 for the rest."""
        def handler(args):
            raise error("boom")

        monkeypatch.setattr(cli, "_cmd_generate", handler)
        expected = {errors.InsufficientMemory: 4, errors.SingularSystem: 3,
                    errors.SeriesNotConverged: 3}.get(error, 2)
        assert run(gen_args(tmp_path / "c.json")) == expected
        assert capsys.readouterr().err == "error: boom\n"

    @pytest.mark.parametrize("key, value, shown", [
        ("a", "0.04", '"0.04"'), ("s", True, "true"), ("lambda0_im", None, "null")])
    def test_non_number_in_regime_is_2(self, tmp_path, capsys, key, value, shown):
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud)) == 0
        doc = json.loads(cloud.read_text())
        doc["regime"][key] = value
        cloud.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["solve", cloud, "--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err == (
            f"error: cloud document regime {key!r} must be a JSON number, not {shown}\n")

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

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(radii=[str(r) for r in doc["radii"]]),
         """'radii' must be a list of JSON numbers; item 0 is "0.025\""""),
        (lambda doc: doc.update(impedance_im=[True] * len(doc["radii"])),
         "'impedance_im' must be a list of JSON numbers; item 0 is true"),
        (lambda doc: doc.update(areas=["1"] * len(doc["radii"])),
         """'areas' must be a list of JSON numbers; item 0 is "1\""""),
        (lambda doc: doc["impedance_re"].__setitem__(3, True),  # np.array makes it 1.0
         "'impedance_re' must be a list of JSON numbers; item 3 is true"),
        (lambda doc: doc.update(radii=[[r] for r in doc["radii"]]),
         "'radii' must be a list of JSON numbers; item 0 is [0.025]"),
        (lambda doc: doc.update(radii={}), "'radii' must be a list of JSON numbers, not dict"),
        (lambda doc: doc.update(centers=[x for c in doc["centers"] for x in c]),
         "'centers' must be a list of lists of 3 JSON numbers; item 0 is -0.1"),
        (lambda doc: doc.update(centers=[c[:2] for c in doc["centers"]]),
         "'centers' must be a list of lists of 3 JSON numbers; item 0 is [-0.1, -0.1]"),
        (lambda doc: doc["centers"][1].__setitem__(2, "0"), "'centers' must be a list of "
         """lists of 3 JSON numbers; item 1 is [-0.1, -0.1, "0"]"""),
    ])
    def test_bad_array_is_2(self, tmp_path, capsys, edit, message):
        cloud = tmp_path / "c.json"
        # M = 20 spheres of radius 0.025 centered at (-0.1, -0.1, -0.1), (-0.1, -0.1, 0), ...
        assert run(gen_args(cloud, a=0.05, s=1.0)) == 0
        doc = json.loads(cloud.read_text())
        edit(doc)
        cloud.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["solve", cloud, "--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err == f"error: cloud document {message}\n"
        assert not (tmp_path / "x_charges.csv").exists()

    @pytest.mark.parametrize("missing_dir", [True, False])
    def test_unwritable_out_is_2(self, tmp_path, capsys, missing_dir):
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud, a=0.1)) == 0
        if missing_dir:
            out, code = tmp_path / "missing" / "x", errno.ENOENT
            reason = f"{os.strerror(code)}: {tmp_path / 'missing'}"
        else:  # a directory takes the charges CSV's path
            out, code = tmp_path / "x", errno.EISDIR
            (tmp_path / "x_charges.csv").mkdir()
            reason = os.strerror(code)
        before = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        assert run(["solve", cloud, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno {code}] cannot write {out}_charges.csv: {reason}\n"
        assert ".tmp-" not in err and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == before

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

    def test_bie_past_the_old_size_cap_is_certified(self, tmp_path, monkeypatch, capsys):
        """s = 1.5, a = 0.015, L = 6: M = 108 and N = 5292 > 4000 solve by
        certified GMRES; the LU is patched to fail, so it cannot have run."""
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud, a=0.015, s=1.5, lambda0="-1",
                            extra=["--Mmax", 0.2, "--jitter", 0.3, "--seed", 1])) == 0
        assert "M=108 " in capsys.readouterr().out

        def no_lu(*args, **kwargs):
            raise AssertionError("the certified solve must not fall back to the LU")

        monkeypatch.setattr(foldy, "_checked_lu_solve", no_lu)
        assert run(["compare", cloud, "--variant", "spherical", "--oracle", "bie",
                    "--L", 6, "--directions", 16, "--out", tmp_path / "cmp"]) == 0
        out = capsys.readouterr().out
        assert float(out.split("residual_oracle=")[1].split()[0]) <= 1e-9
        assert len(read_csv(tmp_path / "cmp_density.csv")[1]) == 1 + 5292

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
