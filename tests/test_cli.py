import ast
import errno
import functools
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from foldylax import analysis, cli, errors, foldy, geometry, oracle
from foldylax.cli import main
from foldylax.geometry import IncidentWave
from foldylax.io import load_cloud, save_cloud

from cloud_helpers import make_cloud, read_csv, run_python


def run(args):
    return main([str(a) for a in args])


def exit_code(args):
    """run's exit code, or that of argparse's refusal of a flag."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


def gen_args(out, a=0.05, s=2.0, lambda0="-0.5", extra=()):
    return ["generate", "--a", a, "--s", s, "--t", 1, "--beta", 0,
            "--lambda0", lambda0, "--Mmax", 1, "--dmin", 1, "--dmax", 2,
            "--out", out, *extra]


@functools.lru_cache(maxsize=1)
def valid_document() -> str:
    """A generated cloud of M = 20 spheres, as JSON text."""
    with tempfile.TemporaryDirectory() as work:
        cloud = Path(work) / "c.json"
        assert run(gen_args(cloud, a=0.05, s=1.0)) == 0
        return cloud.read_text()


# the fields a fuzzed document replaces: every key, and items of each array
FUZZ_PATHS = ([(key,) for key in ("version", "centers", "radii", "impedance_re",
                                  "impedance_im", "regime", "areas")]
              + [("regime", key) for key in ("a", "s", "t", "beta", "M_max", "d_min",
                                             "d_max", "lambda0_re", "lambda0_im")]
              + [(key, i) for key in ("centers", "radii", "impedance_re", "impedance_im")
                 for i in (0, 19)]
              + [("centers", 7, k) for k in range(3)])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.integers(min_value=-10**400, max_value=10**400)
    | st.sampled_from([10**400, -10**400, 0, 1, 10**308])
    | st.sampled_from([math.nan, math.inf, -math.inf]),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=3), children, max_size=2)),
    max_leaves=6)


# command-line fuzzing: each flag takes a value from its valid range, or one
# of BAD_VALUES; the valid ranges keep every cloud at M <= 8 (M = floor(Mmax
# a^-s) <= floor(0.8 / 0.1)), L <= 4 and --directions <= 20
BAD_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e400", "x", ""]


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def _csv(strategy, size):
    return st.lists(strategy, min_size=size, max_size=size).map(",".join)


REGIME_FLAGS = {"--s": _floats(0, 1), "--t": _floats(0.5, 2), "--beta": _floats(0, 2),
                "--lambda0": _csv(_floats(-2, 2), 2), "--Mmax": _floats(0.01, 0.8),
                "--dmin": _floats(0.1, 1), "--dmax": _floats(1, 3),
                "--box-side": _floats(0.1, 10), "--jitter": _floats(0, 0.9),
                "--seed": st.integers(0, 99).map(str)}
WAVE_FLAGS = {"--kappa": _floats(0.1, 6), "--theta": _csv(_floats(-1, 1), 3),
              "--variant": st.sampled_from(["general", "spherical"]),
              "--directions": st.integers(1, 20).map(str)}
ORACLE_FLAGS = {"--oracle": st.sampled_from(["bie", "fl"]),
                "--L": st.integers(0, 4).map(str), "--quad-order": st.integers(1, 8).map(str)}
A_VALUES = st.lists(st.floats(0.1, 0.5), min_size=3, max_size=4).map(
    lambda a: ",".join(map(repr, sorted(a, reverse=True))))
COMMAND_FLAGS = {  # None: a switch without a value
    "generate": {"--a": _floats(0.1, 0.5), **REGIME_FLAGS},
    "solve": {**WAVE_FLAGS, "--check-invertibility": None},
    "compare": {**WAVE_FLAGS, **ORACLE_FLAGS},
    "sweep": {"--a-values": A_VALUES, **REGIME_FLAGS, **WAVE_FLAGS, **ORACLE_FLAGS},
}
REQUIRED_FLAGS = {"generate": ["--a"], "sweep": ["--a-values"]}
TINY_CLOUDS = ["lattice.json", "single.json", "mixed.json"]


@st.composite
def command_lines(draw):
    """A subcommand and a random subset of its flags, required ones always;
    solve and compare read one of TINY_CLOUDS, named bare."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = COMMAND_FLAGS[command]
    optional = sorted(set(flags) - set(REQUIRED_FLAGS.get(command, ())))
    argv = [command]
    if command in ("solve", "compare"):
        argv.append(draw(st.sampled_from(TINY_CLOUDS)))
    for flag in REQUIRED_FLAGS.get(command, []) + draw(
            st.lists(st.sampled_from(optional), unique=True)):
        if flags[flag] is None:
            argv.append(flag)
        else:  # --flag=value: a value such as -0.5,0,1 is not taken for a flag
            bad = draw(st.integers(0, 7)) == 0
            argv.append(f"{flag}={draw(st.sampled_from(BAD_VALUES) if bad else flags[flag])}")
    return argv


def assert_whole_csv(path):
    """Every row of a CLI CSV has its header's cell count, and the file ends
    with its last row's newline."""
    text = path.read_text()
    assert text.endswith("\n"), path.name
    cells = None
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        try:
            [float(c) for c in line.split(",")]
        except ValueError:  # a header
            cells = line.count(",")
            continue
        assert cells is not None and line.count(",") == cells, (path.name, line)


def no_solve(monkeypatch):
    """Make any Foldy-Lax solve fail the test."""
    def called(*args, **kwargs):
        raise AssertionError("the oracle's settings must be checked before the solve")
    monkeypatch.setattr(foldy, "solve", called)
    monkeypatch.setattr(analysis, "solve", called)


class TestExitCodes:
    def test_generate_ok(self, tmp_path):
        assert run(gen_args(tmp_path / "c.json")) == 0
        assert (tmp_path / "c.json").exists()

    def test_missing_cloud_is_2(self, tmp_path):
        assert run(["solve", tmp_path / "nope.json", "--out", tmp_path / "x"]) == 2

    def test_bad_regime_is_2(self, tmp_path):
        assert run(gen_args(tmp_path / "c.json", s=2.5)) == 2

    def test_negative_seed_is_2(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run(gen_args(out, extra=["--jitter", 0.3, "--seed", -1])) == 2
        assert capsys.readouterr().err == "error: expected non-negative integer\n"
        assert not out.exists()

    @pytest.mark.parametrize("kappa, L", [("1e-15", 12), ("1e-20", 12), ("1", 60)],
                             ids=["1e-15", "1e-20", "L60"])
    def test_bie_kappa_too_small_is_3(self, tmp_path, capsys, kappa, L):
        """compare_bie's cloud: y_l of the translation overflows (y_24 below
        kappa*d ~ 1e-11, y_12 of the spheres below kappa*r ~ 1e-21, y_120 at
        kappa*d ~ 0.09). The oracle refuses, naming the overflow and both
        remedies, with no RuntimeWarning and no CSV."""
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud, a=0.04, s=1.0, lambda0="-1",
                            extra=["--Mmax", 0.32, "--jitter", 0.3, "--seed", 1])) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["compare", cloud, "--variant", "spherical", "--oracle", "bie",
                        "--L", L, "--kappa", kappa, "--out", tmp_path / "x"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: spherical_yn overflows by degree ")
        assert "lower L or raise kappa for the boundary-integral oracle" in captured.err
        assert not list(tmp_path.glob("x*"))

    def test_bie_overflow_is_3_before_the_tables(self, tmp_path):
        """compare_bie's cloud at L = 60: h_120 overflows at the closest pair,
        which the oracle checks before it builds the Gaunt table (75 MB), so
        the process exits 3 at a peak RSS below 100 MB."""
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud, a=0.04, s=1.0, lambda0="-1",
                            extra=["--Mmax", 0.32, "--jitter", 0.3, "--seed", 1])) == 0
        argv = ["compare", str(cloud), "--variant", "spherical", "--oracle", "bie", "--L",
                "60", "--directions", "8", "--out", str(tmp_path / "x")]
        code = ("import resource; from foldylax.cli import main; "
                f"code = main({argv!r}); "
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); raise SystemExit(code)")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, FOLDYLAX_THREADS="1", PYTHONPATH=src),
                              timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error: spherical_yn overflows by degree 120 ")
        assert int(proc.stdout.split()[-1]) < 100 * 1024  # KiB
        assert not list(tmp_path.glob("x*"))

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

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_nan_box_side_is_2(self, tmp_path, capsys, command):
        """No extent fits in a box of side NaN: no cloud and no study."""
        out = tmp_path / ("c.json" if command == "generate" else "s.csv")
        argv = (["generate", "--a", 0.04] if command == "generate" else
                ["sweep", "--a-values", "0.04,0.02,0.01", "--s", 1, "--Mmax", 0.2])
        assert run([*argv, "--box-side", "nan", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cloud extent ") and err.endswith(" exceeds box_side nan\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, name", [
        (["--a", "0.05", "--t", "inf"], "0 <= t < inf"),
        (["--a", "0.05", "--dmin", "1e308", "--dmax", "inf"], "d_min <= d_max < inf")])
    def test_non_finite_regime_is_2(self, tmp_path, capsys, flags, name):
        """An infinite t or d_max would be written as "inf", which is not JSON."""
        out = tmp_path / "c.json"
        assert run(["generate", *flags, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: regime admissibility violated: {name}\n"
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    def test_bad_a_values_is_2(self, tmp_path):
        assert run(["sweep", "--a-values", "0.1,0.2,0.3",
                    "--out", tmp_path / "s.csv"]) == 2

    @pytest.mark.parametrize("command, flag, value, message", [
        ("generate", "--lambda0", "1,2,3", "expected RE or RE,IM"),
        ("generate", "--lambda0", "x", "expected RE or RE,IM"),
        ("sweep", "--a-values", "0.1,x", "expected comma-separated floats"),
        ("sweep", "--a-values", "", "--a-values must be non-empty")])
    def test_unparsable_flag_is_2(self, tmp_path, capsys, command, flag, value, message):
        out = tmp_path / "x"
        args = gen_args(out) if command == "generate" else ["sweep", "--out", out]
        args += [flag, value]
        assert exit_code(args) == 2
        assert capsys.readouterr().err.endswith(f"{message}\n")
        assert not out.exists()

    def test_mie_oracle_multi_sphere_is_2(self, tmp_path, capsys):
        """The modal series is no oracle of the CLI's, nor auto, which picked
        it for M = 1: the BIE serves every M."""
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud, a=0.1)) == 0
        for oracle_kind in ("mie", "auto"):
            capsys.readouterr()
            assert exit_code(["compare", cloud, "--oracle", oracle_kind,
                              "--out", tmp_path / "x"]) == 2
            assert f"invalid choice: '{oracle_kind}'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_oracles_refuse_explicit_areas_is_2(self, tmp_path, capsys):
        """One obstacle with an explicit area is not a sphere: the BIE, the
        default oracle at every M, refuses it."""
        cloud = tmp_path / "c.json"
        cloud.write_text(json.dumps({"version": "0.1.0", "centers": [[0, 0, 0]], "radii": [0.05],
                                     "impedance_re": [-1], "impedance_im": [0], "regime": None,
                                     "areas": [0.5]}))
        for oracle_flag in ([], ["--oracle", "bie"]):
            capsys.readouterr()
            assert run(["compare", cloud, "--variant", "general", *oracle_flag,
                        "--out", tmp_path / "x"]) == 2
            assert capsys.readouterr().err == (
                "error: boundary-integral oracle requires true spheres (no explicit areas)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_subnormal_explicit_area_is_2(self, tmp_path, capsys):
        """An explicit area of 1e-320 is read as a subnormal, 1.1e-5 low, and
        would give a wrong C_m; it is refused, as 0 is."""
        cloud = tmp_path / "c.json"
        cloud.write_text(json.dumps({"version": "0.1.0", "centers": [[0, 0, 0]], "radii": [0.01],
                                     "impedance_re": [-1e30], "impedance_im": [0],
                                     "regime": None, "areas": [1e-320]}))
        capsys.readouterr()
        assert run(["solve", cloud, "--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err == (
            "error: areas must be positive normal floats, one per scatterer\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("radius, gap, area", [
        (1e-16, 10.0, None),  # centers 1e-15 apart, d_eff = 8e-16: it solves
        (1e-200, 3.0, 1e-3),  # (3 r)^2 underflows to 0
        (1e-160, None, None),  # 4 pi r^2 is subnormal
        (None, None, None)],  # generate --a 1e-300: 4 pi r^2 underflows to 0
        ids=["tiny-cloud-solves", "squares-underflow", "subnormal-area", "area-underflows"])
    def test_radius_floor(self, tmp_path, capsys, radius, gap, area):
        """Radii lie in [1e-150, 1e150): a cloud at that scale solves with
        no warning, and a radius whose square underflows is refused where the
        cloud is built, with no file written."""
        cloud = tmp_path / "c.json"
        if radius is None:
            argv = gen_args(cloud, a=1e-300, s=0)
        else:
            centers = [[0.0, 0.0, 0.0]] + ([] if gap is None else [[gap * radius, 0.0, 0.0]])
            m = len(centers)
            cloud.write_text(json.dumps({
                "version": "0.1.0", "centers": centers, "radii": [radius] * m,
                "impedance_re": [-1.0] * m, "impedance_im": [0.0] * m, "regime": None,
                "areas": None if area is None else [area] * m}))
            argv = ["solve", cloud, "--out", tmp_path / "x"]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv)
        captured = capsys.readouterr()
        if radius == 1e-16:
            assert (code, captured.err) == (0, "")
            assert float(captured.out.split("residual=")[1].split()[0]) <= 1e-10
        else:
            assert (code, captured.err) == (2, "error: radii must lie in [1e-150, 1e+150)\n")
            assert not list(tmp_path.glob("x*")) and cloud.exists() == (radius is not None)

    def test_warning_is_one_line(self, tmp_path):
        """A Python warning reaches stderr as one line, with no source path:
        here the BIE oracle's, for Im lambda < 0, which the paper admits."""
        cloud = tmp_path / "c.json"
        save_cloud(cloud, make_cloud([[0, 0, 0], [0.6, 0, 0]], 0.04, complex(-1, -0.5)))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "foldylax.cli", "compare", str(cloud), "--variant",
             "spherical", "--L", "4", "--directions", "8", "--out", str(tmp_path / "x")],
            env=dict(os.environ, FOLDYLAX_THREADS="1", PYTHONPATH=src),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == (
            "warning: Im(lambda) < 0: well-posedness is not guaranteed; proceeding "
            "(the solve certifies q = ||C D^-1||_F < 1 or falls back to LU)\n")

    def test_singular_system_is_3(self, tmp_path):
        # engineered rank-1 system: C = 1/Phi at kappa*d = 2*pi, rhs off-range
        d, r = 2 * np.pi, 0.1
        cloud = make_cloud([[0, 0, 0], [d, 0, 0]], r, -d / r**2)
        path = tmp_path / "sing.json"
        save_cloud(path, cloud)
        assert run(["solve", path, "--kappa", 1, "--theta", "0,0,1",
                    "--variant", "general", "--out", tmp_path / "x"]) == 3

    def test_badly_scaled_row_solves_by_lu(self, tmp_path, monkeypatch, capsys):
        """impedance_re[0] = 1.68e-106 makes B_00 = -1/C_0 about 7.6e107 and the
        signs mixed: the LU's pivot test, on the row-equilibrated copy, does
        not take that one row's scale for a singular system."""
        doc = json.loads(valid_document())
        doc["impedance_re"][0] = 1.68e-106
        cloud = tmp_path / "c.json"
        cloud.write_text(json.dumps(doc))
        lu_runs, checked_lu_solve = [], foldy._checked_lu_solve

        def recorded(*args):
            lu_runs.append(args)
            return checked_lu_solve(*args)

        monkeypatch.setattr(foldy, "_checked_lu_solve", recorded)
        capsys.readouterr()
        assert run(["solve", cloud, "--out", tmp_path / "x"]) == 0
        residual = float(capsys.readouterr().out.split("residual=")[1].split()[0])
        assert len(lu_runs) == 1 and residual <= 1e-10

    def test_badly_scaled_same_sign_row_solves_by_gmres(self, tmp_path, monkeypatch):
        """impedance_re[0] = -1.68e-106 keeps every Re B_mm negative: the ratio
        q = ||Re B_n||_F / min|Re B_mm| does not see the one huge row, so GMRES
        solves, to the LU's charges, and scipy is not asked for."""
        doc = json.loads(valid_document())
        doc["impedance_re"][0] = -1.68e-106
        cloud = tmp_path / "c.json"
        cloud.write_text(json.dumps(doc))
        system = foldy.assemble(load_cloud(cloud), IncidentWave(1.0, (0.0, 0.0, 1.0)))
        ref, _ = foldy._checked_lu_solve(system.matrix, system.rhs, foldy.RESIDUAL_TOL)
        monkeypatch.setattr(foldy, "_checked_lu_solve", None)  # the LU must not run
        assert run(["solve", cloud, "--out", tmp_path / "x"]) == 0
        rows = [line.split(",") for line in read_csv(tmp_path / "x_charges.csv")[1][1:]]
        charges = np.array([complex(float(re), float(im)) for _, re, im in rows])
        assert np.max(np.abs(charges - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("impedance_re", [1e-310, -1e-310, 1e-320])
    def test_coefficient_without_finite_reciprocal_is_2(self, tmp_path, capsys, impedance_re):
        """C_0 is finite and nonzero but -1/C_0 overflows: a typed refusal
        before the diagonal is formed, with no warning and no CSV."""
        doc = json.loads(valid_document())
        doc["impedance_re"][0] = impedance_re
        cloud = tmp_path / "c.json"
        cloud.write_text(json.dumps(doc))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["solve", cloud, "--out", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: degenerate scattering coefficient (") and err.count("\n") == 1
        assert not list(tmp_path.glob("x*"))

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
            "error: N = 67600 at L = 12 needs 1084 MiB for the boundary-integral operator "
            "and its workspace; 512 MiB available\n")

    def test_insufficient_memory_is_4(self, tmp_path, monkeypatch, capsys):
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud)) == 0  # M = 400
        monkeypatch.setattr(geometry, "_available_bytes", lambda: 1024)
        # one direction, 640 bytes, fits; the grid is admitted before the matrix
        assert run(["solve", cloud, "--directions", 1, "--out", tmp_path / "x"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: M = 400 needs 2 MiB for the matrix") and "Traceback" not in err
        assert not (tmp_path / "x_charges.csv").exists()

    @staticmethod
    def room_for(monkeypatch, nbytes):
        monkeypatch.setattr(geometry, "_available_bytes", lambda: nbytes)

    @staticmethod
    def packed_bytes(m, degree=None):
        """The packed Foldy-Lax matrix: complex strips from the diagonal on,
        about 8 m^2 bytes; where Im B takes a factor of degree L, real strips,
        about 4 m^2 bytes, the m x (L+1)^2 real H and the scratch of one
        block of H, (L+1)^2 + 16 columns wide."""
        strips = geometry.row_blocks(m, min_rows=foldy.STRIP_ROWS)
        entries = sum((i1 - i0) * (m - i0) for i0, i1 in strips)
        if degree is None:
            return 16 * entries
        K = (degree + 1) ** 2
        rows = max(foldy.STRIP_ROWS, math.ceil(m / 8))  # a block of H while it is computed
        return 8 * entries + 8 * m * K + foldy.FACTOR_SCRATCH * min(m, rows) * (K + 16)

    def test_certified_solve_needs_no_room_for_lu(self, tmp_path, monkeypatch, capsys):
        """Nor for a dense B: the exit-4 boundary is the packed matrix's bytes."""
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud)) == 0  # M = 400, lambda0 = -0.5: Re B definite
        # the lattice spans 0.8 per side, so kappa R = 0.7 and Im B takes the
        # factor of degree 7
        system = foldy.assemble(load_cloud(cloud), IncidentWave(1.0, (0.0, 0.0, 1.0)))
        assert system.matrix.factor.shape == (400, 64)
        need = self.packed_bytes(400, degree=7)
        assert need < self.packed_bytes(400) < 16 * 400**2  # a dense B would not fit
        self.room_for(monkeypatch, need - 1)
        assert run(["solve", cloud, "--out", tmp_path / "x"]) == 4
        assert capsys.readouterr().err.startswith(
            "error: M = 400 needs 2 MiB for the matrix; 1 MiB available")
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
    def no_assembly(monkeypatch):
        """Make any Foldy-Lax assembly fail the test."""
        def called(*args, **kwargs):
            raise AssertionError("the direction grid must be refused first")
        monkeypatch.setattr(foldy, "assemble", called)

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
        # room for the Foldy-Lax matrix and one direction only
        monkeypatch.setattr(geometry, "_available_bytes", lambda: 1024)
        self.no_bie_work(monkeypatch)
        assert run(["compare", cloud, "--variant", "spherical", "--oracle", "bie",
                    "--L", 20, "--directions", 1, "--out", tmp_path / "x"]) == 4
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
                    "--L", 2, "--directions", 1, "--out", tmp_path / "x"]) == 4
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

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_directions_without_room_are_4(self, tmp_path, monkeypatch, capsys, command):
        """The direction grid is admitted before it is built, at DIRECTION_BYTES
        per direction, before the Foldy-Lax matrix is assembled."""
        cloud = tmp_path / "pair.json"
        save_cloud(cloud, make_cloud([[0, 0, 0], [0.6, 0, 0]], 0.04, -1.0))
        monkeypatch.setattr(geometry, "_available_bytes", lambda: 2**28)
        self.no_assembly(monkeypatch)
        capsys.readouterr()
        assert run([command, cloud, "--directions", 10**6, "--out", tmp_path / "x"]) == 4
        assert capsys.readouterr().err == (
            "error: a grid of 1000000 directions needs 611 MiB for its far fields and "
            "their CSV text; 256 MiB available\n")
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_no_directions_is_2_before_any_work(self, tmp_path, monkeypatch, capsys, command):
        cloud = tmp_path / "pair.json"
        save_cloud(cloud, make_cloud([[0, 0, 0], [0.6, 0, 0]], 0.04, -1.0))
        self.no_assembly(monkeypatch)
        capsys.readouterr()
        assert run([command, cloud, "--directions", 0, "--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err == "error: need at least one direction\n"
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("patch", ["", "import foldylax.geometry as g; "
                                           "g._available_bytes = lambda: 10**15; "])
    def test_directions_beyond_memory_exit_4_in_a_fresh_process(self, tmp_path, patch):
        """10^9 directions under a 1.5 GiB address-space limit: the guard
        refuses them; with the guard fooled, numpy's MemoryError for the first
        array of the grid exits 4 too, with no traceback and no CSV."""
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 2**29, 3 * 2**29))

        cloud = tmp_path / "pair.json"
        save_cloud(cloud, make_cloud([[0, 0, 0], [0.6, 0, 0]], 0.04, -1.0))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, FOLDYLAX_THREADS="1", PYTHONPATH=src)
        code = patch + (f"from foldylax.cli import main; raise SystemExit(main("
                        f"['solve', {str(cloud)!r}, '--directions', '1000000000', "
                        f"'--out', {str(tmp_path / 'x')!r}]))")
        proc = subprocess.run([sys.executable, "-c", code], env=env, preexec_fn=limit,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        if not patch:
            assert proc.stderr.startswith("error: a grid of 1000000000 directions needs 610352 MiB")
        assert not list(tmp_path.glob("x*"))

    def test_stray_memory_error_is_4(self, tmp_path, monkeypatch, capsys):
        def handler(args):
            raise MemoryError()

        monkeypatch.setattr(cli, "_cmd_generate", handler)
        assert run(gen_args(tmp_path / "c.json")) == 4
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_check_invertibility_without_regime_is_2(self, tmp_path, monkeypatch, capsys):
        """The refusal comes straight after the cloud is read: nothing is assembled."""
        def assemble(*args, **kwargs):
            raise AssertionError("assembled a cloud the report must refuse")

        cloud = tmp_path / "pair.json"
        save_cloud(cloud, make_cloud([[0, 0, 0], [0.6, 0, 0]], 0.04, -1.0))
        monkeypatch.setattr(foldy, "assemble", assemble)
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
                    errors.SeriesNotConverged: 3, errors.RateUndetermined: 3}.get(error, 2)
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

    # an integer literal beyond the float range reads as +-inf, as 1e400 does
    OVERFLOWS = [
        pytest.param(lambda doc: doc["regime"].update(a=10**400),
                     "regime admissibility violated: 0 < a < inf", id="regime a 10**400"),
        pytest.param(lambda doc: doc["radii"].__setitem__(2, 10**400),
                     "cloud data must be finite", id="radii 10**400"),
        pytest.param(lambda doc: doc["centers"][1].__setitem__(0, -10**400),
                     "cloud data must be finite", id="centers -10**400"),
        pytest.param(lambda doc: doc.update(areas=[10**400] * len(doc["radii"])),
                     "cloud data must be finite", id="areas 10**400"),
    ]

    @pytest.mark.parametrize("edit, message", [
        *OVERFLOWS,
        (lambda doc: doc.update(area=[0.5] * len(doc["radii"])),  # misspelled "areas"
         "cloud document has unknown keys: ['area']"),
        (lambda doc: doc["regime"].update(jitter=0.3),
         "cloud document regime has unknown keys: ['jitter']"),
        (lambda doc: doc["regime"].pop("s"), "cloud document regime missing keys: ['s']"),
        (lambda doc: doc.update(regime=[1, 2]),
         "cloud document regime must be a JSON object, not list"),
        (lambda doc: doc.pop("radii"), "cloud document missing keys: ['radii']"),
        (lambda doc: doc.update(impedance_im=[0.0]),  # once broadcast to every sphere
         "cloud document 'impedance_re' and 'impedance_im' must have equal lengths"),
        (lambda doc: doc.update(areas=[math.nan] * len(doc["radii"])),  # the NaN literal
         "cloud data must be finite"),
        (lambda doc: doc.update(version=None),
         "cloud document 'version' must be a JSON string, not null"),
        (lambda doc: doc.update(version=[1, 2]),
         "cloud document 'version' must be a JSON string, not [1.0, 2.0]"),  # ints read as floats
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

    @pytest.mark.parametrize("edit, message", OVERFLOWS)
    def test_overflow_reads_as_inf_however_spelled(self, tmp_path, capsys, edit, message):
        """+-10**400 and +-1e400 in the same place: the same error, and no CSV."""
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud)) == 0
        doc = json.loads(cloud.read_text())
        edit(doc)
        text = json.dumps(doc)
        for spelled in (text, text.replace(str(10**400), "1e400")):
            cloud.write_text(spelled)
            capsys.readouterr()
            assert run(["solve", cloud, "--out", tmp_path / "x"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
        assert "1e400" in spelled and str(10**400) not in spelled

    def test_deeply_nested_document_is_2(self, tmp_path, capsys):
        """json.load's RecursionError is a ValueError naming the file. The
        text is written by hand: json.dumps cannot nest this deep either."""
        cloud = tmp_path / "c.json"
        cloud.write_text('{"version": "0.1.0", "centers": ' + "[" * 10**5 + "]" * 10**5
                         + ', "radii": [0.05], "impedance_re": [-1], "impedance_im": [0], '
                         '"regime": null}')
        capsys.readouterr()
        assert run(["solve", cloud, "--out", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cloud document {cloud} nests too deeply to read\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("raw, detail", [
        (b'{"version": "0.1.0", "cen',
         "Unterminated string starting at: line 1 column 22 (char 21)"),
        (b"", "Expecting value: line 1 column 1 (char 0)"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["truncated", "empty", "utf16-bom"])
    def test_undecodable_document_is_2(self, tmp_path, capsys, raw, detail):
        """A JSON syntax or encoding error is a ValueError naming the file and
        keeping the decoder's detail. The bytes are written raw."""
        cloud = tmp_path / "c.json"
        cloud.write_bytes(raw)
        capsys.readouterr()
        assert run(["solve", cloud, "--out", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cloud document {cloud} is not JSON: {detail}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

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

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(path=st.sampled_from(FUZZ_PATHS), value=JSON_VALUES)
    def test_fuzzed_document_is_0_or_2(self, capsys, path, value):
        """One field of a valid document replaced by any JSON value: solve
        exits 0 or 2, prints no traceback, and writes no CSV when it fails."""
        doc = json.loads(valid_document())
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        with tempfile.TemporaryDirectory() as work:
            cloud = Path(work) / "c.json"
            cloud.write_text(json.dumps(doc))  # NaN and Infinity as their literals
            capsys.readouterr()
            code = run(["solve", cloud, "--out", Path(work) / "x"])
            err = capsys.readouterr().err
            assert code in (0, 2), err
            assert "Traceback" not in err
            if code:
                assert sorted(p.name for p in Path(work).iterdir()) == ["c.json"]

    @pytest.fixture(scope="class")
    def tiny_clouds(self, tmp_path_factory):
        """TINY_CLOUDS: a jittered lattice of M = 8, one sphere, and three
        spheres of mixed-sign impedance, which the dense LU solves."""
        work = tmp_path_factory.mktemp("tiny")
        assert run(["generate", "--a", 0.1, "--s", 1, "--Mmax", 0.8, "--jitter", 0.3,
                    "--out", work / "lattice.json"]) == 0
        assert run(["generate", "--a", 0.1, "--out", work / "single.json"]) == 0
        save_cloud(work / "mixed.json", geometry.ScattererCloud(
            centers=np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]),
            radii=np.full(3, 0.05), impedances=np.array([-1.0, 1.0, -1.0 + 0.5j])))
        return work

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=command_lines())
    @example(argv=["compare", "single.json", "--L=1"])  # no L - 2 to check the BIE against
    def test_fuzzed_command_line_is_0_2_3_or_4(self, capsys, tiny_clouds, argv):
        """Random flags of the four subcommands on tiny clouds: the CLI exits
        0, 2, 3 or 4 and prints no traceback. A failed run writes nothing; a
        run that succeeds writes whole CSVs and leaves no temp file."""
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            argv = [str(tiny_clouds / a) if a in TINY_CLOUDS else a for a in argv]
            out = work / ("x.json" if argv[0] == "generate" else
                          "x.csv" if argv[0] == "sweep" else "x")
            capsys.readouterr()
            code = exit_code([*argv, "--out", out])
            err = capsys.readouterr().err
            event(f"{argv[0]} exits {code}")
            assert code in (0, 2, 3, 4), err
            assert "Traceback" not in err
            written = sorted(work.iterdir())
            if code:
                assert written == [], err
            for path in written:
                assert not path.name.startswith(".tmp-")
                if path.suffix == ".csv":
                    assert_whole_csv(path)

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

    def test_key_error_propagates(self, tmp_path, monkeypatch):
        """io turns every missing document key into a ValueError, so a
        KeyError out of a handler is a bug: it propagates, not exit 2."""
        def broken(args):
            raise KeyError("x")
        monkeypatch.setattr(cli, "_cmd_generate", broken)
        with pytest.raises(KeyError):
            run(gen_args(tmp_path / "c.json"))

    def test_blas_threads_set_to_one(self, tmp_path, monkeypatch):
        """Whatever FOLDYLAX_THREADS is and the caller exported, the CLI sets
        every BLAS to load with one thread (tests/test_threads.py reads what
        the libraries run in a fresh process)."""
        monkeypatch.setenv("FOLDYLAX_THREADS", "2")
        for var in cli._THREAD_VARS:
            monkeypatch.setenv(var, "4")
        assert run(gen_args(tmp_path / "c.json")) == 0
        assert {var: os.environ[var] for var in cli._THREAD_VARS} == dict.fromkeys(
            cli._THREAD_VARS, "1")
        assert os.environ["FOLDYLAX_THREADS"] == "2"


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

    def test_theta_of_any_finite_nonzero_size(self, tmp_path):
        """Directions whose squares overflow or underflow, or whose norm is
        subnormal, normalize to the bits of a unit-sized multiple, so the
        files match its files byte for byte, the # config: line included."""
        cloud = tmp_path / "c.json"
        run(gen_args(cloud, a=0.1))
        for i, (theta, same) in enumerate([("0,0,1e200", "0,0,1"), ("0,0,1e-200", "0,0,1"),
                                           ("5e-324,5e-324,0", "1,1,0")]):
            for name, t in ((f"r{i}", theta), (f"ref{i}", same)):
                assert run(["solve", cloud, "--theta", t, "--out", tmp_path / name]) == 0
            for suffix in ("_charges.csv", "_farfield.csv"):
                assert (Path(f"{tmp_path / f'r{i}'}{suffix}").read_bytes()
                        == Path(f"{tmp_path / f'ref{i}'}{suffix}").read_bytes())

    @pytest.mark.parametrize("theta", ["0,0,inf", "nan,0,1", "0,0,0"])
    def test_theta_not_finite_and_nonzero_is_2(self, tmp_path, capsys, theta):
        cloud = tmp_path / "c.json"
        run(gen_args(cloud, a=0.1))
        assert exit_code(["solve", cloud, "--theta", theta, "--out", tmp_path / "r"]) == 2
        assert capsys.readouterr().err.endswith("direction must be finite and nonzero\n")


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

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_negative_L_is_refused_before_the_solve(self, tmp_path, monkeypatch, capsys,
                                                   command):
        """--L -1, 0 and 1 name the oracle's degree, which needs an L - 2 to be
        checked against, and no Foldy-Lax or BIE work runs first."""
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud, a=0.1)) == 0
        no_solve(monkeypatch)
        TestExitCodes.no_bie_work(monkeypatch)
        argv = (["compare", cloud] if command == "compare" else
                ["sweep", "--a-values", "0.2,0.1,0.05", "--s", 0])
        for L in (-1, 0, 1):
            capsys.readouterr()
            assert run([*argv, "--L", L, "--out", tmp_path / "x"]) == 2
            assert capsys.readouterr().err == "error: oracle degree L must be >= 2\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_coarse_degree_is_3(self, tmp_path, capsys):
        """compare_bie's cloud (M = 8): at L = 2 the truncation estimate tau is
        0.63 of the error, which 1e-3 refuses; at L = 3 it is 1.2e-4."""
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud, a=0.04, s=1.0, lambda0="-1",
                            extra=["--Mmax", 0.32, "--jitter", 0.3, "--seed", 1])) == 0
        argv = ["compare", cloud, "--variant", "spherical", "--oracle", "bie",
                "--directions", 50, "--out", tmp_path / "x"]
        capsys.readouterr()
        assert run([*argv, "--L", 2]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cloud}: the boundary-integral oracle at L = 2 is too "
                              "coarse: its truncation estimate tau = max|U_L - U_(L-2)| = ")
        tau, error = (float(err.split(key)[1].split()[0].rstrip(";"))
                      for key in (" = max|U_L - U_(L-2)| = ", "of the error "))
        assert 0.5 < tau / error < 0.8
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
        assert run([*argv, "--L", 3]) == 0
        out = capsys.readouterr().out
        tau, error = (float(out.split(key)[1].split()[0]) for key in ("tau=", "sup_error="))
        assert 5e-5 < tau / error < 1e-3

    def test_one_sphere_coarse_degree_is_3(self, tmp_path, capsys):
        """One sphere (r = 0.05, lambda = -1, kappa = 1) goes through the BIE
        and its truncation check too: L = 2 exits 3, L = 3 passes."""
        cloud = tmp_path / "one.json"
        save_cloud(cloud, make_cloud([[0, 0, 0]], 0.05, -1.0))
        argv = ["compare", cloud, "--variant", "spherical", "--directions", 16,
                "--out", tmp_path / "x"]
        capsys.readouterr()
        assert run([*argv, "--L", 2]) == 3
        assert "truncation estimate tau" in capsys.readouterr().err
        assert run([*argv, "--L", 3]) == 0
        assert float(capsys.readouterr().out.split("residual_oracle=")[1].split()[0]) <= 1e-9

    @pytest.mark.parametrize("distance", [1e9, 1e20])
    def test_bie_on_spheres_far_apart_is_0(self, tmp_path, distance):
        """j_n of the translation at kappa*d far above 2L comes from the upward
        recurrence; Miller's would start at a degree of about kappa*d, which
        ran past a minute at 1e9 and overflowed its int cast at 1e20."""
        cloud = tmp_path / "far.json"
        save_cloud(cloud, make_cloud([[0, 0, 0], [distance, 0, 0]], 0.02, -1.0))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "foldylax.cli", "compare", str(cloud), "--variant",
             "spherical", "--oracle", "bie", "--L", "6", "--directions", "8",
             "--out", str(tmp_path / "x")],
            env=dict(os.environ, FOLDYLAX_THREADS="1", PYTHONPATH=src),
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("sup_error=")

    def test_mie_vs_fl_error_printed(self, tmp_path, capsys):
        """One sphere against the default oracle, the BIE, which is the modal
        series at M = 1; tau, its truncation estimate, is printed too."""
        cloud = tmp_path / "one.json"
        save_cloud(cloud, make_cloud([[0, 0, 0]], 0.05, -1.0))
        assert run(["compare", cloud, "--variant", "spherical",
                    "--directions", 16, "--out", tmp_path / "cmp"]) == 0
        out = capsys.readouterr().out
        sup = float(out.split("sup_error=")[1].split()[0])
        assert 0 < sup < 5e-3  # O(a^3) truncation gap at a = 0.1
        assert 0 <= float(out.split("tau=")[1].split()[0]) <= 1e-3 * sup


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
        printed = capsys.readouterr().out
        assert printed.startswith("slope=")
        assert 0 <= float(printed.split("tau_ratio=")[1].split()[0]) <= 1e-3

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

    @pytest.mark.parametrize("oracle_kind", ["fl"])
    def test_errors_below_the_noise_floor_are_3(self, tmp_path, capsys, oracle_kind):
        """The fl oracle's errors are exact zeros, below any noise floor: no
        slope can be fitted, so no study CSV and exit 3."""
        out = tmp_path / "study.csv"
        capsys.readouterr()
        assert run(["sweep", "--a-values", "1e-4,5e-5,2.5e-5", "--s", 0,
                    "--variant", "spherical", "--oracle", oracle_kind, "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.err == ("error: 0 of 3 far-field errors cleared the noise floor, "
                                "1e-11 of max|U_ref|; a rate fit needs 2\n")
        assert captured.out == "" and not out.exists()

    def test_tiny_spheres_clear_the_relative_noise_floor(self, tmp_path, capsys):
        """Errors of 1.3e-12, 1.6e-13 and 2.0e-14 against the Mie far field of
        spheres this small are 5e-4 of max|U_ref| or more: the floor is
        relative, so they fit the predicted slope 3."""
        out = tmp_path / "study.csv"
        assert run(["sweep", "--a-values", "1e-4,5e-5,2.5e-5", "--s", 0,
                    "--variant", "spherical", "--out", out]) == 0
        _, lines = read_csv(out)
        assert len(lines) == 6 and lines[4] == "slope,intercept,r2,predicted"
        assert all(float(line.split(",")[3]) < 1e-11 for line in lines[1:4])
        assert float(lines[5].split(",")[0]) == pytest.approx(3.0, abs=1e-3)
        assert "slope=2.9999" in capsys.readouterr().out

    def test_quad_order_below_one_is_2(self, tmp_path, monkeypatch, capsys):
        """Refused by the oracle's settings, for either kind, before any solve."""
        cloud = tmp_path / "c.json"
        assert run(gen_args(cloud, a=0.1)) == 0
        no_solve(monkeypatch)
        sweep = ["sweep", "--a-values", "0.04,0.02,0.01", "--s", 1, "--Mmax", 0.2,
                 "--variant", "spherical", "--L", 4]
        for argv in ([*sweep, "--oracle", "bie", "--quad-order", 0],
                     [*sweep, "--oracle", "fl", "--quad-order", 0],
                     ["compare", cloud, "--oracle", "bie", "--quad-order", 0],
                     ["compare", cloud, "--oracle", "fl", "--quad-order", -5]):
            capsys.readouterr()
            assert run([*argv, "--out", tmp_path / "s.csv"]) == 2
            assert capsys.readouterr().err == "error: quadrature order must be >= 1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_coarse_degree_is_3_and_names_its_row(self, tmp_path, capsys):
        """sweep_rate's settings at L = 2: the first row, a = 0.04 (M = 5), has
        tau at 0.62 of its error; no study CSV is written."""
        out = tmp_path / "study.csv"
        capsys.readouterr()
        assert run(["sweep", "--a-values", "0.04,0.02,0.01", "--s", 1, "--Mmax", 0.2,
                    "--jitter", 0.3, "--seed", 1, "--variant", "spherical", "--oracle", "bie",
                    "--L", 2, "--quad-order", 12, "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: a=0.04: the boundary-integral oracle at L = 2 "
                                       "is too coarse: its truncation estimate tau = ")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("a_values", ["0.04,nan,0.01", "0.04,0.02,-0.01"])
    def test_bad_later_radius_is_refused_before_any_solve(self, tmp_path, monkeypatch,
                                                          capsys, a_values):
        """Every radius's regime is checked before the first solve: NaN passes
        the strictly-decreasing test, as every comparison with it is false."""
        def no_solve(*args, **kwargs):
            raise AssertionError("every radius must be checked before the first solve")

        monkeypatch.setattr(analysis, "solve", no_solve)
        capsys.readouterr()
        assert run(["sweep", "--a-values", a_values, "--s", 1, "--Mmax", 0.2,
                    "--variant", "spherical", "--oracle", "bie", "--L", 4,
                    "--out", tmp_path / "s.csv"]) == 2
        assert capsys.readouterr().err == "error: regime admissibility violated: 0 < a < inf\n"
        assert not list(tmp_path.iterdir())


def test_subcommands_import_only_numpy(tmp_path):
    """generate, solve, compare --oracle bie and sweep, each on tiny input,
    load no numpy.random, numpy.polynomial or scipy: the jitter stream, the
    Gauss-Legendre nodes and the rate fit are the package's own, and scipy
    loads for the LU fallback alone, which none of these runs takes. In a
    subprocess: pytest and Hypothesis import numpy.random themselves."""
    runs = ["generate --a 0.1 --s 1 --Mmax 0.5 --jitter 0.3 --seed 3 --out c.json",
            "solve c.json --check-invertibility --out x",
            "compare c.json --variant spherical --oracle bie --L 6 --directions 16 --out y",
            "sweep --a-values 0.04,0.02,0.01 --s 1 --Mmax 0.2 --jitter 0.3 --variant "
            "spherical --oracle bie --L 4 --directions 16 --out s.csv"]
    code = ("import sys; from foldylax.cli import main; loaded = []\n"
            f"for args in {runs!r}:\n"
            "    assert main(args.split()) == 0, args\n"
            "    loaded.append(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "                         or m.startswith(('numpy.random', 'numpy.polynomial'))))\n"
            "print(loaded)")
    assert run_python(code, tmp_path) == "[[], [], [], []]"


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


def test_every_lazy_export_resolves():
    import importlib

    import foldylax
    for gone in ("ScatteringCoefficient", "SurfaceDensity", "optical_theorem_residual",
                 "regime_sweep", "layer_count", "charge_bound_check", "phi",
                 "CoincidentPoints", "CloudStats", "cloud_stats", "coefficient"):
        assert gone not in foldylax.__all__
    for name, module in foldylax._EXPORTS.items():
        assert name in foldylax.__all__
        assert getattr(foldylax, name) is getattr(
            importlib.import_module(f"foldylax.{module}"), name)
    assert all(hasattr(foldylax, name) for name in foldylax.__all__)


def unconstructed(classes, sources) -> set:
    """The names among classes that no call in sources constructs."""
    called = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
              for code in sources for node in ast.walk(ast.parse(code))
              if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))}
    return set(classes) - called


def test_every_error_class_is_raised():
    """No error type outlives the code that raises it: src/foldylax constructs
    every FoldylaxError subclass but the base, and a class it never
    constructs is found."""
    classes = {name for name, obj in vars(errors).items() if isinstance(obj, type)
               and issubclass(obj, errors.FoldylaxError) and obj is not errors.FoldylaxError}
    sources = [p.read_text() for p in Path(errors.__file__).parent.glob("*.py")]
    assert unconstructed(classes, sources) == set()
    dummy = "class NeverRaised(FoldylaxError):\n    pass\n"
    assert unconstructed(classes | {"NeverRaised"}, sources + [dummy]) == {"NeverRaised"}


def test_every_error_class_is_exported():
    import foldylax
    from foldylax import errors
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.FoldylaxError)}
    assert "InsufficientMemory" in classes
    assert classes <= set(foldylax.__all__)
    assert all(getattr(foldylax, name) is getattr(errors, name) for name in classes)
