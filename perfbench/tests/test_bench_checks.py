"""A run whose outputs are wrong is counted as failed, whatever its exit code."""

import math

import pytest

from child import Child
from run import Bench
from workloads import check, read_tables

M = 4
FAR_HEADER = "xhat_x,xhat_y,xhat_z,re_U,im_U"


def charges_csv(rows=M):
    lines = ["# foldylax 0.1.0", "m,re_Q,im_Q"]
    lines += [f"{m},0.5,-0.25" for m in range(1, rows + 1)]
    return "\n".join(lines) + "\n"


def farfield_csv(rows=200):
    return "\n".join([FAR_HEADER] + ["0,0,1,1.5,2.5"] * rows) + "\n"


SOLVE_STDOUT = (f"M={M} residual={{residual}} wrote out_charges.csv out_farfield.csv\n"
                "invertibility: case=NegRealLambda condition={condition}\n")


def solve_run(tmp_path, monkeypatch, residual="2.7e-15", condition="True",
              charges=None):
    """measured_run of solve_dense with the CLI replaced by a canned child."""
    bench = Bench("solve_dense", seed=0)
    bench.work = tmp_path

    def fake_cli(args):
        (tmp_path / "out_charges.csv").write_text(
            charges_csv() if charges is None else charges)
        (tmp_path / "out_farfield.csv").write_text(farfield_csv())
        stdout = SOLVE_STDOUT.format(residual=residual, condition=condition)
        return Child(wall_s=1.0, maxrss_mb=10.0, returncode=0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench, "cli", fake_cli)
    return bench.measured_run({"M": {"dense": M}})


def test_good_outputs_pass(tmp_path, monkeypatch):
    assert solve_run(tmp_path, monkeypatch)["problems"] == []


@pytest.mark.parametrize("residual", ["1e-9", "nan"])
def test_large_residual_fails(tmp_path, monkeypatch, residual):
    assert solve_run(tmp_path, monkeypatch, residual=residual)["problems"]


def test_invertibility_condition_false_fails(tmp_path, monkeypatch):
    assert solve_run(tmp_path, monkeypatch, condition="False")["problems"]


@pytest.mark.parametrize("charges", [
    charges_csv(rows=M - 1),                          # a row missing
    charges_csv().replace("0.5,-0.25", "0.5", 1),     # ragged row
    charges_csv().replace("-0.25", "nan", 1),         # non-finite value
    charges_csv().replace("0.5", "0.5x", 1),          # unparsable cell
    charges_csv()[:-5],                               # truncated file
])
def test_corrupted_csv_fails(tmp_path, monkeypatch, charges):
    assert solve_run(tmp_path, monkeypatch, charges=charges)["problems"]


def test_missing_output_fails(tmp_path, monkeypatch):
    bench = Bench("solve_dense", seed=0)
    bench.work = tmp_path
    (tmp_path / "out_charges.csv").write_text(charges_csv())  # stale file
    monkeypatch.setattr(bench, "cli", lambda args: Child(
        1.0, 10.0, 0, SOLVE_STDOUT.format(residual="1e-15", condition="True"), ""))
    assert bench.measured_run({"M": {"dense": M}})["problems"]


def test_nonzero_exit_fails(tmp_path, monkeypatch):
    bench = Bench("solve_dense", seed=0)
    bench.work = tmp_path
    monkeypatch.setattr(bench, "cli", lambda args: Child(1.0, 10.0, 3, "", "error: x"))
    assert bench.measured_run({"M": {"dense": M}})["problems"] == ["exit 3: error: x"]


def test_sup_error_off_reference_fails(tmp_path):
    for name in ("out_fl.csv", "out_oracle.csv"):
        (tmp_path / name).write_text(farfield_csv())
    (tmp_path / "out_density.csv").write_text(
        "sphere,l,m,re,im\n" + "1,0,0,1,1\n" * (2 * 13 ** 2))
    expect = {"M": {"spheres": 2}, "sup_error": 6e-4}
    assert check("compare_bie", {"sup_error": 6e-4 * (1 + 1e-12)}, tmp_path, expect) == []
    assert check("compare_bie", {"sup_error": 6e-4 * (1 + 1e-6)}, tmp_path, expect)


def test_sweep_slope_and_row_counts(tmp_path):
    study = ("a,M,d,error,residual_fl,residual_bie\n"
             "0.04,5,0.05,1e-3,1e-16,1e-16\n0.02,10,0.03,2.5e-4,1e-16,1e-16\n"
             "0.01,20,0.01,6e-5,1e-16,1e-16\n"
             "slope,intercept,r2,predicted\n2.01,1.0,0.9999,2\n")
    (tmp_path / "out_study.csv").write_text(study)
    expect = {"M": {"sweep_0.04": 5, "sweep_0.02": 10, "sweep_0.01": 20}}
    good = {"slope": 2.01, "predicted": 2.0, "r2": 0.9999}
    assert check("sweep_rate", good, tmp_path, expect) == []
    assert check("sweep_rate", dict(good, slope=1.9), tmp_path, expect)
    assert check("sweep_rate", dict(good, r2=0.98), tmp_path, expect)
    expect["M"]["sweep_0.01"] = 21
    assert check("sweep_rate", good, tmp_path, expect)


def test_read_tables_splits_header_and_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# c\na,b\n1,2\n3,4\nx,y,z\n5,6,7\n")
    assert read_tables(path) == [("a,b", [[1.0, 2.0], [3.0, 4.0]]),
                                 ("x,y,z", [[5.0, 6.0, 7.0]])]
    path.write_text("1,2\n")
    with pytest.raises(ValueError):
        read_tables(path)
    path.write_text(f"a\n{math.inf}\n")
    with pytest.raises(ValueError):
        read_tables(path)
