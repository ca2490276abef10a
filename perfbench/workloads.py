"""The three benchmark workloads: CLI arguments, input clouds and output checks.

Every workload is one ``foldylax`` subcommand run on inputs generated from
the benchmark seed, which goes in as the jitter ``--seed`` of every cloud.
A run counts as failed when the CLI exits nonzero or when any check below
finds a problem in what it printed or wrote.
"""

from __future__ import annotations

import math
from pathlib import Path

DIRECTIONS = 200
RESIDUAL_MAX = 1e-10
# compare: the BIE far field is converged to ~1e-13 relative at L=12, q=24
# (L=14, q=28 and q=32 move sup_error by < 3e-14), and thread count moves it
# by ~1e-14; the point-scatterer error it measures is O(a), i.e. the whole
# value. 1e-8 sits far from both.
SUP_ERROR_RTOL = 1e-8
SLOPE_TOL = 0.05
R2_MIN = 0.99

DENSE_CLOUD = ("--a", "0.02", "--s", "2", "--t", "1", "--lambda0", "-0.5",
               "--jitter", "0.3")
SPHERES_CLOUD = ("--a", "0.04", "--s", "1", "--Mmax", "0.32", "--lambda0", "-1",
                 "--jitter", "0.3")
COMPARE_L = 12
SWEEP_A = ("0.04", "0.02", "0.01")
SWEEP_REGIME = ("--s", "1", "--Mmax", "0.2", "--jitter", "0.3")
SWEEP_PREDICTED = 2.0  # 3 - s - beta for the spherical variant


# input clouds per workload: file stem -> ``foldylax generate`` flags, to which
# set-up adds ``--seed`` and ``--out``. Why each workload exists: README.md.
CLOUDS = {
    "solve_dense": {"dense": DENSE_CLOUD},
    "compare_bie": {"spheres": SPHERES_CLOUD},
    "sweep_rate": {f"sweep_{a}": ("--a", a) + SWEEP_REGIME for a in SWEEP_A},
}


def cli_args(name: str, work: Path, seed: int) -> list[str]:
    """``foldylax`` arguments of one measured run; outputs go under ``work/out``."""
    out = str(work / "out")
    if name == "solve_dense":
        return ["solve", str(work / "dense.json"), "--check-invertibility",
                "--directions", str(DIRECTIONS), "--out", out]
    if name == "compare_bie":
        return ["compare", str(work / "spheres.json"), "--variant", "spherical",
                "--oracle", "bie", "--L", str(COMPARE_L), "--quad-order", "24",
                "--directions", str(DIRECTIONS), "--out", out]
    return ["sweep", "--a-values", ",".join(SWEEP_A), *SWEEP_REGIME,
            "--seed", str(seed), "--variant", "spherical", "--oracle", "bie",
            "--L", "6", "--quad-order", "12", "--directions", str(DIRECTIONS),
            "--out", out + "_study.csv"]


def output_files(name: str, work: Path) -> list[Path]:
    suffixes = {"solve_dense": ("_charges.csv", "_farfield.csv"),
                "compare_bie": ("_fl.csv", "_oracle.csv", "_density.csv"),
                "sweep_rate": ("_study.csv",)}[name]
    return [work / ("out" + s) for s in suffixes]


def _fields(text: str, prefix: str) -> dict:
    """key=value pairs of the first stdout line starting with ``prefix``."""
    for line in text.splitlines():
        if line.strip().startswith(prefix):
            return dict(part.split("=", 1) for part in line.split() if "=" in part)
    raise ValueError(f"no line starting with {prefix!r}")


def parse_stdout(name: str, text: str) -> dict:
    """The numbers a run printed, as the checks consume them."""
    if name == "solve_dense":
        head = _fields(text, "M=")
        inv = _fields(text, "invertibility:")
        return {"M": int(head["M"]), "residual": float(head["residual"]),
                "condition": inv["condition"] == "True"}
    if name == "compare_bie":
        f = _fields(text, "sup_error=")
        return {"sup_error": float(f["sup_error"])}
    f = _fields(text, "slope=")
    return {"slope": float(f["slope"]), "predicted": float(f["predicted"]),
            "r2": float(f["r2"])}


def read_tables(path: Path) -> list[tuple[str, list[list[float]]]]:
    """(header, rows) of each table in a CLI CSV; '#' lines are skipped.

    Raises ValueError on a ragged row, an unparsable cell or a value that is
    not finite.
    """
    tables = []
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        try:
            row = [float(c) for c in cells]
        except ValueError:
            tables.append((line, []))
            continue
        if not tables:
            raise ValueError(f"{path}: data before any header")
        header, rows = tables[-1]
        if len(row) != len(header.split(",")):
            raise ValueError(f"{path}: row has {len(row)} cells under {header!r}")
        if not all(math.isfinite(v) for v in row):
            raise ValueError(f"{path}: non-finite value in {line!r}")
        rows.append(row)
    return tables


def _expect_tables(path: Path, shape: list[tuple[str, int]]) -> list[str]:
    try:
        tables = read_tables(path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    got = [(h, len(rows)) for h, rows in tables]
    return [] if got == shape else [f"{path.name}: tables {got}, expected {shape}"]


def check(name: str, values: dict, work: Path, expect: dict) -> list[str]:
    """Problems found in one run's printed values and written CSVs.

    ``expect`` holds what set-up knows: ``M`` per cloud stem, read from the
    generated documents, and ``sup_error``, the stored reference.
    """
    problems = []
    files = output_files(name, work)
    ff = "xhat_x,xhat_y,xhat_z,re_U,im_U"
    if name == "solve_dense":
        M = expect["M"]["dense"]
        if values["M"] != M:
            problems.append(f"M={values['M']}, cloud has {M}")
        if not values["residual"] <= RESIDUAL_MAX:
            problems.append(f"residual {values['residual']:g} > {RESIDUAL_MAX:g}")
        if not values["condition"]:
            problems.append("invertibility condition not met")
        problems += _expect_tables(files[0], [("m,re_Q,im_Q", M)])
        problems += _expect_tables(files[1], [(ff, DIRECTIONS)])
    elif name == "compare_bie":
        ref = expect["sup_error"]
        if not abs(values["sup_error"] - ref) <= SUP_ERROR_RTOL * abs(ref):
            problems.append(f"sup_error {values['sup_error']!r} != reference {ref!r}")
        problems += _expect_tables(files[0], [(ff, DIRECTIONS)])
        problems += _expect_tables(files[1], [(ff, DIRECTIONS)])
        problems += _expect_tables(files[2], [("sphere,l,m,re,im",
                                               expect["M"]["spheres"] * (COMPARE_L + 1) ** 2)])
    else:
        if values["predicted"] != SWEEP_PREDICTED:
            problems.append(f"predicted slope {values['predicted']:g} != {SWEEP_PREDICTED:g}")
        if not abs(values["slope"] - SWEEP_PREDICTED) <= SLOPE_TOL:
            problems.append(f"slope {values['slope']:g} off {SWEEP_PREDICTED:g} by > {SLOPE_TOL}")
        if not values["r2"] >= R2_MIN:
            problems.append(f"r2 {values['r2']:g} < {R2_MIN}")
        shape = [("a,M,d,error,residual_fl,residual_bie", len(SWEEP_A)),
                 ("slope,intercept,r2,predicted", 1)]
        table_problems = _expect_tables(files[0], shape)
        problems += table_problems
        if not table_problems:
            Ms = [int(row[1]) for row in read_tables(files[0])[0][1]]
            want = [expect["M"][f"sweep_{a}"] for a in SWEEP_A]
            if Ms != want:
                problems.append(f"study M column {Ms}, clouds have {want}")
    return problems
