"""Threads in CLI runs: numpy's BLAS on one thread whatever the caller
exported, FOLDYLAX_THREADS for assembly and the LU's BLAS, and the same
output bytes at every FOLDYLAX_THREADS.

Every run is a fresh interpreter: a BLAS reads its thread count once, when
it loads, and pytest has loaded numpy already.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import foldylax
from foldylax import foldy
from foldylax.geometry import IncidentWave
from foldylax.io import load_cloud, save_cloud

from cloud_helpers import THREADS

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(foldylax.__file__).resolve().parents[1])


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()
SEED = 1
# a count a caller may have exported; the CLI must load numpy's BLAS with 1
CALLER_BLAS = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "4")
DENSE_CLOUD = [*WORKLOADS.DENSE_CLOUD, "--seed", str(SEED)]  # M = 2500, solve_dense's
STRIP_CLOUD = ["--a", "0.05", "--s", "2", "--t", "1", "--lambda0", "-0.5",
               "--jitter", "0.3", "--seed", str(SEED)]  # M = 400
STRIP_KAPPA = 2 * np.pi

# cli.main on argv, then one JSON line: the exit code, each bundled OpenBLAS's
# thread count in force (keyed numpy or scipy, by the package it ships in) and
# the process's thread count at exit
PROBE = """
import ctypes, json, sys
from pathlib import Path
from foldylax.cli import main
code = main(sys.argv[1:])
blas = {}
with open("/proc/self/maps") as fh:
    paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
for path in paths:
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
        if hasattr(lib, name):
            blas[Path(path).parent.name.split(".")[0]] = getattr(lib, name)()
            break
with open("/proc/self/status") as fh:
    threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
print(json.dumps({"code": code, "blas": blas, "threads": threads}))
"""


def python(args, cwd, threads):
    """stdout of ``python args`` in cwd at FOLDYLAX_THREADS=threads."""
    env = dict(os.environ, PYTHONPATH=SRC, FOLDYLAX_THREADS=str(threads), **CALLER_BLAS)
    proc = subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def generate(flags, out):
    python(["-m", "foldylax.cli", "generate", *flags, "--out", out], out.parent, 1)
    return out


def probe(args, cwd, threads):
    report = json.loads(python(["-c", PROBE, *args], cwd, threads).splitlines()[-1])
    assert report["code"] == 0
    return report


def cli_outputs(args, inputs, work, threads):
    """(stdout, {CSV name: bytes}) of ``python -m foldylax.cli args`` at
    FOLDYLAX_THREADS=threads, run in the new directory work holding copies of
    inputs."""
    work.mkdir()
    for path in inputs:
        shutil.copy(path, work)
    stdout = python(["-m", "foldylax.cli", *args], work, threads)
    return stdout, {p.name: p.read_bytes() for p in sorted(work.glob("*.csv"))}


def assert_same_outputs(runs):
    """Every run of runs, {label: cli_outputs(...)}, printed and wrote what the first did."""
    (_, (stdout, files)), *rest = runs.items()
    assert files
    for label, (other_stdout, other_files) in rest:
        assert other_stdout == stdout, f"stdout of run {label}"
        assert other_files.keys() == files.keys()
        for name, data in files.items():
            assert other_files[name] == data, f"{name} of run {label}"


def assert_same_bytes_per_thread_count(tmp_path, inputs, args):
    assert_same_outputs({threads: cli_outputs(args, inputs, tmp_path / f"threads{threads}", threads)
                         for threads in THREADS})


def charges(csv: bytes) -> np.ndarray:
    rows = [line.split(",") for line in csv.decode().splitlines()[3:]]  # 2 comments, header
    return np.array([complex(float(re), float(im)) for _, re, im in rows])


def blas_or_skip(report):
    if set(report["blas"]) != {"numpy", "scipy"}:
        pytest.skip(f"no scipy-openblas thread symbols in this build: {report['blas']}")
    return report["blas"]


def test_numpy_blas_loads_with_one_thread(tmp_path):
    """A solve at FOLDYLAX_THREADS=2, with 4 BLAS threads exported: numpy's
    library runs one thread, and the process ends with no thread beside its
    main one (assembly's workers have joined, and BLAS started none)."""
    cloud = generate(STRIP_CLOUD, tmp_path / "strip.json")
    report = probe(["solve", cloud, "--out", "x"], tmp_path, 2)
    assert report["blas"].get("numpy", 1) == 1
    assert "scipy" not in report["blas"]
    assert report["threads"] == 1


@pytest.mark.parametrize("flags, kappa, factor", [(DENSE_CLOUD, 1.0, True),
                                                  (STRIP_CLOUD, STRIP_KAPPA, False)],
                         ids=["factor", "strips"])
def test_solve_writes_the_same_bytes_at_any_thread_count(tmp_path, flags, kappa, factor):
    cloud = generate(flags, tmp_path / "cloud.json")
    wave = IncidentWave(kappa=kappa, theta=np.array([0.0, 0.0, 1.0]))
    assert (foldy.assemble(load_cloud(cloud), wave, "general").matrix.factor is not None) == factor
    assert_same_bytes_per_thread_count(
        tmp_path, [cloud], ["solve", "cloud.json", "--kappa", repr(kappa),
                            "--check-invertibility", "--out", "x"])


@pytest.fixture
def mixed_cloud(tmp_path):
    """Every other impedance of the M = 400 strip cloud flipped in sign: the
    diagonal of Re B has mixed signs, q = inf, and the dense LU solves."""
    generated = load_cloud(generate(STRIP_CLOUD, tmp_path / "strip.json"))
    signs = np.where(np.arange(generated.M) % 2, -1.0, 1.0)
    path = tmp_path / "mixed.json"
    save_cloud(path, foldylax.ScattererCloud(
        centers=generated.centers, radii=generated.radii,
        impedances=generated.impedances * signs, regime=generated.regime))
    return path


MIXED_SOLVE = ["solve", "mixed.json", "--kappa", repr(STRIP_KAPPA), "--out", "x"]


def test_lu_fallback_runs_scipy_blas_on_the_threads(tmp_path, mixed_cloud):
    """The LU runs scipy's BLAS on FOLDYLAX_THREADS threads; numpy's stays at 1."""
    assert blas_or_skip(probe(MIXED_SOLVE, tmp_path, 2)) == {"numpy": 1, "scipy": 2}


def test_lu_fallback_bytes_are_fixed_per_thread_count(tmp_path, mixed_cloud):
    """At one FOLDYLAX_THREADS the LU path writes the same bytes run after
    run. Across counts the threaded LU adds its updates in another order (the
    pivots are the same), so the charges may move in their last bits only."""
    runs = {(threads, rep): cli_outputs(MIXED_SOLVE, [mixed_cloud],
                                        tmp_path / f"threads{threads}-{rep}", threads)
            for threads in THREADS for rep in (1, 2)}
    for threads in THREADS:
        assert_same_outputs({rep: runs[threads, rep] for rep in (1, 2)})
    first = charges(runs[THREADS[0], 1][1]["x_charges.csv"])
    for threads in THREADS[1:]:
        moved = np.abs(charges(runs[threads, 1][1]["x_charges.csv"]) - first)
        assert moved.max() <= 1e-13 * np.abs(first).max()


@pytest.mark.parametrize("name", ["compare_bie", "sweep_rate"])
def test_bie_workloads_write_the_same_bytes_at_any_thread_count(tmp_path, name):
    """The benchmark's compare and sweep commands, on its seed-1 clouds (the
    sweep regenerates its own)."""
    clouds = [generate([*flags, "--seed", str(SEED)], tmp_path / f"{stem}.json")
              for stem, flags in WORKLOADS.CLOUDS[name].items()]
    assert_same_bytes_per_thread_count(tmp_path, clouds,
                                       WORKLOADS.cli_args(name, Path("."), SEED))
