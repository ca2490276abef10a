"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the measured
numbers for passing criteria too). Each test prints one summary line and
enforces its wall-clock budget.
"""

import dataclasses
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from foldylax import (OracleSettings, RegimeParams, assemble,
                      assemble_bie, bie_farfield, convergence_study, farfield,
                      farfield_error, generate_grid_cloud, solve, solve_bie)
from foldylax.cli import main as cli_main
from foldylax.kernels import fibonacci_sphere

from cloud_helpers import make_cloud, make_wave
from quadrature_oracles import mie_reference, optical_theorem_residual

KAPPA = 1.0


def report(n, ok, detail):
    line = f"criterion {n:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def single_sphere_spherical_study():
    """M = 1, lambda0 = -1, beta = 0, spherical variant vs the BIE reference,
    which criterion 8 pins to the modal series."""
    rg = RegimeParams(a=0.1, s=0.0, t=1.0, beta=0.0, M_max=1.0,
                      d_min=1.0, d_max=2.0, lambda0=-1.0)
    wave = make_wave(kappa=KAPPA)
    t0 = time.monotonic()
    study = convergence_study(rg, [0.2, 0.1, 0.05, 0.025], wave, "spherical",
                              OracleSettings())
    return study, time.monotonic() - t0


def test_criterion_01_single_sphere_rate(single_sphere_spherical_study):
    """Spherical-variant error decays at order >= 2.7. The reference is the
    BIE at L = 12, checked against its own solve at L = 10; at M = 1 it is
    the exact modal series, to which criterion 8 pins it."""
    study, elapsed = single_sphere_spherical_study
    ok = study.fit.slope >= 2.7 and elapsed < 30.0
    report(1, ok, f"slope={study.fit.slope:.3f} >= 2.7, "
                  f"r2={study.fit.r_squared:.5f} ({elapsed:.1f}s < 30s)")


def test_criterion_02_variant_rate_gap():
    """At beta = 0.5 the spherical variant beats the general one by >= 0.3."""
    t0 = time.monotonic()
    rg = RegimeParams(a=0.1, s=0.0, t=1.0, beta=0.5, M_max=1.0,
                      d_min=1.0, d_max=2.0, lambda0=-1.0)
    wave = make_wave(kappa=KAPPA)
    a_values = [0.2, 0.1, 0.05, 0.025]
    sph = convergence_study(rg, a_values, wave, "spherical", OracleSettings())
    gen = convergence_study(rg, a_values, wave, "general", OracleSettings())
    elapsed = time.monotonic() - t0
    gap = sph.fit.slope - gen.fit.slope
    ok = gap >= 0.3 and elapsed < 60.0
    report(2, ok, f"spherical slope={sph.fit.slope:.3f}, general "
                  f"slope={gen.fit.slope:.3f}, gap={gap:.3f} >= 0.3 "
                  f"({elapsed:.1f}s < 60s)")


def test_criterion_03_three_sphere_cloud(single_sphere_spherical_study):
    """Fixed 3-sphere cloud vs the coupled solver: error <= 5*C*a^3 with C
    calibrated on the single-sphere study, and rate >= 2.7 as radii shrink."""
    t0 = time.monotonic()
    calib, _ = single_sphere_spherical_study
    C = max(r.error / r.a**3 for r in calib.records)
    centers = np.array([[0.0, 0.0, 0.0], [0.6, 0.0, 0.0], [0.1, 0.7, 0.2]])
    wave = make_wave(kappa=KAPPA)
    dirs = fibonacci_sphere(200)
    errors, a_values = [], [0.04, 0.02, 0.01]
    worst_ratio = 0.0
    for a in a_values:
        cloud = make_cloud(centers, a / 2.0, -1.0)
        fl = farfield(solve(assemble(cloud, wave, "spherical")), dirs)
        ref = bie_farfield(solve_bie(assemble_bie(cloud, wave)), dirs)
        err = farfield_error(fl, ref)
        errors.append(err)
        worst_ratio = max(worst_ratio, err / (5.0 * C * a**3))
    from foldylax import fit_rate
    fit = fit_rate(a_values, errors, 3.0)
    elapsed = time.monotonic() - t0
    ok = worst_ratio <= 1.0 and fit.slope >= 2.7 and elapsed < 300.0
    report(3, ok, f"max err/(5*C*a^3)={worst_ratio:.3f} <= 1 with C={C:.3f}, "
                  f"slope={fit.slope:.3f} >= 2.7 ({elapsed:.1f}s < 300s)")


def test_criterion_04_reciprocity():
    """Uinf(xhat; theta) = Uinf(-theta; -xhat) over 20 random direction pairs."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    centers = rng.uniform(-1.5, 1.5, (8, 3))
    cloud = make_cloud(centers, 0.02, -1.0 + 0.3j)
    worst = 0.0
    for _ in range(20):
        th = rng.normal(size=3)
        xh = rng.normal(size=3)
        th /= np.linalg.norm(th)
        xh /= np.linalg.norm(xh)
        kappa = rng.uniform(0.5, 1.5)
        fwd = farfield(solve(assemble(cloud, make_wave(kappa, th), "general")),
                       xh[None, :]).values[0]
        bwd = farfield(solve(assemble(cloud, make_wave(kappa, -xh), "general")),
                       -th[None, :]).values[0]
        worst = max(worst, abs(fwd - bwd) / max(1.0, abs(fwd)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-11 and elapsed < 10.0
    report(4, ok, f"max |Uinf(x;t)-Uinf(-t;-x)|/max(1,|Uinf|)={worst:.2e} "
                  f"<= 1e-11 ({elapsed:.1f}s < 10s)")


@pytest.fixture(scope="module")
def dense_lattice_sweep():
    """s = 2 - beta lattice clouds at a in {0.1, 0.05}: M = 100 and 400."""
    rg = RegimeParams(a=0.1, s=2.0, t=1.0, beta=0.0, M_max=1.0,
                      d_min=1.0, d_max=2.0, lambda0=-0.5)
    wave = make_wave(kappa=KAPPA)
    t0 = time.monotonic()
    rows = []
    for a in (0.1, 0.05):
        cloud = generate_grid_cloud(dataclasses.replace(rg, a=a), box_side=math.inf)
        sol = solve(assemble(cloud, wave, "general"))
        rows.append(SimpleNamespace(a=a, M=cloud.M, report=sol.diagnostics,
                                    residual=sol.residual_inf))
    return rg, rows, time.monotonic() - t0


def test_criterion_05_invertibility_condition(dense_lattice_sweep):
    """Densest admissible regime: lemma condition holds and solves stay clean."""
    _, rows, elapsed = dense_lattice_sweep
    ok = (all(r.report.condition_applicable for r in rows)
          and all(r.residual <= 1e-10 for r in rows)
          and [r.M for r in rows] == [100, 400]
          and elapsed < 60.0)
    detail = ", ".join(f"a={r.a:g}: M={r.M}, condition={r.report.condition_applicable}, "
                       f"residual={r.residual:.1e}" for r in rows)
    report(5, ok, detail + f" ({elapsed:.1f}s < 60s)")


def test_criterion_06_frobenius_bound(dense_lattice_sweep):
    """||Re B_n||_F <= sqrt(2 M_max)/pi * a^(-s/t) on the criterion-5 clouds."""
    rg, rows, _ = dense_lattice_sweep
    ok = True
    parts = []
    for r in rows:
        bound = math.sqrt(2.0 * rg.M_max) / math.pi * r.a ** (-rg.s / rg.t) + 1e-9
        ok = ok and r.report.frobenius_offdiag_real <= bound
        parts.append(f"a={r.a:g}: {r.report.frobenius_offdiag_real:.2f} <= {bound:.2f}")
    report(6, ok, "; ".join(parts))


def test_criterion_07_density_norm_scaling():
    """Coupled-solver surface density norms track a^(1-beta) within factor 2."""
    t0 = time.monotonic()
    wave = make_wave(kappa=KAPPA)
    parts = []
    ok = True
    for beta in (0.0, 0.5):
        norms = []
        for a in (0.1, 0.05, 0.025):
            lam = -1.0 * a ** (-beta)
            cloud = make_cloud([[0.0, 0.0, 0.0]], a / 2.0, lam)
            sol = solve_bie(assemble_bie(cloud, wave))
            # ||sigma||_{L^2} = r ||c||_2 in the orthonormal unit-sphere basis
            l2_norm = float(cloud.radii[0] * np.linalg.norm(sol.coefficients[0]))
            norms.append(l2_norm / a ** (1.0 - beta))
        band = max(norms) / min(norms)
        ok = ok and band <= 2.0
        parts.append(f"beta={beta:g}: band={band:.3f} <= 2")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(7, ok, "; ".join(parts) + f" ({elapsed:.1f}s < 60s)")


def test_criterion_08_oracle_cross_checks():
    """Coupled solver matches the modal series to 1e-8; energy identity to 1e-6."""
    t0 = time.monotonic()
    wave = make_wave(kappa=KAPPA)
    r, lam = 0.25, -1.0  # kappa * diameter = 0.5
    dirs = fibonacci_sphere(200)
    mie = mie_reference(wave, r, lam, dirs, L=12)
    bie = bie_farfield(solve_bie(assemble_bie(make_cloud([[0, 0, 0]], r, lam),
                                              wave, L=12, quad_order=24)), dirs)
    gap = float(np.max(np.abs(mie.values - bie.values)))
    check = optical_theorem_residual(
        lambda d: mie_reference(wave, r, lam, d, L=12).values, wave)
    elapsed = time.monotonic() - t0
    ok = gap <= 1e-8 and check.residual <= 1e-6 and elapsed < 30.0
    report(8, ok, f"sup|coupled-modal|={gap:.2e} <= 1e-8, energy-identity "
                  f"residual={check.residual:.2e} <= 1e-6 ({elapsed:.1f}s < 30s)")


def layer_count(n: int) -> int:
    """Number of cells in cubic layer n around a center cell: (2n+1)^3 - (2n-1)^3."""
    return 24 * n * n + 2


def test_criterion_09_layer_counts():
    """Cubic shell counts 24n^2+2 for n = 1..1000, telescoping to (2N+1)^3-1."""
    t0 = time.monotonic()
    total = 0
    ok = True
    for n in range(1, 1001):
        c = layer_count(n)
        ok = ok and c == (2 * n + 1) ** 3 - (2 * n - 1) ** 3
        total += c
    ok = ok and total == 2001**3 - 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report(9, ok, f"n=1..1000 exact, cumulative={total} = 2001^3-1 "
                  f"({elapsed:.2f}s < 1s)")


def test_criterion_10_deterministic_outputs(tmp_path):
    """Two runs of the full seeded pipeline emit byte-identical artifacts."""
    t0 = time.monotonic()
    outputs = []
    for tag in ("run1", "run2"):
        d = tmp_path / tag
        d.mkdir()
        cloud = d / "cloud.json"
        assert cli_main(["generate", "--a", "0.05", "--s", "2", "--t", "1",
                         "--lambda0", "-0.5", "--jitter", "0.4", "--seed", "9",
                         "--out", str(cloud)]) == 0
        assert cli_main(["solve", str(cloud), "--kappa", "1", "--theta", "0,0,1",
                         "--variant", "general", "--directions", "100",
                         "--out", str(d / "sol")]) == 0
        assert cli_main(["sweep", "--a-values", "0.2,0.1,0.05", "--s", "0",
                         "--variant", "spherical", "--directions", "100",
                         "--out", str(d / "study.csv")]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
    elapsed = time.monotonic() - t0
    same = outputs[0] == outputs[1]
    names = sorted(outputs[0])
    ok = same and len(names) == 4
    report(10, ok, f"{len(names)} artifacts byte-identical across reruns: "
                   f"{', '.join(names)} ({elapsed:.1f}s)")
