"""Traced in-process run: the public calls each CLI handler makes, one span each.

Each ``run_<workload>`` function repeats what ``foldylax.cli`` does for that
subcommand: the same public functions, in the same order, on arguments parsed
by the CLI's own parser. Every call goes through a probe; ``Timed`` records a
span per call. The calls whose allocations are reported are then made again
on the same inputs under ``tracemalloc``, in a separate pass, so allocation
tracking never inflates a timed span.

Public functions that call other public functions (``foldy.solve``,
``analysis.oracle_farfield``, ``analysis.convergence_study``, and the calls
that construct a ``ScattererCloud``) are timed whole, then each part is
called again on the same inputs as a child span (see ``spans``).

Counts are read from the objects the calls return, never restated from the
workload's inputs.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
from collections import defaultdict

import numpy as np

from foldylax import analysis, foldy, io, oracle, spherical
from foldylax.cli import build_parser
from foldylax.geometry import (IncidentWave, RegimeParams, ScattererCloud,
                               generate_grid_cloud)
from foldylax.kernels import fibonacci_sphere
from spans import ALLOCATING


class Timed:
    """Probe of the timed pass: one span per call.

    Calls named in ``spans.ALLOCATING`` are also kept, with their inputs, for
    the allocation pass.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.kept = []

    def __call__(self, name, fn, args, kwargs, parent):
        with self.tracer.span(name, parent) as sid:
            out = fn(*args, **kwargs)
        if name in ALLOCATING:
            self.kept.append((name, fn, args, kwargs))
        return out, sid


class Pipeline:
    """The package's public calls, routed through a probe, with their counts."""

    def __init__(self, probe):
        self.probe = probe
        self.counts: dict[str, float] = defaultdict(float)
        self.written: list[str] = []

    def call(self, name, fn, *args, parent=None, **kwargs):
        return self.probe(name, fn, args, kwargs, parent)

    def _cloud_parts(self, cloud: ScattererCloud, parent):
        self.call("geometry.ScattererCloud", ScattererCloud, parent=parent,
                  centers=cloud.centers, radii=cloud.radii,
                  impedances=cloud.impedances, regime=cloud.regime,
                  areas=None if cloud.is_spherical else cloud.areas)

    def load_cloud(self, path):
        cloud, sid = self.call("io.load_cloud", io.load_cloud, path)
        self._cloud_parts(cloud, sid)
        return cloud

    def generate(self, regime, box_side, jitter, seed, parent=None):
        cloud, sid = self.call("geometry.generate_grid_cloud", generate_grid_cloud,
                               regime, box_side=box_side, jitter=jitter, seed=seed,
                               parent=parent)
        self._cloud_parts(cloud, sid)
        return cloud

    def assemble(self, cloud, wave, variant, parent=None):
        return self.call("foldy.assemble", foldy.assemble, cloud, wave, variant,
                         parent=parent)[0]

    def solve(self, system, parent=None):
        sol, sid = self.call("foldy.solve", foldy.solve, system, parent=parent)
        if system.cloud.regime is not None:
            self.call("foldy.invertibility_report", foldy.invertibility_report,
                      system, parent=sid)
        n = system.matrix.shape[0]
        self.counts["foldy.solve.gflops_computed"] += 8.0 * n**3 / 3e9
        return sol

    def farfield(self, sol, directions, parent=None):
        return self.call("foldy.farfield", foldy.farfield, sol, directions,
                         parent=parent)[0]

    def oracle_farfield(self, cloud, wave, directions, settings, fl_grid, parent=None):
        if settings.kind != "bie":
            raise ValueError("traced oracle replay covers the BIE route only")
        out, sid = self.call("analysis.oracle_farfield", analysis.oracle_farfield,
                             cloud, wave, directions, settings, fl_grid, parent=parent)
        system, bid = self.call("oracle.assemble_bie", oracle.assemble_bie, cloud,
                                wave, L=settings.L, quad_order=settings.quad_order,
                                parent=sid)
        for r in cloud.radii:
            self.call("oracle.sphere_operator_spectra", oracle.sphere_operator_spectra,
                      wave.kappa, float(r), settings.L, parent=bid)
        quad, _ = self.call("spherical.sphere_quadrature", spherical.sphere_quadrature,
                            settings.quad_order, parent=bid)
        self.call("spherical.harmonic_matrix", spherical.harmonic_matrix,
                  settings.L, quad.points, parent=bid)
        for _ in range(cloud.M):  # incident-wave coefficients, one sphere each
            self.call("spherical.harmonic_matrix", spherical.harmonic_matrix,
                      settings.L, wave.theta.reshape(1, 3), parent=bid)
        spheres = system.matrix.shape[0] // spherical.n_coeffs(system.L)
        self.counts["oracle.coupling_blocks"] += spheres * (spheres - 1)
        bie_sol, _ = self.call("oracle.solve_bie", oracle.solve_bie, system, parent=sid)
        _, fid = self.call("oracle.bie_farfield", oracle.bie_farfield, bie_sol,
                           directions, parent=sid)
        self.call("spherical.harmonic_matrix", spherical.harmonic_matrix, system.L,
                  np.asarray(directions, dtype=float).reshape(-1, 3), parent=fid)
        return out

    def farfield_error(self, grid_a, grid_b, parent=None):
        return self.call("analysis.farfield_error", analysis.farfield_error,
                         grid_a, grid_b, parent=parent)[0]

    def convergence_study(self, template, a_values, wave, variant, settings,
                          box_side, jitter, seed):
        study, sid = self.call("analysis.convergence_study", analysis.convergence_study,
                               template, a_values, wave, variant, settings,
                               box_side=box_side, jitter=jitter, seed=seed)
        directions = fibonacci_sphere(settings.n_directions)
        errors = []
        for a in a_values:
            cloud = self.generate(dataclasses.replace(template, a=a), box_side,
                                  jitter, seed, parent=sid)
            sol = self.solve(self.assemble(cloud, wave, variant, parent=sid), parent=sid)
            grid = self.farfield(sol, directions, parent=sid)
            ref = self.oracle_farfield(cloud, wave, directions, settings, grid,
                                       parent=sid)[0]
            errors.append(self.farfield_error(grid, ref, parent=sid))
        self.call("analysis.fit_rate", analysis.fit_rate, a_values, errors,
                  analysis.predicted_slope(template, variant), parent=sid)
        return study

    def write(self, fn, path, *args):
        self.call("io.write_csv", fn, path, *args)
        self.written.append(path)


def _wave(args):
    return IncidentWave(kappa=args.kappa, theta=np.array(args.theta))


def _settings(args):
    return analysis.OracleSettings(kind=args.oracle, L=args.L,
                                   quad_order=args.quad_order,
                                   n_directions=args.directions)


def _solve_cloud(p: Pipeline, args):
    cloud = p.load_cloud(args.cloud)
    wave = _wave(args)
    system = p.assemble(cloud, wave, args.variant)
    sol = p.solve(system)
    grid = p.farfield(sol, fibonacci_sphere(args.directions))
    return cloud, wave, sol, grid


def run_solve_dense(p: Pipeline, args) -> dict:
    cloud, _, sol, grid = _solve_cloud(p, args)
    p.write(io.write_charges_csv, args.out + "_charges.csv", sol.charges)
    p.write(io.write_farfield_csv, args.out + "_farfield.csv", grid.directions,
            grid.values)
    return {"M": cloud.M, "residual": sol.residual_inf,
            "condition": sol.diagnostics.condition_applicable}


def run_compare_bie(p: Pipeline, args) -> dict:
    cloud, wave, _, fl_grid = _solve_cloud(p, args)
    ref_grid, _, densities = p.oracle_farfield(cloud, wave, fl_grid.directions,
                                               _settings(args), fl_grid)
    err = p.farfield_error(fl_grid, ref_grid)
    p.write(io.write_farfield_csv, args.out + "_fl.csv", fl_grid.directions,
            fl_grid.values)
    p.write(io.write_farfield_csv, args.out + "_oracle.csv", ref_grid.directions,
            ref_grid.values)
    p.write(io.write_density_csv, args.out + "_density.csv", densities)
    return {"sup_error": err}


def run_sweep_rate(p: Pipeline, args) -> dict:
    template = RegimeParams(a=args.a_values[0], s=args.s, t=args.t, beta=args.beta,
                            M_max=args.Mmax, d_min=args.dmin, d_max=args.dmax,
                            lambda0=args.lambda0)
    study = p.convergence_study(template, args.a_values, _wave(args), args.variant,
                                _settings(args), box_side=args.box_side,
                                jitter=args.jitter, seed=args.seed)
    records = [dict(a=r.a, M=r.M, d=r.d, error=r.error, residual_fl=r.residual_fl,
                    residual_bie=r.residual_bie) for r in study.records]
    p.write(io.write_study_csv, args.out, records, study.fit)
    return {"slope": study.fit.slope, "predicted": study.fit.predicted_slope,
            "r2": study.fit.r_squared}


RUNS = {"solve_dense": run_solve_dense, "compare_bie": run_compare_bie,
        "sweep_rate": run_sweep_rate}


def parse_cli(argv):
    """The namespace ``foldylax.cli`` would hand to its handler."""
    return build_parser().parse_args(argv)


def timed_pass(name: str, argv, tracer) -> tuple[dict, dict, list, list]:
    """Run a workload under spans.

    Returns the values to check, the counts, the files written and the kept
    calls for ``alloc_pass``.
    """
    probe = Timed(tracer)
    p = Pipeline(probe)
    values = RUNS[name](p, parse_cli(argv))
    return values, dict(p.counts), p.written, probe.kept


def alloc_pass(kept) -> dict[str, float]:
    """Call each kept call again under ``tracemalloc``: largest peak per name, MB."""
    peaks: dict[str, float] = {}
    tracemalloc.start()
    try:
        for name, fn, args, kwargs in kept:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn(*args, **kwargs)
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            peaks[name] = max(peaks.get(name, 0.0), peak)
    finally:
        tracemalloc.stop()
    return peaks
