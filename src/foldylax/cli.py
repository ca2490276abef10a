"""Command-line front end.

Subcommands: generate (build a lattice cloud JSON), solve (charges and far
field for a stored cloud), compare (solve plus reference far field and sup
error), sweep (convergence study over a radius list).

Exit codes: 0 success, 2 invalid input or regime, 3 numerical failure
(singular system, overflowing series, too coarse an oracle degree L, a sweep
whose rate fit has fewer than two errors above the noise floor), 4 too little
memory: a memory guard's refusal (README.md lists what each admits) or a
MemoryError none foresaw.

numpy's BLAS runs on one thread, whatever FOLDYLAX_THREADS is and whatever
the caller exported: its level-2 products are too small to split, and one
thread sums each in one fixed order, so the output bytes do not depend on
the thread count. FOLDYLAX_THREADS sets the worker threads of Foldy-Lax
assembly and the threads of scipy's BLAS when the dense LU runs (see
foldy._checked_lu_solve). Unset, both use every CPU the process may run on;
a value that is not a positive integer exits 2. The one-thread setting must
land in the environment before numpy loads, so every heavy import in this
module lives inside a command handler, not at the top.

Every subcommand loads numpy only: the oracles' special functions are numpy
recurrences, and both systems solve by certified GMRES. scipy.linalg loads
when a solve falls back to the dense LU (a certificate ratio q with
1 - q <= foldy.PIVOT_REL_TOL).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings

from ._threads import thread_count
from ._version import __version__

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_NO_MEMORY = 4

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS")


def _pin_blas_threads():
    """Check FOLDYLAX_THREADS and make every BLAS load with one thread."""
    thread_count()
    os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))


def _complex_arg(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError("expected RE or RE,IM")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise argparse.ArgumentTypeError("expected RE or RE,IM") from None
    return complex(re, im)


def _direction_arg(text: str):
    """X,Y,Z parsed and normalized to a unit vector."""
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("expected X,Y,Z") from None
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected X,Y,Z")
    if not all(map(math.isfinite, parts)) or not any(parts):
        raise argparse.ArgumentTypeError("direction must be finite and nonzero")
    # scaled exactly, by a power of two, so the norm is neither subnormal nor inf
    exponent = math.frexp(max(map(abs, parts)))[1]
    parts = [math.ldexp(p, -exponent) for p in parts]
    norm = math.hypot(*parts)
    return tuple(p / norm for p in parts)


def _float_list(text: str):
    try:
        return [float(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated floats") from None


def _cfg_value(v) -> str:
    from .io import fmt
    if isinstance(v, complex):
        return f"{fmt(v.real)},{fmt(v.imag)}"
    if isinstance(v, float):
        return fmt(v)
    if isinstance(v, (tuple, list)):
        return ",".join(fmt(float(p)) for p in v)
    return str(v)


def _config_comments(args, keys):
    parts = [f"command={args.command}"]
    for key in keys:
        value = getattr(args, key.replace("-", "_"))
        if key == "cloud":
            # basename only: identical runs from different directories must
            # emit byte-identical files
            value = os.path.basename(str(value))
        parts.append(f"{key}={_cfg_value(value)}")
    return (f"foldylax {__version__}", "config: " + " ".join(parts))


def _add_regime_flags(p, with_a: bool):
    if with_a:
        p.add_argument("--a", type=float, required=True, help="obstacle radius scale")
    p.add_argument("--s", type=float, default=0.0, help="count exponent: M ~ Mmax a^-s")
    p.add_argument("--t", type=float, default=1.0, help="separation exponent: d ~ a^t")
    p.add_argument("--beta", type=float, default=0.0,
                   help="impedance growth exponent: lambda = lambda0 a^-beta")
    p.add_argument("--lambda0", type=_complex_arg, default=complex(-1.0),
                   help="base impedance RE or RE,IM (default -1)")
    p.add_argument("--Mmax", dest="Mmax", type=float, default=1.0,
                   help="count prefactor (default 1)")
    p.add_argument("--dmin", type=float, default=1.0, help="min separation prefactor")
    p.add_argument("--dmax", type=float, default=2.0, help="max separation prefactor")
    p.add_argument("--box-side", type=float, default=math.inf,
                   help="bounding cube side (default unbounded)")
    p.add_argument("--jitter", type=float, default=0.0,
                   help="lattice jitter fraction in [0,1) (default 0)")
    p.add_argument("--seed", type=int, default=0, help="jitter RNG seed (default 0)")


def _add_wave_flags(p):
    p.add_argument("--kappa", type=float, default=1.0, help="wavenumber (default 1)")
    p.add_argument("--theta", type=_direction_arg, default=(0.0, 0.0, 1.0),
                   help="incident direction X,Y,Z, normalized (default 0,0,1)")


def _add_oracle_flags(p):
    p.add_argument("--oracle", choices=("bie", "fl"), default="bie",
                   help="reference solver (default bie)")
    p.add_argument("--L", type=int, default=12,
                   help="harmonic truncation degree, >= 2: checked against a solve at L-2")
    p.add_argument("--quad-order", type=int, default=24,
                   help="surface quadrature order, >= 1 (the BIE oracle's "
                        "blocks are exact and ignore it)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldylax",
        description="Acoustic scattering by clouds of small impedance obstacles.")
    parser.add_argument("--version", action="version",
                        version=f"foldylax {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a lattice cloud and save JSON")
    _add_regime_flags(g, with_a=True)
    g.add_argument("--out", required=True, help="output cloud JSON path")
    g.set_defaults(handler=_cmd_generate)

    s = sub.add_parser("solve", help="solve the point-scatterer system")
    s.add_argument("cloud", help="cloud JSON path")
    _add_wave_flags(s)
    s.add_argument("--variant", choices=("general", "spherical"), default="general")
    s.add_argument("--directions", type=int, default=200,
                   help="far-field grid size (default 200)")
    s.add_argument("--check-invertibility", action="store_true",
                   help="print diagonal-dominance diagnostics")
    s.add_argument("--out", required=True, help="output prefix for CSVs")
    s.set_defaults(handler=_cmd_solve)

    c = sub.add_parser("compare", help="solve and compare against a reference")
    c.add_argument("cloud", help="cloud JSON path")
    _add_wave_flags(c)
    c.add_argument("--variant", choices=("general", "spherical"), default="general")
    c.add_argument("--directions", type=int, default=200)
    _add_oracle_flags(c)
    c.add_argument("--out", required=True, help="output prefix for CSVs")
    c.set_defaults(handler=_cmd_compare)

    w = sub.add_parser("sweep", help="convergence study over a radius list")
    w.add_argument("--a-values", type=_float_list, required=True,
                   help="strictly decreasing radii, e.g. 0.04,0.02,0.01")
    _add_regime_flags(w, with_a=False)
    _add_wave_flags(w)
    w.add_argument("--variant", choices=("general", "spherical"), default="general")
    w.add_argument("--directions", type=int, default=200)
    _add_oracle_flags(w)
    w.add_argument("--out", required=True, help="output study CSV path")
    w.set_defaults(handler=_cmd_sweep)
    return parser


_REGIME_KEYS = ["s", "t", "beta", "lambda0", "Mmax", "dmin", "dmax",
                "box-side", "jitter", "seed"]


def _regime_from_args(args, a: float):
    from .geometry import RegimeParams
    return RegimeParams(a=a, s=args.s, t=args.t, beta=args.beta,
                        M_max=args.Mmax, d_min=args.dmin, d_max=args.dmax,
                        lambda0=args.lambda0)


def _oracle_settings(args):
    from .analysis import OracleSettings
    return OracleSettings(kind=args.oracle, L=args.L, quad_order=args.quad_order,
                          n_directions=args.directions)


def _cmd_generate(args) -> int:
    from . import io
    from .geometry import generate_grid_cloud
    regime = _regime_from_args(args, args.a)
    cloud = generate_grid_cloud(regime, box_side=args.box_side,
                                jitter=args.jitter, seed=args.seed)
    io.save_cloud(args.out, cloud)
    print(f"wrote {args.out}: M={cloud.M} a={args.a:g} d_eff={cloud.d_eff:g} "
          f"impedance={_cfg_value(complex(regime.impedance))}")
    return EXIT_OK


def _solve_cloud(args, cloud):
    import numpy as np
    from . import foldy
    from .geometry import IncidentWave
    from .kernels import fibonacci_sphere
    wave = IncidentWave(kappa=args.kappa, theta=np.array(args.theta))
    directions = fibonacci_sphere(args.directions)  # refused before any assembly
    sol = foldy.solve(foldy.assemble(cloud, wave, args.variant))
    return sol, foldy.farfield(sol, directions)


def _cmd_solve(args) -> int:
    from . import io
    from .errors import MissingRegime
    cloud = io.load_cloud(args.cloud)
    if args.check_invertibility and cloud.regime is None:
        raise MissingRegime("invertibility report requires regime parameters")
    sol, grid = _solve_cloud(args, cloud)
    comments = _config_comments(
        args, ["cloud", "kappa", "theta", "variant", "directions"])
    io.write_charges_csv(args.out + "_charges.csv", sol.charges, comments)
    io.write_farfield_csv(args.out + "_farfield.csv", grid.directions, grid.values,
                          comments)
    print(f"M={cloud.M} residual={sol.residual_inf:.3e} "
          f"wrote {args.out}_charges.csv {args.out}_farfield.csv")
    if args.check_invertibility:
        rep = sol.diagnostics  # the report solve attaches for a regime cloud
        print(f"invertibility: case={rep.applicable_case} "
              f"condition={rep.condition_applicable}")
        print(f"  frobenius_offdiag_real={rep.frobenius_offdiag_real:.6g} "
              f"bound={rep.bound_rhs:.6g}")
        print(f"  lemma_threshold={rep.lemma_threshold:.6g} gamma={rep.gamma:.6g} "
              f"remark={rep.remark_gamma_condition}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    from . import analysis, io
    cloud, settings = io.load_cloud(args.cloud), _oracle_settings(args)
    sol, fl_grid = _solve_cloud(args, cloud)
    ref_grid, res_bie, coefficients = analysis.oracle_farfield(
        cloud, fl_grid.wave, fl_grid.directions, settings, fl_grid)
    err = analysis.farfield_error(fl_grid, ref_grid)
    tau, _ = analysis._truncation_check(cloud, ref_grid, err, settings, args.cloud)
    comments = _config_comments(
        args, ["cloud", "kappa", "theta", "variant", "directions",
               "oracle", "L", "quad-order"])
    io.write_farfield_csv(args.out + "_fl.csv", fl_grid.directions, fl_grid.values,
                          comments)
    io.write_farfield_csv(args.out + "_oracle.csv", ref_grid.directions,
                          ref_grid.values, comments)
    if coefficients is not None:
        io.write_density_csv(args.out + "_density.csv", coefficients, comments)
    print(f"sup_error={err:.17g} residual_fl={sol.residual_inf:.3e} "
          f"residual_oracle={res_bie:.3e} tau={tau:.3e}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    import numpy as np
    from . import analysis, io
    from .geometry import IncidentWave
    if not args.a_values:
        raise ValueError("--a-values must be non-empty")
    template = _regime_from_args(args, args.a_values[0])
    wave = IncidentWave(kappa=args.kappa, theta=np.array(args.theta))
    study = analysis.convergence_study(
        template, args.a_values, wave, args.variant, _oracle_settings(args),
        box_side=args.box_side, jitter=args.jitter, seed=args.seed)
    comments = _config_comments(
        args, ["a-values", "kappa", "theta", "variant", "directions", "oracle",
               "L", "quad-order"] + _REGIME_KEYS)
    records = [dict(a=r.a, M=r.M, d=r.d, error=r.error, residual_fl=r.residual_fl,
                    residual_bie=r.residual_bie) for r in study.records]
    io.write_study_csv(args.out, records, study.fit, comments)
    print(f"slope={study.fit.slope:.4f} predicted={study.fit.predicted_slope:g} "
          f"r2={study.fit.r_squared:.6f} tau_ratio={study.tau_ratio:.3e} wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        _pin_blas_threads()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    parser = build_parser()
    args = parser.parse_args(argv)
    from . import errors
    try:
        with warnings.catch_warnings():  # each warning one line, with no source path
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            return args.handler(args)
    except (errors.FoldylaxError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        if isinstance(exc, MemoryError):  # InsufficientMemory is one
            return EXIT_NO_MEMORY
        numerical = (errors.SingularSystem, errors.SeriesNotConverged, errors.RateUndetermined)
        if isinstance(exc, numerical):
            return EXIT_NUMERICAL
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
