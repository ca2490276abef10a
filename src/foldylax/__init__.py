"""Acoustic scattering by clouds of small impedance obstacles.

Point-scatterer (Foldy-Lax) far fields with a boundary-integral reference
solver for spheres, scaling-regime diagnostics, and convergence-rate studies.

Imports are lazy (PEP 562) so the command-line entry point can cap BLAS
thread counts before numpy initializes.
"""

from ._version import __version__

_EXPORTS = {
    # geometry
    "RegimeParams": "geometry", "IncidentWave": "geometry",
    "ScattererCloud": "geometry", "generate_grid_cloud": "geometry",
    # kernels
    "plane_wave": "kernels", "farfield_kernel": "kernels", "fibonacci_sphere": "kernels",
    # point-scatterer solver
    "Variant": "foldy",
    "FoldyLaxSystem": "foldy", "FoldyLaxSolution": "foldy", "FarFieldGrid": "foldy",
    "InvertibilityReport": "foldy", "assemble": "foldy", "solve": "foldy",
    "farfield": "foldy", "invertibility_report": "foldy",
    # boundary-integral oracle
    "SphereSpectra": "oracle", "sphere_operator_spectra": "oracle",
    "BieSystem": "oracle", "assemble_bie": "oracle", "solve_bie": "oracle",
    "bie_farfield": "oracle",
    "mie_reference": "oracle",
    # analysis
    "OracleSettings": "analysis", "RateFit": "analysis", "fit_rate": "analysis",
    "farfield_error": "analysis", "convergence_study": "analysis",
    "ConvergenceStudy": "analysis", "oracle_farfield": "analysis",
    "predicted_slope": "analysis",
    # io
    "save_cloud": "io", "load_cloud": "io",
}

# exceptions are cheap: export every FoldylaxError subclass eagerly
from . import errors as _errors  # noqa: E402

_ERRORS = {name: obj for name, obj in vars(_errors).items()
           if isinstance(obj, type) and issubclass(obj, _errors.FoldylaxError)}
globals().update(_ERRORS)
__all__ = sorted(set(_EXPORTS) | set(_ERRORS) | {"__version__"})


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return __all__
