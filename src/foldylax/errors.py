"""Typed exceptions raised by the public API.

Validation failures (bad geometry, bad parameters) and numerical failures
(singular systems, non-converged series) get distinct types so callers and
the CLI can map them to exit codes without string matching.
"""


class FoldylaxError(Exception):
    """Base class for all package exceptions."""


class RegimeViolation(FoldylaxError, ValueError):
    """Scaling-regime parameters violate an admissibility condition."""


class CapacityExceeded(FoldylaxError, ValueError):
    """Requested cloud does not fit in the prescribed box."""


class OverlappingSpheres(FoldylaxError, ValueError):
    """Two scatterers overlap or touch (min surface distance <= 0)."""


class CoincidentPoints(FoldylaxError, ValueError):
    """Fundamental solution evaluated on (or too near) its singularity."""


class CoincidentCenters(FoldylaxError, ValueError):
    """Two scatterer centers coincide during system assembly."""


class NonUnitDirection(FoldylaxError, ValueError):
    """Direction vector is not unit length within tolerance."""


class ZeroImpedance(FoldylaxError, ValueError):
    """Scattering coefficient requested for a vanishing impedance."""


class SphericalPole(FoldylaxError, ZeroDivisionError):
    """Spherical coefficient denominator -1 + lambda*r is (near) zero."""


class SingularSystem(FoldylaxError, ArithmeticError):
    """Linear system factorization failed or residual is out of tolerance."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class MissingRegime(FoldylaxError, ValueError):
    """Operation requires regime provenance but the cloud carries none."""


class ResonanceGuard(FoldylaxError, ValueError):
    """Obstacle too large for the wavenumber: interior resonance possible."""


class SeriesNotConverged(FoldylaxError, ArithmeticError):
    """Truncated series failed its tail-magnitude convergence check."""


class GridMismatch(FoldylaxError, ValueError):
    """Far-field grids disagree in directions or incident wave."""


class InfeasibleOracle(FoldylaxError, ValueError):
    """Boundary-integral oracle size exceeds the configured cap."""


class InsufficientMemory(FoldylaxError, MemoryError):
    """Dense system would not fit in the memory available."""
