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


class NonUnitDirection(FoldylaxError, ValueError):
    """Direction vector is not unit length within tolerance."""


class ZeroImpedance(FoldylaxError, ValueError):
    """Scattering coefficient requested for a vanishing impedance."""


class SphericalPole(FoldylaxError, ZeroDivisionError):
    """Spherical coefficient denominator -1 + lambda*r is (near) zero."""


class SingularSystem(FoldylaxError, ArithmeticError):
    """Linear system factorization failed or residual is out of tolerance."""


class MissingRegime(FoldylaxError, ValueError):
    """Operation requires regime provenance but the cloud carries none."""


class ResonanceGuard(FoldylaxError, ValueError):
    """Obstacle too large for the wavenumber: interior resonance possible."""


class SeriesNotConverged(FoldylaxError, ArithmeticError):
    """A reference too coarse for its degree by its truncation estimate, or
    series terms that overflow."""


class RateUndetermined(FoldylaxError, ArithmeticError):
    """Fewer than two far-field errors of a study clear the noise floor."""


class GridMismatch(FoldylaxError, ValueError):
    """Far-field grids disagree in directions or incident wave."""


class InsufficientMemory(FoldylaxError, MemoryError):
    """Dense work or a lattice cloud would not fit in the memory available."""
