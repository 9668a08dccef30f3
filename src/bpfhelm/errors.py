"""Exception and warning types shared across the package.

Guard errors signal that a parameter combination sits on (or too close to)
a genuine singularity of the method, e.g. kh on the Nyquist set or a
resonant frequency. They are recoverable in the sense that the caller can
pick different parameters; the CLI maps them to a dedicated exit code.
"""

import math


class NumericalGuardError(Exception):
    """Base class for parameter-guard failures (singular or resonant setups)."""


class SingularParameter(NumericalGuardError):
    """Argument sits within guard tolerance of a pole of a special function."""


def unplaceable(s: float, period: float, name: str) -> str | None:
    """Why s cannot be placed against the multiples of period (written name)
    when the spacing of floats near s exceeds the period, and None when it
    does not. A guard message then says so instead of naming a multiple of
    a hundred or more digits."""
    spacing = math.ulp(s)
    if spacing <= period:
        return None
    return f"too large to place against {name}*Z (float spacing {spacing:.3g} exceeds {name})"


class NearNyquist(NumericalGuardError):
    """kh is within guard tolerance of an integer multiple of pi, or (from
    kh = 2^54 on) so large that the floats near it are more than pi apart,
    which the message says instead of naming the multiple."""

    def __init__(self, kh: float, multiple: int, tol: float):
        self.kh = kh
        self.multiple = multiple
        self.tol = tol
        super().__init__(f"kh = {kh!r} is " + (unplaceable(kh, math.pi, "pi")
                                               or f"within tolerance {tol:g} of {multiple}*pi"))


class ResonantSource(NumericalGuardError):
    """Wavenumber resonates with the source frequency (particular solution blows up)."""


class NearResonantFrequency(NumericalGuardError):
    """Multiplier evaluation requested too close to the removable point xi = k."""


class InvalidGrid(ValueError):
    """Grid construction parameters are inconsistent (L <= 0 or n < 2)."""


class NonFiniteSample(ValueError):
    """Sampling a function produced NaN or Inf nodal values, or a source's
    coefficients overflow, so that sampling it would."""


class NonNestedGrids(ValueError):
    """Restriction requested between grids whose nodes do not coincide."""


class SingularSystem(ArithmeticError):
    """A tridiagonal solve hit its relative breakdown test: a 2x2 boundary
    determinant or an interior pivot below the threshold."""


class SolveQualityWarning(UserWarning):
    """Post-solve residual of a discrete system exceeded the quality threshold."""
