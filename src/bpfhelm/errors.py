"""Exception and warning types shared across the package.

Guard errors signal that a parameter combination sits on (or too close to)
a genuine singularity of the method, e.g. kh on the Nyquist set or a
resonant frequency. They are recoverable in the sense that the caller can
pick different parameters; the CLI maps them to a dedicated exit code.
"""


class NumericalGuardError(Exception):
    """Base class for parameter-guard failures (singular or resonant setups).
    `multiple` is the nearest multiple of the singular set's period, set by
    the guards of `numerics` and None elsewhere."""

    def __init__(self, message: str, multiple: int | None = None):
        super().__init__(message)
        self.multiple = multiple


class SingularParameter(NumericalGuardError):
    """Argument sits within guard tolerance of a pole of a special function."""


class NearNyquist(NumericalGuardError):
    """kh is within guard tolerance of an integer multiple of pi, or (from
    kh = 2^54 on) so large that the floats near it are more than pi apart."""


class ResonantSource(NumericalGuardError):
    """Wavenumber resonates with the source frequency (particular solution blows up)."""


class NearResonantFrequency(NumericalGuardError):
    """Multiplier evaluation requested too close to the removable point xi = k."""


class InvalidGrid(ValueError):
    """Grid construction parameters are inconsistent: L not positive and
    finite, n not an integer >= 2, or more nodes than an array can hold."""


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
