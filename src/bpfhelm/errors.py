"""Exception and warning types shared across the package.

Guard errors signal that a parameter combination sits on (or too close to)
a genuine singularity of the method, e.g. kh on the Nyquist set or a
resonant frequency. They are recoverable in the sense that the caller can
pick different parameters; the CLI maps them to a dedicated exit code.
"""


class NumericalGuardError(Exception):
    """Base class for parameter-guard failures (singular or resonant setups)."""


class SingularParameter(NumericalGuardError):
    """Argument sits within guard tolerance of a pole of a special function."""


class NearNyquist(NumericalGuardError):
    """kh is within guard tolerance of an integer multiple of pi."""

    def __init__(self, kh: float, multiple: int, tol: float):
        self.kh = kh
        self.multiple = multiple
        self.tol = tol
        super().__init__(
            f"kh = {kh!r} is within tolerance {tol:g} of {multiple}*pi"
        )


class ResonantSource(NumericalGuardError):
    """Wavenumber resonates with the source frequency (particular solution blows up)."""


class NearResonantFrequency(NumericalGuardError):
    """Multiplier evaluation requested too close to the removable point xi = k."""


class InvalidGrid(ValueError):
    """Grid construction parameters are inconsistent (L <= 0 or n < 2)."""


class NonFiniteSample(ValueError):
    """Sampling a function produced NaN or Inf nodal values."""


class NonNestedGrids(ValueError):
    """Restriction requested between grids whose nodes do not coincide."""


class SingularSystem(ArithmeticError):
    """Tridiagonal elimination hit a pivot below the breakdown threshold."""


class SolveQualityWarning(UserWarning):
    """Post-solve residual of a discrete system exceeded the quality threshold."""
