"""Exception and warning types shared across the package.

Every exception here derives from one of two bases, one per CLI exit code.
NumericalGuardError (exit 3) covers what the method cannot compute: kh on
or too close to a singular set, a resonant source, a singular discrete
system, a source that is not finite at the nodes. No multiplier frequency
is rejected: both multipliers are defined at xi = k. InvalidGrid (exit 2)
covers grids the caller must not ask for. Either is recoverable in the
sense that the caller can pick different parameters.
"""


class NumericalGuardError(Exception):
    """Base class of every failure the CLI reports as exit 3: singular or
    resonant parameters, a singular system, a non-finite source."""


class SingularParameter(NumericalGuardError):
    """Argument sits within guard tolerance of a pole of a special function."""


class NearNyquist(NumericalGuardError):
    """kh is within guard tolerance of an integer multiple of pi, or (from
    kh = 2^54 on) so large that the floats near it are more than pi apart."""


class ResonantSource(NumericalGuardError):
    """Wavenumber resonates with the source frequency (particular solution blows up)."""


class InvalidGrid(ValueError):
    """Base class of every failure the CLI reports as exit 2 from the library:
    L not positive and finite, n not an integer >= 2 or more nodes than an
    array can hold, grids whose nodes do not nest (grid.check_nested), or
    counts and a fine resolution that break the rules of
    analysis.convergence_study."""


class NonFiniteSample(NumericalGuardError, ValueError):
    """Sampling a function produced NaN or Inf nodal values, or a source's
    coefficients overflow, so that sampling it would."""


class SingularSystem(NumericalGuardError, ArithmeticError):
    """A tridiagonal solve hit its relative breakdown test: a 2x2 boundary
    determinant or an interior pivot below the threshold."""


class SolveQualityWarning(UserWarning):
    """Post-solve residual of a discrete system exceeded the quality threshold."""
