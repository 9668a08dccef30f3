"""Exact, semi-analytic and fine-grid reference solutions for the benchmarks.

Four benchmark problems on (0, 1):

* ``planewave`` -- homogeneous equation, exact solution alpha e^{ikx} +
  beta e^{-ikx}; data derived from the coefficients.
* ``smooth`` -- manufactured u = e^{ikx} + x^4 (1-x)^4, polynomial source
  with f = f' = 0 at both endpoints.
* ``sine2`` -- source sin^2(pi x) with data g0 = 2, gL = i; solved in
  closed form by undetermined coefficients.
* ``box`` -- piecewise-constant source 50 * 1_{|x-1/2| <= 1/9}; no closed
  form, compared against a fine-grid solve cached for its last arguments.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ResonantSource
from .grid import GridFunction
from .numerics import GUARD_TOL
from .schemes import HelmholtzProblem, SchemeKind, solve_scheme

TWO_PI_SQ = 4.0 * math.pi**2


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form solution handles u, u' and u'' on [0, L]."""

    u: Callable
    u_prime: Callable
    u_doubleprime: Callable


def plane_wave_problem(k: float, alpha: complex,
                       beta: complex) -> tuple[HelmholtzProblem, ExactSolution]:
    """Homogeneous problem on (0, 1) with exact solution alpha e^{ikx} + beta e^{-ikx}."""
    alpha = complex(alpha)
    beta = complex(beta)
    g0 = -2j * k * beta
    gL = 2j * k * cmath.exp(1j * k) * alpha

    def u(x):
        return alpha * np.exp(1j * k * x) + beta * np.exp(-1j * k * x)

    def u_prime(x):
        return 1j * k * (alpha * np.exp(1j * k * x) - beta * np.exp(-1j * k * x))

    def u_doubleprime(x):
        return -k * k * u(x)

    problem = HelmholtzProblem(k, 1.0, lambda x: np.zeros_like(np.asarray(x, dtype=complex)),
                               g0, gL)
    return problem, ExactSolution(u, u_prime, u_doubleprime)


# Bump r(x) = x^4 (1-x)^4 expanded in the monomial basis, and its first two
# derivatives, which do not depend on k.
_R_POLY = Polynomial([0.0, 0.0, 0.0, 0.0, 1.0, -4.0, 6.0, -4.0, 1.0])
_R1_POLY = _R_POLY.deriv(1)
_R2_POLY = _R_POLY.deriv(2)


def _smooth_source(k: float) -> Polynomial:
    """The manufactured source f = r'' + k^2 r. Its coefficients are
    k*k*r_i + r''_i, the float operations of `_R2_POLY + k * k * _R_POLY`
    without the cost of Polynomial arithmetic."""
    coef = _R_POLY.coef * (k * k)
    coef[:_R2_POLY.coef.size] += _R2_POLY.coef
    return Polynomial(coef)


def smooth_manufactured_problem(k: float) -> tuple[HelmholtzProblem, ExactSolution]:
    """Manufactured solution u = e^{ikx} + x^4 (1-x)^4 on (0, 1).

    The source f = r'' + k^2 r vanishes to first order at both endpoints,
    so the boundary data reduce to g0 = 0 and gL = 2ik e^{ik}.
    """
    r, r1, r2 = _R_POLY, _R1_POLY, _R2_POLY
    # Built first so that its finite/positive check on k runs before the
    # source's arithmetic; the source closure reads f_poly when called.
    problem = HelmholtzProblem(k, 1.0, lambda x: f_poly(np.asarray(x)),
                               0.0 + 0.0j, 2j * k * cmath.exp(1j * k))
    f_poly = _smooth_source(k)

    def u(x):
        return np.exp(1j * k * np.asarray(x)) + r(np.asarray(x))

    def u_prime(x):
        x = np.asarray(x)
        return 1j * k * np.exp(1j * k * x) + r1(x)

    def u_doubleprime(x):
        x = np.asarray(x)
        return -k * k * np.exp(1j * k * x) + r2(x)

    return problem, ExactSolution(u, u_prime, u_doubleprime)


def smooth_source_derivatives(k: float) -> tuple[Callable, Callable, Callable]:
    """First three derivatives of the manufactured polynomial source."""
    f_poly = _smooth_source(k)
    d1, d2, d3 = f_poly.deriv(1), f_poly.deriv(2), f_poly.deriv(3)
    return (lambda x: d1(np.asarray(x)),
            lambda x: d2(np.asarray(x)),
            lambda x: d3(np.asarray(x)))


def sine_squared_problem(k: float) -> tuple[HelmholtzProblem, ExactSolution]:
    """Closed-form solution for the source sin^2(pi x) with data g0 = 2, gL = i.

    Undetermined coefficients give the particular part
        u_p = 1/(2 k^2) - cos(2 pi x) / (2 (k^2 - 4 pi^2)),
    and a 2x2 solve fixes the homogeneous amplitudes from the impedance
    data. Rejects wavenumbers resonant with the source (k^2 near 4 pi^2)
    and the degenerate limit k near 0.
    """
    def f(x):
        return np.sin(math.pi * np.asarray(x)) ** 2 + 0.0j

    g0, gL = 2.0 + 0.0j, 1j
    # Built first so that its finite/positive check on k runs before any
    # of the arithmetic below.
    problem = HelmholtzProblem(k, 1.0, f, g0, gL)
    if k < 1e-8:
        raise ResonantSource(f"k = {k!r} too small for the particular solution")
    denom = k * k - TWO_PI_SQ
    if abs(denom) < 1e-8 * k * k:
        raise ResonantSource(f"k^2 = {k * k!r} resonates with the source frequency 2*pi")

    c_pole = 1.0 / (2.0 * denom)

    def u_p(x):
        return 1.0 / (2.0 * k * k) - np.cos(2.0 * math.pi * np.asarray(x)) * c_pole

    def u_p_prime(x):
        return math.pi * np.sin(2.0 * math.pi * np.asarray(x)) * 2.0 * c_pole

    def u_p_doubleprime(x):
        return TWO_PI_SQ * np.cos(2.0 * math.pi * np.asarray(x)) * c_pole

    # Impedance traces of the homogeneous modes e^{+-ikx} at x = 0 and x = 1.
    eik = cmath.exp(1j * k)
    emik = cmath.exp(-1j * k)
    mat = np.array([[0.0, -2j * k],
                    [2j * k * eik, 0.0]], dtype=complex)
    rhs = np.array([g0 - (u_p_prime(0.0) - 1j * k * u_p(0.0)),
                    gL - (u_p_prime(1.0) + 1j * k * u_p(1.0))], dtype=complex)
    alpha, beta = np.linalg.solve(mat, rhs)

    def u(x):
        x = np.asarray(x)
        return u_p(x) + alpha * np.exp(1j * k * x) + beta * np.exp(-1j * k * x)

    def u_prime(x):
        x = np.asarray(x)
        return u_p_prime(x) + 1j * k * (alpha * np.exp(1j * k * x) - beta * np.exp(-1j * k * x))

    def u_doubleprime(x):
        x = np.asarray(x)
        return u_p_doubleprime(x) - k * k * (alpha * np.exp(1j * k * x) + beta * np.exp(-1j * k * x))

    return problem, ExactSolution(u, u_prime, u_doubleprime)


def box_source_problem(k: float) -> HelmholtzProblem:
    """Piecewise-constant source 50 on |x - 1/2| <= 1/9 (endpoints included),
    data g0 = 2, gL = i; no closed-form solution is attached."""

    def f(x):
        x = np.asarray(x)
        return np.where(np.abs(x - 0.5) <= 1.0 / 9.0, 50.0, 0.0) + 0.0j

    return HelmholtzProblem(k, 1.0, f, 2.0 + 0.0j, 1j)


# Benchmark registry, keyed by CLI name: the factory k -> (problem, exact
# solution or None) and the default fine-reference resolution (None when
# the closed form is the only reference).
BENCHMARKS: dict[str, tuple[Callable, int | None]] = {
    "planewave": (lambda k: plane_wave_problem(k, 2.0, 1.0), None),
    "smooth": (smooth_manufactured_problem, None),
    "box": (lambda k: (box_source_problem(k), None), 3**12),
    "sine2": (sine_squared_problem, 2**18),
}


def make_benchmark(name: str, k: float) -> tuple[HelmholtzProblem, ExactSolution | None]:
    """Benchmark factory keyed by CLI name."""
    if name not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}; expected one of {tuple(BENCHMARKS)}")
    return BENCHMARKS[name][0](k)


@functools.lru_cache(maxsize=1)
def fine_grid_reference(p: HelmholtzProblem, n_ref: int,
                        kind: SchemeKind = SchemeKind.BPF,
                        tol: float = GUARD_TOL) -> GridFunction:
    """Fine-grid solve used as a surrogate exact solution.

    Cached for its last arguments, the frozen problem among them, with a
    keyword call keyed apart from a positional one: every caller asks for one
    reference many times in a row (`table` per k, `convergence` per study), and
    a rebuilt problem carries a new source callable, so an older entry would
    never be hit again.
    """
    return solve_scheme(p, n_ref, kind, tol)


# Bound at import: a tracer may rebind fine_grid_reference to a plain function.
clear_reference_cache = fine_grid_reference.cache_clear
