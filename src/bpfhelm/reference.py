"""Exact, semi-analytic and fine-grid reference solutions for the benchmarks.

Four benchmark problems on (0, 1):

* ``planewave`` -- homogeneous equation, exact solution alpha e^{ikx} +
  beta e^{-ikx}; data derived from the coefficients.
* ``smooth`` -- manufactured u = e^{ikx} + x^4 (1-x)^4, polynomial source
  with f = f' = 0 at both endpoints.
* ``sine2`` -- source sin^2(pi x) with data g0 = 2, gL = i; particular part
  by undetermined coefficients, wave amplitudes from the impedance data.
* ``box`` -- piecewise-constant source 50 * 1_{|x-1/2| <= 1/9}; no closed
  form, compared against a fine-grid BPF solve cached for its last
  arguments.

Each closed form is a particular solution u_p plus the two plane waves
e^{+-ikx}, which span the kernel of u'' + k^2 u; `_plane_wave_solution`
builds u, the one field of an `ExactSolution`, from u_p and the amplitudes.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteSample, ResonantSource
from .grid import GridFunction
from .schemes import HelmholtzProblem, SchemeKind, solve_scheme

TWO_PI_SQ = 4.0 * math.pi**2


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form solution handle u on [0, L]."""

    u: Callable


def _plane_wave_solution(k: float, alpha: complex, beta: complex,
                         u_p: Callable = lambda x: 0.0) -> ExactSolution:
    """u = u_p + alpha e^{ikx} + beta e^{-ikx} for a particular solution u_p.
    The two waves span the kernel of u'' + k^2 u; each call evaluates
    e^{ikx} once and takes e^{-ikx} as its conjugate."""

    def u(x):
        x = np.asarray(x)
        e = np.exp(1j * k * x)
        # Both products take named arrays: numpy multiplies a temporary of
        # 256 KiB or more in place, which rounds a complex product
        # differently, so the bits would depend on how many nodes a call gets.
        conj = e.conjugate()
        a, b = alpha * e, beta * conj
        return u_p(x) + a + b

    return ExactSolution(u)


def plane_wave_problem(k: float, alpha: complex,
                       beta: complex) -> tuple[HelmholtzProblem, ExactSolution]:
    """Homogeneous problem on (0, 1) with exact solution alpha e^{ikx} + beta e^{-ikx}."""
    alpha = complex(alpha)
    beta = complex(beta)
    g0 = -2j * k * beta
    gL = 2j * k * cmath.exp(1j * k) * alpha
    problem = HelmholtzProblem(k, 1.0, lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                               g0, gL)
    return problem, _plane_wave_solution(k, alpha, beta)


def _polyval(coef, x):
    """The polynomial with coefficients coef (lowest degree first) at x, by
    Horner's rule in place: the operations of numpy's power-series `polyval`
    in its order (c[-1] + x*0, then c[i] + c0*x), so its bits. A scalar x
    gives a scalar."""
    x = np.asarray(x)
    c0 = x * 0.0
    c0 += coef[-1]
    for c in coef[-2::-1]:
        c0 *= x
        c0 += c
    return c0[()]


def _deriv(coef: np.ndarray) -> np.ndarray:
    """The derivative's coefficients j * c_j of coef (lowest degree first):
    the products of numpy's power-series `polyder`, so its bits."""
    return np.arange(1, coef.size) * coef[1:]


# Bump r(x) = x^4 (1-x)^4 expanded in the monomial basis, and its second
# derivative for the source, which does not depend on k.
_R = np.array([0.0, 0.0, 0.0, 0.0, 1.0, -4.0, 6.0, -4.0, 1.0])
_R2 = _deriv(_deriv(_R))
_BUMP = functools.partial(_polyval, _R)
_R_PEAK = float(np.max(np.abs(_R)))


def _smooth_source(k: float) -> np.ndarray:
    """Coefficients of the manufactured source f = r'' + k^2 r: k*k*r_i +
    r''_i, the float operations of numpy's power-series r'' + k * k * r.
    Raises NonFiniteSample when one of them overflows, as k^2 times the
    largest |r_i| does from about k = 5.5e153."""
    if not math.isfinite(_R_PEAK * (k * k)):
        raise NonFiniteSample(f"smooth source coefficients overflow at k = {k!r}")
    coef = _R * (k * k)
    coef[:_R2.size] += _R2
    return coef


def smooth_manufactured_problem(k: float) -> tuple[HelmholtzProblem, ExactSolution]:
    """Manufactured solution u = e^{ikx} + x^4 (1-x)^4 on (0, 1).

    The source f = r'' + k^2 r vanishes to first order at both endpoints,
    so the boundary data reduce to g0 = 0 and gL = 2ik e^{ik}.
    """
    # Built first so that its finite/positive check on k runs before the
    # source's arithmetic; the source reads f_coef when called.
    problem = HelmholtzProblem(k, 1.0, lambda x: _polyval(f_coef, x),
                               0.0 + 0.0j, 2j * k * cmath.exp(1j * k))
    f_coef = _smooth_source(k)
    return problem, _plane_wave_solution(k, 1.0, 0.0, _BUMP)


def smooth_source_derivatives(k: float) -> tuple[Callable, Callable, Callable]:
    """First three derivatives of the manufactured polynomial source."""
    f1 = _deriv(_smooth_source(k))
    f2 = _deriv(f1)
    return tuple(functools.partial(_polyval, c) for c in (f1, f2, _deriv(f2)))


def sine_squared_problem(k: float) -> tuple[HelmholtzProblem, ExactSolution]:
    """Closed-form solution for the source sin^2(pi x) with data g0 = 2, gL = i.

    Undetermined coefficients give the particular part
        u_p = 1/(2 k^2) - cos(2 pi x) / (2 (k^2 - 4 pi^2)),
    whose slope vanishes at x = 0 and x = 1, where it takes one value u_end.
    The impedance data then fix the plane-wave amplitudes in closed form:
    alpha = (gL - ik u_end) / (2ik e^{ik}) and beta = -(g0 + ik u_end) / (2ik).
    Rejects wavenumbers resonant with the source (k^2 near 4 pi^2) and the
    degenerate limit k near 0.
    """
    def f(x):
        s = np.sin(math.pi * np.asarray(x))
        s *= s
        return s

    g0, gL = 2.0 + 0.0j, 1j
    # Built first so that its finite/positive check on k runs before any
    # of the arithmetic below.
    problem = HelmholtzProblem(k, 1.0, f, g0, gL)
    if k < 1e-8:
        raise ResonantSource(f"k = {k!r} too small for the particular solution")
    denom = k * k - TWO_PI_SQ
    if abs(denom) < 1e-8 * k * k:
        raise ResonantSource(f"k^2 = {k * k!r} resonates with the source frequency 2*pi")

    c_mean = 1.0 / (2.0 * k * k)
    c_pole = 1.0 / (2.0 * denom)
    u_end = c_mean - c_pole
    alpha = (gL - 1j * k * u_end) / (2j * k * cmath.exp(1j * k))
    beta = -(g0 + 1j * k * u_end) / (2j * k)
    return problem, _plane_wave_solution(
        k, alpha, beta, lambda x: c_mean - np.cos(2.0 * math.pi * x) * c_pole)


def box_source_problem(k: float) -> HelmholtzProblem:
    """Piecewise-constant source 50 on |x - 1/2| <= 1/9 (endpoints included),
    data g0 = 2, gL = i; no closed-form solution is attached."""

    def f(x):
        x = np.asarray(x)
        return np.where(np.abs(x - 0.5) <= 1.0 / 9.0, 50.0, 0.0)

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
def fine_grid_reference(p: HelmholtzProblem, n_ref: int) -> GridFunction:
    """BPF solve on n_ref subintervals, the one surrogate exact solution
    that every scheme is measured against.

    Cached for its last arguments (the frozen problem and n_ref; the guard
    tolerance is the constant GUARD_TOL), with a keyword call keyed apart
    from a positional one: every caller asks for one reference many times
    in a row (`table` per k, `convergence` per study), and a rebuilt problem
    carries a new source callable, so an older entry would never be hit
    again.
    """
    return solve_scheme(p, n_ref, SchemeKind.BPF)


# Bound at import: a tracer may rebind fine_grid_reference to a plain function.
clear_reference_cache = fine_grid_reference.cache_clear
