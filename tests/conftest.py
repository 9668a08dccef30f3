"""Shared fixtures."""

import cmath
import functools
import math
import os
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import bpfhelm
from bpfhelm import reference, trisolve
from bpfhelm.grid import norm_l2h, seminorm_h1h


@pytest.fixture
def child_env():
    """Environment for a child Python process that imports the same bpfhelm
    as this run: its source directory leads PYTHONPATH."""
    src = str(Path(bpfhelm.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


@pytest.fixture(scope="session")
def norm_linf():
    """Oracle: the max nodal magnitude of a GridFunction over all n+1 nodes."""
    return lambda v: float(np.max(np.abs(v.values)))


@pytest.fixture(scope="session")
def norm_v():
    """Oracle: the energy norm sqrt(k^2 ||v||_{0,h}^2 + |v|_{1,h}^2) of a
    GridFunction, as norm_v(v, k)."""
    return lambda v, k: float(np.hypot(k * norm_l2h(v), seminorm_h1h(v)))


@pytest.fixture(scope="session")
def dense_matrix():
    """Oracle: the dense matrix of a TridiagonalSystem, from its built
    diagonals, as dense_matrix(sys)."""
    return lambda sys: np.diag(sys.diag) + np.diag(sys.lower, -1) + np.diag(sys.upper, 1)


@pytest.fixture(scope="session")
def interior_rows():
    """Oracle: the interior rows 1..m-2 of a TridiagonalSystem applied to
    the vector u, from its built diagonals, as interior_rows(sys, u)."""
    return lambda sys, u: sys.lower[:-1] * u[:-2] + sys.diag[1:-1] * u[1:-1] + sys.upper[1:] * u[2:]


class ClosedForm(NamedTuple):
    """A closed-form solution and its first two derivatives."""

    u: Callable
    u_prime: Callable
    u_doubleprime: Callable


def _plane_wave_solution(k, alpha, beta, particular=(lambda x: 0.0,) * 3):
    """u = u_p + alpha e^{ikx} + beta e^{-ikx} and its first two derivatives,
    where `particular` holds u_p, u_p' and u_p''."""
    u_p, u_p1, u_p2 = particular

    def waves(x):
        x = np.asarray(x)
        e = np.exp(1j * k * x)
        conj = e.conjugate()  # named, as in the package: see its comment
        return x, alpha * e, beta * conj

    def u(x):
        x, a, b = waves(x)
        return u_p(x) + a + b

    def u_prime(x):
        x, a, b = waves(x)
        return u_p1(x) + 1j * k * (a - b)

    def u_doubleprime(x):
        x, a, b = waves(x)
        return u_p2(x) - k * k * (a + b)

    return ClosedForm(u, u_prime, u_doubleprime)


def _smooth(k):
    """e^{ikx} + r(x), with the bump r(x) = x^4 (1-x)^4 and its derivatives
    as monomial coefficients."""
    r1 = reference._deriv(reference._R)
    bump = tuple(functools.partial(reference._polyval, c)
                 for c in (reference._R, r1, reference._deriv(r1)))
    return _plane_wave_solution(k, 1.0, 0.0, bump)


def _sine2(k):
    """The sine2 closed form: the particular part of reference's docstring
    and the amplitudes that meet the data g0 = 2, gL = i."""
    g0, gL = 2.0 + 0.0j, 1j
    c_mean = 1.0 / (2.0 * k * k)
    c_pole = 1.0 / (2.0 * (k * k - reference.TWO_PI_SQ))
    particular = (lambda x: c_mean - np.cos(2.0 * math.pi * x) * c_pole,
                  lambda x: math.pi * np.sin(2.0 * math.pi * x) * 2.0 * c_pole,
                  lambda x: reference.TWO_PI_SQ * np.cos(2.0 * math.pi * x) * c_pole)
    u_end = c_mean - c_pole
    alpha = (gL - 1j * k * u_end) / (2j * k * cmath.exp(1j * k))
    beta = -(g0 + 1j * k * u_end) / (2j * k)
    return _plane_wave_solution(k, alpha, beta, particular)


@pytest.fixture(scope="session")
def closed_forms():
    """Oracle: the closed forms of the benchmarks with their first two
    derivatives, keyed by benchmark name; closed_forms[name](k) is a
    ClosedForm whose u is bitwise the package's (tests/test_reference.py
    pins it). planewave takes the amplitudes too, as
    closed_forms["planewave"](k, alpha, beta), with the registry's 2 and 1
    by default."""
    return {"planewave": lambda k, alpha=2.0, beta=1.0: _plane_wave_solution(
                k, complex(alpha), complex(beta)),
            "smooth": _smooth,
            "sine2": _sine2}


@pytest.fixture
def solve_routes(monkeypatch):
    """The path and correction step count of each solve_tridiagonal call
    from here on, as kernel-1 or root-2."""
    routed = []
    for path in ("kernel", "root"):
        def factory_spy(sys, path=path, factory=getattr(trisolve, f"_{path}_solver")):
            routed.append(path)
            return factory(sys)

        monkeypatch.setattr(trisolve, f"_{path}_solver", factory_spy)
    solve = trisolve._solve

    def solve_spy(sys, solver, steps):
        routed[-1] += f"-{steps}"
        return solve(sys, solver, steps)

    monkeypatch.setattr(trisolve, "_solve", solve_spy)
    return routed
