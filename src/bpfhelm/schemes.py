"""Tridiagonal assembly for the three Helmholtz discretizations.

One table-driven `assemble` builds all three schemes. They differ only in
the interior weight pair (w, kk) of the rows w Delta_h u + kk u = f and in
the boundary closure. The headline scheme (BPF) composes two discrete
one-way flux operators built from Bernoulli weights B(+-ikh); the
composition collapses to the phase-fitted stencil Theta(kh) Delta_h + k^2,
with boundary rows (k/sin kh)(u_1 - e^{ikh} u_0) = g0 (mirrored on the
right) that are exact on sampled plane waves. The classical and
dispersion-corrected baselines share a second-order ghost-point impedance
closure so that the comparison isolates interior dispersion.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import SolveQualityWarning
from .grid import GridFunction, make_grid, sample
from .numerics import GUARD_TOL, bernoulli, nyquist_guard, shifted_wavenumber, theta
from .trisolve import TridiagonalSystem, residual_inf_norm, solve_tridiagonal

# Post-solve residual threshold; above it a SolveQualityWarning is issued.
SOLVE_RESIDUAL_TOL = 1e-10


class SchemeKind(Enum):
    """Available interior discretizations; values double as CLI names."""

    BPF = "bpf"
    CLASSICAL_FD = "fd"
    DISPERSION_CORRECTED_FD = "fd-dc"


@dataclass
class HelmholtzProblem:
    """u'' + k^2 u = f on (0, L) with impedance data at both endpoints.

    Boundary conditions: u'(0) - i k u(0) = g0 and u'(L) + i k u(L) = gL.
    `name` identifies benchmark problems for reference caching.
    """

    k: float
    L: float
    f: Callable
    g0: complex
    gL: complex
    name: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.k) and math.isfinite(self.L)) or self.k <= 0 or self.L <= 0:
            raise ValueError("wavenumber and domain length must be finite and positive, "
                             f"got k = {self.k!r}, L = {self.L!r}")


def _check_flux_weights(k: float, h: float, tol: float = GUARD_TOL) -> tuple[complex, complex]:
    """Bernoulli weights B(+-ikh); rejects kh near nonzero multiples of 2*pi."""
    s = k * h
    theta(s, tol)  # raises SingularParameter on the 2*pi*Z pole set
    return bernoulli(1j * s), bernoulli(-1j * s)


def apply_one_way_plus(v: GridFunction, k: float) -> np.ndarray:
    """Forward one-way flux (B(ikh) v_{i+1} - B(-ikh) v_i)/h, i = 0..n-1.

    Annihilates sampled e^{ikx} exactly.
    """
    b_plus, b_minus = _check_flux_weights(k, v.grid.h)
    u = v.values
    return (b_plus * u[1:] - b_minus * u[:-1]) / v.grid.h


def apply_one_way_minus(v: GridFunction, k: float) -> np.ndarray:
    """Backward one-way flux (B(-ikh) v_i - B(ikh) v_{i-1})/h, i = 1..n.

    Annihilates sampled e^{-ikx} exactly.
    """
    b_plus, b_minus = _check_flux_weights(k, v.grid.h)
    u = v.values
    return (b_minus * u[1:] - b_plus * u[:-1]) / v.grid.h


def apply_one_way_composition(v: GridFunction, k: float) -> np.ndarray:
    """Backward flux applied to the forward flux, at interior nodes 1..n-1.

    Algebraically identical to the phase-fitted three-point operator
    Theta(kh) Delta_h v + k^2 v.
    """
    b_plus, b_minus = _check_flux_weights(k, v.grid.h)
    w = apply_one_way_plus(v, k)
    return (b_minus * w[1:] - b_plus * w[:-1]) / v.grid.h


def assemble(p: HelmholtzProblem, n: int, kind: SchemeKind,
             tol: float = GUARD_TOL) -> TridiagonalSystem:
    """Tridiagonal system of the requested scheme on n uniform subintervals.

    Interior rows are w Delta_h u + kk u = f, i.e. kk - 2w/h^2 on the
    diagonal and w/h^2 off it, with one (w, kk) pair per scheme:

        bpf    w = Theta(kh)   kk = k^2
        fd     w = 1           kk = k^2
        fd-dc  w = 1           kk = khat^2, khat = (2/h) sin(kh/2)

    The boundary closure is the only other difference. BPF uses the exact
    rows (k/sin kh)(u_1 - e^{ikh} u_0) = g0 and
    (k/sin kh)(e^{ikh} u_n - u_{n-1}) = gL. Both baselines use the
    second-order ghost-point closure: the centered condition
    (u_1 - u_{-1})/(2h) - ik u_0 = g0 combined with the stencil row at
    node 0 eliminates the ghost value and gives
        (2/h^2)(u_1 - u_0) + (k^2 - 2ik/h) u_0 = f(x_0) + (2/h) g0,
    mirrored at x = L with -(2/h) gL; it carries the physical k, since the
    corrected scheme modifies interior rows only. The Nyquist guard
    applies to bpf and fd-dc.
    """
    grid = make_grid(p.L, n)
    h = grid.h
    if kind is SchemeKind.CLASSICAL_FD:
        w, kk = 1.0, p.k**2
    else:
        nyquist_guard(p.k, h, tol)
        if kind is SchemeKind.BPF:
            w, kk = theta(p.k * h, tol), p.k**2
        else:
            w, kk = 1.0, shifted_wavenumber(p.k, h, tol) ** 2
    lower = np.full(n, w / h**2, dtype=complex)
    diag = np.full(n + 1, kk - 2.0 * w / h**2, dtype=complex)
    upper = np.full(n, w / h**2, dtype=complex)
    rhs = sample(p.f, grid).values.copy()

    if kind is SchemeKind.BPF:
        bfac = p.k / math.sin(p.k * h)
        phase = cmath.exp(1j * p.k * h)
        diag[0] = -bfac * phase
        upper[0] = bfac
        rhs[0] = p.g0
        lower[-1] = -bfac
        diag[-1] = bfac * phase
        rhs[-1] = p.gL
    else:
        two_over_h2 = 2.0 / h**2
        diag[0] = diag[-1] = p.k * p.k - 2.0j * p.k / h - two_over_h2
        upper[0] = lower[-1] = two_over_h2
        rhs[0] += 2.0 / h * p.g0
        rhs[-1] -= 2.0 / h * p.gL
    return TridiagonalSystem(lower, diag, upper, rhs)


def solve_scheme(p: HelmholtzProblem, n: int, kind: SchemeKind = SchemeKind.BPF,
                 tol: float = GUARD_TOL) -> GridFunction:
    """Assemble and solve; warns (SolveQualityWarning) on a poor residual.

    The quality scale includes the row magnitude ||A|| * ||x||_inf on top of
    ||b||_inf: with rows growing like 1/h^2, the bare right-hand-side scale
    sits below the float64 evaluation floor of A x - b on fine grids, so a
    residual check against it would always fire there.
    """
    sys = assemble(p, n, kind, tol)
    x = solve_tridiagonal(sys)
    res = residual_inf_norm(sys, x)
    anorm = float(np.max(np.abs(sys.diag)))
    if sys.size > 1:
        anorm += float(np.max(np.abs(sys.lower))) + float(np.max(np.abs(sys.upper)))
    scale = float(np.max(np.abs(sys.rhs))) + anorm * float(np.max(np.abs(x))) + 1.0
    if res > SOLVE_RESIDUAL_TOL * scale:
        warnings.warn(
            f"solve residual {res:.3e} exceeds {SOLVE_RESIDUAL_TOL:g} * {scale:.3e}",
            SolveQualityWarning,
            stacklevel=2,
        )
    return GridFunction(make_grid(p.L, n), x)
