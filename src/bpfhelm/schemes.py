"""Tridiagonal assembly for the three Helmholtz discretizations.

The headline scheme (BPF) composes two discrete one-way flux operators
built from Bernoulli weights B(+-ikh); the composition collapses to a
phase-fitted three-point stencil Theta(kh)*Delta_h + k^2 with boundary
rows (k/sin kh)(u_1 - e^{ikh} u_0) = g0 (mirrored on the right) that are
exact on sampled plane waves. The classical and dispersion-corrected
baselines share a second-order ghost-point impedance closure so that the
comparison isolates interior dispersion.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import SolveQualityWarning
from .grid import GridFunction, make_grid
from .numerics import GUARD_TOL, bernoulli, nyquist_guard, shifted_wavenumber, theta
from .trisolve import TridiagonalSystem, residual_inf_norm, solve_tridiagonal

if TYPE_CHECKING:  # pragma: no cover
    from .reference import ExactSolution

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
    `name` identifies benchmark problems for reference caching; `exact`
    optionally carries closed-form solution handles.
    """

    k: float
    L: float
    f: Callable
    g0: complex
    gL: complex
    name: str = ""
    exact: "ExactSolution | None" = field(default=None, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.k) and math.isfinite(self.L)) or self.k <= 0 or self.L <= 0:
            raise ValueError("wavenumber and domain length must be finite and positive, "
                             f"got k = {self.k!r}, L = {self.L!r}")


def _sample_source(f: Callable, x: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(f(x), dtype=complex)
        if vals.shape != x.shape:
            raise ValueError
    except (ValueError, TypeError):
        vals = np.array([complex(f(xi)) for xi in x])
    if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
        raise ValueError("source function produced non-finite nodal values")
    return vals


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


def _interior_rows(diag_coeff: complex, off_coeff: complex, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lower = np.full(n, off_coeff, dtype=complex)
    diag = np.full(n + 1, diag_coeff, dtype=complex)
    upper = np.full(n, off_coeff, dtype=complex)
    return lower, diag, upper


def assemble_bpf(p: HelmholtzProblem, n: int, tol: float = GUARD_TOL) -> TridiagonalSystem:
    """Phase-fitted system: Theta(kh) Delta_h u + k^2 u = f inside,
    (k/sin kh)(u_1 - e^{ikh} u_0) = g0 and (k/sin kh)(e^{ikh} u_n - u_{n-1}) = gL.
    """
    grid = make_grid(p.L, n)
    h = grid.h
    nyquist_guard(p.k, h, tol)
    s = p.k * h
    th = theta(s, tol)

    lower, diag, upper = _interior_rows(p.k**2 - 2.0 * th / h**2, th / h**2, n)
    x = grid.nodes()
    rhs = np.empty(n + 1, dtype=complex)
    rhs[1:-1] = _sample_source(p.f, x[1:-1])

    bfac = p.k / math.sin(s)
    phase = cmath.exp(1j * s)
    diag[0] = -bfac * phase
    upper[0] = bfac
    rhs[0] = p.g0
    lower[-1] = -bfac
    diag[-1] = bfac * phase
    rhs[-1] = p.gL
    return TridiagonalSystem(lower, diag, upper, rhs)


def _ghost_boundary_rows(sys: TridiagonalSystem, p: HelmholtzProblem, h: float,
                         f0: complex, fn: complex) -> None:
    """Second-order impedance closure by ghost-node elimination.

    Combining the centered condition (u_1 - u_{-1})/(2h) - ik u_0 = g0 with
    the stencil row at node 0 eliminates the ghost value and yields
        (2/h^2)(u_1 - u_0) + (k^2 - 2ik/h) u_0 = f(x_0) + (2/h) g0,
    and at the right endpoint
        (2/h^2)(u_{n-1} - u_n) + (k^2 - 2ik/h) u_n = f(x_n) - (2/h) gL.
    The k^2 here is whatever sits in the stencil row (the physical one for
    both baselines, since the corrected scheme modifies interior rows only).
    """
    k = p.k
    two_over_h2 = 2.0 / h**2
    robin = k * k - 2.0j * k / h - two_over_h2
    sys.diag[0] = robin
    sys.upper[0] = two_over_h2
    sys.rhs[0] = f0 + 2.0 / h * p.g0
    sys.diag[-1] = robin
    sys.lower[-1] = two_over_h2
    sys.rhs[-1] = fn - 2.0 / h * p.gL


def assemble_classical_fd(p: HelmholtzProblem, n: int) -> TridiagonalSystem:
    """Centered three-point scheme Delta_h u + k^2 u = f with ghost-point
    impedance rows."""
    grid = make_grid(p.L, n)
    h = grid.h
    lower, diag, upper = _interior_rows(p.k**2 - 2.0 / h**2, 1.0 / h**2, n)
    x = grid.nodes()
    fvals = _sample_source(p.f, x)
    rhs = fvals.copy()
    sys = TridiagonalSystem(lower, diag, upper, rhs)
    _ghost_boundary_rows(sys, p, h, fvals[0], fvals[-1])
    return sys


def assemble_dispersion_corrected_fd(p: HelmholtzProblem, n: int,
                                     tol: float = GUARD_TOL) -> TridiagonalSystem:
    """Classical stencil with the shifted wavenumber in interior rows only:
    Delta_h u + khat^2 u = f, khat = (2/h) sin(kh/2). Boundary rows are the
    same ghost-point closure as the classical scheme, with the physical k.
    """
    grid = make_grid(p.L, n)
    h = grid.h
    nyquist_guard(p.k, h, tol)
    khat = shifted_wavenumber(p.k, h, tol)
    lower, diag, upper = _interior_rows(khat**2 - 2.0 / h**2, 1.0 / h**2, n)
    x = grid.nodes()
    fvals = _sample_source(p.f, x)
    rhs = fvals.copy()
    sys = TridiagonalSystem(lower, diag, upper, rhs)
    _ghost_boundary_rows(sys, p, h, fvals[0], fvals[-1])
    return sys


def assemble(p: HelmholtzProblem, n: int, kind: SchemeKind,
             tol: float = GUARD_TOL) -> TridiagonalSystem:
    """Dispatch to the assembler for the requested scheme."""
    if kind is SchemeKind.BPF:
        return assemble_bpf(p, n, tol)
    if kind is SchemeKind.CLASSICAL_FD:
        return assemble_classical_fd(p, n)
    return assemble_dispersion_corrected_fd(p, n, tol)


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
