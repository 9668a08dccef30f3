"""Tridiagonal assembly for the three Helmholtz discretizations.

One table-driven `assemble` builds all three schemes. They differ only in
the interior weight pair (w, kk) of the rows w Delta_h u + kk u = f and in
the boundary closure. The headline scheme (BPF) composes two discrete
one-way flux operators built from Bernoulli weights B(+-ikh); the
composition collapses to the phase-fitted stencil Theta(kh) Delta_h + k^2,
with boundary rows (k/sin kh)(u_1 - e^{ikh} u_0) = g0 (mirrored on the
right) that are exact on sampled plane waves. The classical and
dispersion-corrected baselines share a second-order ghost-point impedance
closure so that the comparison isolates interior dispersion. Every assembled
system records the kernel of its interior recurrence, an angle where it
oscillates and a root where it decays, which lets
`trisolve.solve_tridiagonal` solve it in the kernel basis, and stores its
coefficients as a `trisolve.Stencil` (one interior row and four boundary
entries): no length-n coefficient array exists unless a reader asks for
the diagonals.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import NonFiniteSample, SolveQualityWarning
from .grid import GridFunction, make_grid, nodal_values
from .numerics import bernoulli, nyquist_guard, shifted_wavenumber, theta
from .trisolve import Stencil, TridiagonalSystem, max_abs, residual_inf_norm, solve_tridiagonal

# Post-solve residual threshold; above it a SolveQualityWarning is issued.
SOLVE_RESIDUAL_TOL = 1e-10


class SchemeKind(Enum):
    """Available interior discretizations; values double as CLI names."""

    BPF = "bpf"
    CLASSICAL_FD = "fd"
    DISPERSION_CORRECTED_FD = "fd-dc"


@dataclass(frozen=True)
class HelmholtzProblem:
    """u'' + k^2 u = f on (0, L) with impedance data at both endpoints.

    Boundary conditions: u'(0) - i k u(0) = g0 and u'(L) + i k u(L) = gL.
    The source f must be pointwise: grid.nodal_values calls it on one block
    of nodes at a time. Frozen, so that a problem can key the fine-reference
    cache. A k whose square overflows (above about 1.34e154) counts as not
    finite.
    """

    k: float
    L: float
    f: Callable
    g0: complex
    gL: complex

    def __post_init__(self):
        finite = math.isfinite(self.k * self.k) and math.isfinite(self.L)
        if not finite or self.k <= 0 or self.L <= 0:
            raise ValueError("wavenumber and domain length must be finite and positive, "
                             f"got k = {self.k!r}, L = {self.L!r}")
        if not (cmath.isfinite(self.g0) and cmath.isfinite(self.gL)):
            raise ValueError("impedance data must be finite, "
                             f"got g0 = {self.g0!r}, gL = {self.gL!r}")


def _check_flux_weights(k: float, h: float) -> tuple[complex, complex]:
    """Bernoulli weights B(+-ikh); rejects kh near nonzero multiples of 2*pi."""
    s = k * h
    theta(s)  # raises SingularParameter on the 2*pi*Z pole set
    return bernoulli(1j * s), bernoulli(-1j * s)


def _flux(lead: complex, lag: complex, u: np.ndarray, h: float) -> np.ndarray:
    """The one-way flux difference (lead u_{i+1} - lag u_i)/h, i = 0..len(u)-2."""
    return (lead * u[1:] - lag * u[:-1]) / h


def apply_one_way_plus(v: GridFunction, k: float) -> np.ndarray:
    """Forward one-way flux (B(ikh) v_{i+1} - B(-ikh) v_i)/h, i = 0..n-1.

    Annihilates sampled e^{ikx} exactly.
    """
    b_plus, b_minus = _check_flux_weights(k, v.grid.h)
    return _flux(b_plus, b_minus, v.values, v.grid.h)


def apply_one_way_minus(v: GridFunction, k: float) -> np.ndarray:
    """Backward one-way flux (B(-ikh) v_i - B(ikh) v_{i-1})/h, i = 1..n.

    Annihilates sampled e^{-ikx} exactly.
    """
    b_plus, b_minus = _check_flux_weights(k, v.grid.h)
    return _flux(b_minus, b_plus, v.values, v.grid.h)


def apply_one_way_composition(v: GridFunction, k: float) -> np.ndarray:
    """Backward flux applied to the forward flux, at interior nodes 1..n-1.

    Algebraically identical to the phase-fitted three-point operator
    Theta(kh) Delta_h v + k^2 v.
    """
    b_plus, b_minus = _check_flux_weights(k, v.grid.h)
    return _flux(b_minus, b_plus, _flux(b_plus, b_minus, v.values, v.grid.h), v.grid.h)


def assemble(p: HelmholtzProblem, n: int, kind: SchemeKind) -> TridiagonalSystem:
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
    (kh within numerics.GUARD_TOL*pi of pi*Z) applies to bpf and fd-dc.

    The interior rows are one constant recurrence
    u_{j+1} - 2 cos(theta) u_j + u_{j-1} = h^2 f_j / w, and the system
    records its kernel: the angle theta = kh for bpf and fd-dc, and
    theta = 2 asin(kh/2) for fd while 0 < kh/2 < 1. From kh = 2 on, the fd
    kernel no longer oscillates: its roots are lambda and 1/lambda with
    lambda real in [-1, 0), and the system records lambda, taken from its
    stored row, instead of an angle (trisolve's root path). So does an fd
    system whose kh/2 underflows to 0, where the angle would be 0.

    The system keeps (w/h^2, kk - 2w/h^2) and the four boundary entries as
    its stencil; lower, diag and upper are built from them when read. The
    source is sampled at every node, float64 for a real source; the system
    views rows 1..n-1 as its interior, and its ends, the boundary rows'
    right-hand sides with the complex impedance data, are complex scalars.
    A kind that is not a SchemeKind (such as the string "bpf") raises
    TypeError.
    """
    if not isinstance(kind, SchemeKind):
        raise TypeError(f"kind must be a SchemeKind, got {kind!r}")
    grid = make_grid(p.L, n)
    h = grid.h
    kh = p.k * h
    if kind is SchemeKind.CLASSICAL_FD:
        w, kk = 1.0, p.k**2
        kernel_angle = 2.0 * math.asin(0.5 * kh) if 0.0 < 0.5 * kh < 1.0 else None
    else:
        nyquist_guard(p.k, h)
        if kind is SchemeKind.BPF:
            w, kk = theta(kh), p.k**2
        else:
            w, kk = 1.0, shifted_wavenumber(p.k, h) ** 2
        kernel_angle = kh
    rhs = nodal_values(p.f, grid)
    if not np.isfinite(rhs).all():
        raise NonFiniteSample("source f has NaN/Inf values at the grid nodes")

    if kind is SchemeKind.BPF:
        bfac = p.k / math.sin(kh)
        phase = cmath.exp(1j * p.k * h)
        first, last = (-bfac * phase, bfac), (-bfac, bfac * phase)
        ends = p.g0, p.gL
    else:
        two_over_h2 = 2.0 / h**2
        corner = p.k * p.k - 2.0j * p.k / h - two_over_h2
        first, last = (corner, two_over_h2), (two_over_h2, corner)
        ends = complex(rhs[0]) + 2.0 / h * p.g0, complex(rhs[-1]) - 2.0 / h * p.gL
    stencil = Stencil(w / h**2, kk - 2.0 * w / h**2, *first, *last)
    return TridiagonalSystem(stencil, rhs[1:-1], ends, kernel_angle)


def solve_scheme(p: HelmholtzProblem, n: int,
                 kind: SchemeKind = SchemeKind.BPF) -> GridFunction:
    """Assemble and solve; warns (SolveQualityWarning) on a poor residual.

    The quality scale includes the row magnitude ||A|| * ||x||_inf on top of
    ||b||_inf: with rows growing like 1/h^2, the bare right-hand-side scale
    sits below the float64 evaluation floor of A x - b on fine grids, so a
    residual check against it would always fire there. ||b||_inf is the
    largest of the interior's |b_i| and the two boundary entries'. The
    scale, two full passes over the interior and x, is built only when two
    cheaper bounds leave the check open: it is at least 1, and at least
    ||A|| max(|x_0|, |x_n|) + 1 (|x| taken by the np.abs that max_abs uses,
    so that the bound holds in floating point). A residual at or below
    SOLVE_RESIDUAL_TOL times either cannot fire the check; every fine
    reference clears the second by four orders or more.
    """
    sys = assemble(p, n, kind)
    x = solve_tridiagonal(sys)
    res = residual_inf_norm(sys, x)
    if res > SOLVE_RESIDUAL_TOL:
        max_diag, max_lower, max_upper = sys.max_abs_coefficients()
        anorm = max_diag + (max_lower + max_upper)
        if res > SOLVE_RESIDUAL_TOL * (anorm * float(np.abs(x[[0, -1]]).max()) + 1.0):
            bmax = max(max_abs(sys.interior), abs(sys.r0), abs(sys.r_last))
            scale = bmax + anorm * max_abs(x) + 1.0
            if res > SOLVE_RESIDUAL_TOL * scale:
                warnings.warn(
                    f"solve residual {res:.3e} exceeds {SOLVE_RESIDUAL_TOL:g} * {scale:.3e}",
                    SolveQualityWarning,
                    stacklevel=2,
                )
    return GridFunction(make_grid(p.L, n), x)
