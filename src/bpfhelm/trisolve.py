"""Direct solution of complex tridiagonal systems.

A system either stores its three diagonals (hand-built systems) or, when
its interior rows are one constant three-point row (every assembled
system), just that row's two coefficients and the four boundary entries,
its Stencil. Such a system builds its diagonals only when something reads
them (Thomas elimination, dense(), tests); the kernel path, the residual
and the coefficient maxima work from the six scalars.

Two paths, chosen by what the system records about itself:

* The kernel basis, for systems that carry a kernel angle theta. Their
  interior rows are one constant recurrence
  x_{j+1} - 2 cos(theta) x_j + x_{j-1} = b_j / c, whose kernel is
  e^{+-i theta j}. So x is a particular solution from discrete variation
  of parameters (two cumulative sums) plus a e^{i theta j} + b e^{-i theta j},
  and a 2x2 solve on the two boundary rows fixes a and b. The phases come
  from theta itself, not from the stored diagonal, whose rounding drifts
  the phase by about eps * n / theta over n steps at small theta. Where
  that drift is at most CORRECTION_MAX_DRIFT (every coarse grid), one
  correction step x -= K^{-1}(A x - b) against the assembled rows brings
  the residual down to the level of elimination. Above it (the fine-grid
  references) the step is skipped, because it would pull x toward the
  stored rows' drifted phase. The drift is measured in theta, not in
  sin(theta): near theta = pi the two kernel vectors coalesce, so there
  the bare kernel solve loses accuracy while the stored rows keep theirs,
  and the step stays on.
* Thomas elimination without pivoting, over Python lists of native complex
  numbers, for every other system: hand-built ones, and the classical
  scheme at kh >= 2, whose kernel grows instead of oscillating.

Both paths apply the same relative breakdown test: a Thomas pivot, or the
determinant of the kernel path's 2x2 boundary system, whose magnitude drops
below PIVOT_REL_TOL times its scale raises SingularSystem instead of
returning garbage.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import SingularSystem

PIVOT_REL_TOL = 1e-14

# Largest phase drift eps * n / theta of the assembled rows at which the
# kernel path still takes its correction step. Coarse grids sit at or below
# about 3e-10 (n = 6561 at k = 32), the 2^18 and 3^12 fine references at or
# above about 6e-8, so the bound separates the two by a wide margin.
CORRECTION_MAX_DRIFT = 1e-8

_EPS = float(np.finfo(float).eps)
_SIGNS = np.array([[1j], [-1j]])
# Unknowns the boundary coefficients d0, u0, ln, dn multiply.
_END_INDEX = np.array([0, 1, -2, -1])


class Stencil(NamedTuple):
    """The six coefficients of a system with one constant interior row.

    Row 0 reads d0 x[0] + u0 x[1], every row 0 < i < m-1 reads
    c x[i-1] + d x[i] + c x[i+1], and row m-1 reads ln x[m-2] + dn x[m-1].
    """

    c: complex
    d: complex
    d0: complex
    u0: complex
    ln: complex
    dn: complex


class TridiagonalSystem:
    """Three complex diagonals plus right-hand side for m = n+1 unknowns.

    lower and upper have length m-1, diag and rhs length m. Row i reads
    lower[i-1]*x[i-1] + diag[i]*x[i] + upper[i]*x[i+1] = rhs[i].

    The constructor takes the three diagonals; `stencil` is None then.
    from_stencil takes the six coefficients of a constant interior row
    (every assembled system) and stores no diagonal: each is built from
    them, read-only, the first time it is read. The kernel path, the
    residual and max_abs_coefficients read the scalars.

    theta, when set, is the real kernel angle of the interior rows: every
    row 0 < i < m-1 reads c x[i-1] - 2c cos(theta) x[i] + c x[i+1], with
    c = lower[0], and solve_tridiagonal takes the kernel path. It is None
    for systems without that structure, which go to Thomas elimination.
    """

    def __init__(self, lower, diag, upper, rhs, theta: float | None = None):
        self.lower = np.asarray(lower, dtype=complex)
        self.diag = np.asarray(diag, dtype=complex)
        self.upper = np.asarray(upper, dtype=complex)
        self.rhs = np.asarray(rhs, dtype=complex)
        self.theta = theta
        self.stencil: Stencil | None = None
        m = self.diag.shape[0]
        if self.rhs.shape != (m,) or self.lower.shape != (m - 1,) or self.upper.shape != (m - 1,):
            raise ValueError(
                "inconsistent diagonal lengths: "
                f"lower {self.lower.shape}, diag {self.diag.shape}, "
                f"upper {self.upper.shape}, rhs {self.rhs.shape}"
            )
        self._check_kernel_angle(self.lower[0] if m >= 3 else 0.0)

    @classmethod
    def from_stencil(cls, stencil: Stencil, rhs, theta: float | None = None) -> TridiagonalSystem:
        """System with rows `stencil` and right-hand side rhs (m >= 3)."""
        sys = cls.__new__(cls)
        sys.stencil = Stencil(*(complex(v) for v in stencil))
        sys.rhs = np.asarray(rhs, dtype=complex)
        sys.theta = theta
        if sys.rhs.ndim != 1 or sys.rhs.shape[0] < 3:
            raise ValueError(f"a stencil system needs m >= 3 unknowns, got rhs {sys.rhs.shape}")
        sys._check_kernel_angle(sys.stencil.c)
        return sys

    def _check_kernel_angle(self, c: complex) -> None:
        if self.theta is not None and not (self.size >= 3 and c != 0.0
                                           and math.isfinite(self.theta)
                                           and math.sin(self.theta) != 0.0):
            raise ValueError(f"kernel angle {self.theta!r} needs interior rows, "
                             "c = lower[0] != 0 and a finite theta with sin(theta) != 0")

    # Hand-built systems set these in __init__, which shadows the builders.
    @cached_property
    def lower(self) -> np.ndarray:
        return self._built(self.size - 1, self.stencil.c, ((-1, self.stencil.ln),))

    @cached_property
    def diag(self) -> np.ndarray:
        s = self.stencil
        return self._built(self.size, s.d, ((0, s.d0), (-1, s.dn)))

    @cached_property
    def upper(self) -> np.ndarray:
        return self._built(self.size - 1, self.stencil.c, ((0, self.stencil.u0),))

    @cached_property
    def _end_coefficients(self) -> np.ndarray:
        """d0, u0, ln, dn of a stencil system, to multiply x[_END_INDEX]."""
        return np.array(self.stencil[2:])

    @staticmethod
    def _built(length: int, fill: complex, ends) -> np.ndarray:
        a = np.full(length, fill, dtype=complex)
        for i, v in ends:
            a[i] = v
        a.setflags(write=False)
        return a

    @property
    def size(self) -> int:
        return self.rhs.shape[0]

    def max_abs_coefficients(self) -> tuple[float, float, float]:
        """max |diag|, max |lower| and max |upper| (0.0 for an empty diagonal)."""
        if self.stencil is None:
            return tuple(float(np.max(np.abs(a), initial=0.0))
                         for a in (self.diag, self.lower, self.upper))
        c, d, d0, u0, ln, dn = np.abs(np.array(self.stencil)).tolist()
        return max(d0, d, dn), max(c, ln), max(u0, c)

    def dense(self) -> np.ndarray:
        """Dense matrix form (test/diagnostic use only)."""
        m = self.size
        a = np.zeros((m, m), dtype=complex)
        a[np.arange(m), np.arange(m)] = self.diag
        a[np.arange(1, m), np.arange(m - 1)] = self.lower
        a[np.arange(m - 1), np.arange(1, m)] = self.upper
        return a


def solve_tridiagonal(sys: TridiagonalSystem) -> np.ndarray:
    """Solve sys in the kernel basis when it carries theta, by Thomas
    elimination otherwise.

    The kernel path takes its correction step while the phase drift
    eps * n / |theta| is at most CORRECTION_MAX_DRIFT. Raises
    SingularSystem on a relative breakdown of either path.
    """
    if sys.theta is None:
        return _solve_thomas(sys, _breakdown_threshold(sys))
    drift = _EPS * (sys.size - 1) / abs(sys.theta)
    return _solve_kernel(sys, correct=drift <= CORRECTION_MAX_DRIFT)


def _breakdown_threshold(sys: TridiagonalSystem) -> float:
    scale = max(sys.max_abs_coefficients())
    if scale == 0.0:
        raise SingularSystem("all matrix coefficients are zero")
    return PIVOT_REL_TOL * scale


def _solve_thomas(sys: TridiagonalSystem, breakdown: float) -> np.ndarray:
    """Thomas forward elimination / back substitution without pivoting."""
    m = sys.size
    lower = sys.lower.tolist()
    diag = sys.diag.tolist()
    upper = sys.upper.tolist()
    rhs = sys.rhs.tolist()

    # cprime[i] = upper[i]/pivot_i, dprime[i] = modified rhs / pivot_i
    cprime = [0j] * (m - 1)
    dprime = [0j] * m

    pivot = diag[0]
    if abs(pivot) < breakdown:
        raise SingularSystem(f"pivot {abs(pivot):.3e} below threshold at row 0")
    if m > 1:
        cprime[0] = upper[0] / pivot
    dprime[0] = rhs[0] / pivot
    for i in range(1, m):
        pivot = diag[i] - lower[i - 1] * cprime[i - 1]
        if abs(pivot) < breakdown:
            raise SingularSystem(f"pivot {abs(pivot):.3e} below threshold at row {i}")
        if i < m - 1:
            cprime[i] = upper[i] / pivot
        dprime[i] = (rhs[i] - lower[i - 1] * dprime[i - 1]) / pivot

    x = [0j] * m
    x[m - 1] = dprime[m - 1]
    for i in range(m - 2, -1, -1):
        x[i] = dprime[i] - cprime[i] * x[i + 1]
    return np.asarray(x, dtype=complex)


def _phases(theta: float, m: int) -> np.ndarray:
    """Rows e^{i theta j} and e^{-i theta j} for j = 0..m-1, each the outer
    product of two tables of about sqrt(m) entries (j = q * width + r): one
    complex product per entry instead of one complex exponential."""
    width = math.isqrt(m - 1) + 1
    angles = _SIGNS * (theta * np.arange(width))
    coarse = np.exp(angles[:, :-(-m // width), None] * width)
    return (coarse * np.exp(angles[:, None, :])).reshape(2, -1)[:, :m]


def _solve_kernel(sys: TridiagonalSystem, correct: bool) -> np.ndarray:
    """Kernel-basis solve; with `correct`, one correction step against the
    assembled rows follows.

    Particular solution, zero at j = 0 and 1 (S_j sums l = 1..j-1):
        p_j = (e^{i theta j} S-_j - e^{-i theta j} S+_j) / (2i c sin theta),
        S+-_j = sum_l e^{+-i theta l} b_l.
    """
    m = sys.size
    phases = _phases(sys.theta, m)
    ahead, back = phases
    c, _, d0, u0, ln, dn = _stencil(sys)
    kappa = 1.0 / (2j * math.sin(sys.theta) * c)
    # Boundary rows applied to e^{+i theta j} (column 0) and e^{-i theta j}.
    e1, en1, en = ahead[[1, -2, -1]].tolist()
    m00, m01 = d0 + u0 * e1, d0 + u0 * e1.conjugate()
    m10, m11 = ln * en1 + dn * en, ln * en1.conjugate() + dn * en.conjugate()
    det = m00 * m11 - m01 * m10
    if not abs(det) >= PIVOT_REL_TOL * (abs(m00 * m11) + abs(m01 * m10)):
        raise SingularSystem(f"boundary system determinant {abs(det):.3e} below threshold")

    def solve(rhs: np.ndarray) -> np.ndarray:
        # rows S-_j e^{i theta j} and S+_j e^{-i theta j}, zero at j = 0, 1
        sums = np.empty((2, m), dtype=complex)
        sums[:, :2] = 0.0
        np.multiply(phases[::-1, 1:-1], rhs[1:-1], out=sums[:, 2:])
        np.add.accumulate(sums, axis=1, out=sums)
        sums *= phases
        particular = sums[0]
        particular -= sums[1]
        particular *= kappa
        p_before_last, p_last = particular[-2:].tolist()
        r0 = complex(rhs[0])
        rn = complex(rhs[-1]) - ln * p_before_last - dn * p_last
        x = np.multiply(ahead, (r0 * m11 - m01 * rn) / det)
        x += np.multiply(back, (m00 * rn - m10 * r0) / det, out=sums[1])
        x += particular
        return x

    x = solve(sys.rhs)
    if correct:
        x -= solve(_residual(sys, x))
    return x


def _stencil(sys: TridiagonalSystem) -> Stencil:
    """The system's stencil. A hand-built system that carries theta has no
    stored one, so its coefficients are read from the diagonals."""
    if sys.stencil is not None:
        return sys.stencil
    lower, diag, upper = sys.lower, sys.diag, sys.upper
    return Stencil(*map(complex, (lower[0], diag[1], diag[0], upper[0], lower[-1], diag[-1])))


def _residual(sys: TridiagonalSystem, x: np.ndarray) -> np.ndarray:
    """A x - b, row i as ((diag[i] x[i] - rhs[i]) + lower[i-1] x[i-1]) + upper[i] x[i+1]."""
    s = sys.stencil
    if s is None:
        r = sys.diag * x - sys.rhs
        r[1:] += sys.lower * x[:-1]
        r[:-1] += sys.upper * x[1:]
        return r
    # The same operations from the scalars. Products stay in numpy, each
    # coefficient the left operand as in diag * x: its complex SIMD multiply
    # can round x * d and d * x differently, and the rows must round as over
    # the built diagonals. Sums are exact-rounded either way.
    r = np.multiply(s.d, x)
    r -= sys.rhs
    inner = r[1:-1]
    t = np.multiply(s.c, x[:-2])
    inner += t
    inner += np.multiply(s.c, x[2:], out=t)
    d0x0, u0x1, lnxm, dnxn = (sys._end_coefficients * x.take(_END_INDEX)).tolist()
    r[0] = (d0x0 - complex(sys.rhs[0])) + u0x1
    r[-1] = (dnxn - complex(sys.rhs[-1])) + lnxm
    return r


def residual_inf_norm(sys: TridiagonalSystem, x: np.ndarray) -> float:
    """Max-norm of A x - b for a candidate solution x."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (sys.size,):
        raise ValueError(f"solution length {x.shape} does not match system size {sys.size}")
    return float(np.max(np.abs(_residual(sys, x))))
