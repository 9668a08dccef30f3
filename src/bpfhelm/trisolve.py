"""Direct solution of complex tridiagonal systems.

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
from dataclasses import dataclass

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


@dataclass
class TridiagonalSystem:
    """Three complex diagonals plus right-hand side for m = n+1 unknowns.

    lower and upper have length m-1, diag and rhs length m. Row i reads
    lower[i-1]*x[i-1] + diag[i]*x[i] + upper[i]*x[i+1] = rhs[i].

    theta, when set, is the real kernel angle of the interior rows: every
    row 0 < i < m-1 reads c x[i-1] - 2c cos(theta) x[i] + c x[i+1], with
    c = lower[0], and solve_tridiagonal takes the kernel path. It is None
    for systems without that structure, which go to Thomas elimination.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray
    theta: float | None = None

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=complex)
        self.diag = np.asarray(self.diag, dtype=complex)
        self.upper = np.asarray(self.upper, dtype=complex)
        self.rhs = np.asarray(self.rhs, dtype=complex)
        m = self.diag.shape[0]
        if self.rhs.shape != (m,) or self.lower.shape != (m - 1,) or self.upper.shape != (m - 1,):
            raise ValueError(
                "inconsistent diagonal lengths: "
                f"lower {self.lower.shape}, diag {self.diag.shape}, "
                f"upper {self.upper.shape}, rhs {self.rhs.shape}"
            )
        if self.theta is not None and not (m >= 3 and self.lower[0] != 0.0
                                           and math.isfinite(self.theta)
                                           and math.sin(self.theta) != 0.0):
            raise ValueError(f"kernel angle {self.theta!r} needs interior rows, "
                             "c = lower[0] != 0 and a finite theta with sin(theta) != 0")

    @property
    def size(self) -> int:
        return self.diag.shape[0]

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
    scale = max(
        np.max(np.abs(sys.diag), initial=0.0),
        np.max(np.abs(sys.lower), initial=0.0),
        np.max(np.abs(sys.upper), initial=0.0),
    )
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
    kappa = 1.0 / (2j * math.sin(sys.theta) * complex(sys.lower[0]))
    # Boundary rows applied to e^{+i theta j} (column 0) and e^{-i theta j}.
    d0, u0 = complex(sys.diag[0]), complex(sys.upper[0])
    ln, dn = complex(sys.lower[-1]), complex(sys.diag[-1])
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


def _residual(sys: TridiagonalSystem, x: np.ndarray) -> np.ndarray:
    """A x - b."""
    r = sys.diag * x - sys.rhs
    r[1:] += sys.lower * x[:-1]
    r[:-1] += sys.upper * x[1:]
    return r


def residual_inf_norm(sys: TridiagonalSystem, x: np.ndarray) -> float:
    """Max-norm of A x - b for a candidate solution x."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (sys.size,):
        raise ValueError(f"solution length {x.shape} does not match system size {sys.size}")
    return float(np.max(np.abs(_residual(sys, x))))
