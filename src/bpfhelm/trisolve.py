"""Direct solution of complex tridiagonal systems.

Two elimination paths, chosen by system size:

* Below LAPACK_MIN_SIZE unknowns, plain Thomas elimination (no row
  pivoting) over Python lists of native complex numbers, which is faster
  than per-element ndarray indexing and needs nothing beyond numpy. The
  assembled Helmholtz systems are well conditioned away from the Nyquist
  guard, so they need no pivoting.
* From LAPACK_MIN_SIZE unknowns on, LAPACK ``zgtsv`` (LU with partial
  pivoting) through ``scipy.linalg.lapack``, imported on first use.

Both paths apply the same breakdown test: a pivot whose magnitude drops
below PIVOT_REL_TOL times the largest coefficient magnitude raises
SingularSystem instead of returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem

PIVOT_REL_TOL = 1e-14

# Systems with at least this many unknowns go to LAPACK zgtsv. Importing
# scipy.linalg costs about 0.3 s once per process, which is what the Thomas
# loop spends on roughly 2.5e5 unknowns; the bound keeps every coarse solve
# and every small start-up solve free of that import, while the 2^18 and
# 3^12 fine-grid references take the LAPACK path.
LAPACK_MIN_SIZE = 2**15


@dataclass
class TridiagonalSystem:
    """Three complex diagonals plus right-hand side for m = n+1 unknowns.

    lower and upper have length m-1, diag and rhs length m. Row i reads
    lower[i-1]*x[i-1] + diag[i]*x[i] + upper[i]*x[i+1] = rhs[i].
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

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
    """Solve sys, by Thomas elimination below LAPACK_MIN_SIZE unknowns and
    by LAPACK zgtsv from there on.

    Raises SingularSystem when any pivot magnitude drops below
    PIVOT_REL_TOL times the largest input coefficient magnitude.
    """
    breakdown = _breakdown_threshold(sys)
    if sys.size >= LAPACK_MIN_SIZE:
        return _solve_lapack(sys, breakdown)
    return _solve_thomas(sys, breakdown)


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


def _solve_lapack(sys: TridiagonalSystem, breakdown: float) -> np.ndarray:
    """LAPACK zgtsv: LU with partial pivoting, tested on the pivots of U.

    zgtsv works on copies (its overwrite flags default to off), so sys
    keeps its coefficients for the caller's residual check.
    """
    from scipy.linalg import lapack

    _, u_diag, _, x, info = lapack.zgtsv(sys.lower, sys.diag, sys.upper, sys.rhs)
    if info > 0:
        raise SingularSystem(f"pivot is exactly zero at row {info - 1}")
    if info < 0:
        raise ValueError(f"zgtsv rejected argument {-info}")
    row = int(np.argmin(np.abs(u_diag)))
    if abs(u_diag[row]) < breakdown:
        raise SingularSystem(f"pivot {abs(u_diag[row]):.3e} below threshold at row {row}")
    return x


def residual_inf_norm(sys: TridiagonalSystem, x: np.ndarray) -> float:
    """Max-norm of A x - b for a candidate solution x."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (sys.size,):
        raise ValueError(f"solution length {x.shape} does not match system size {sys.size}")
    r = sys.diag * x - sys.rhs
    r[1:] += sys.lower * x[:-1]
    r[:-1] += sys.upper * x[1:]
    return float(np.max(np.abs(r)))
