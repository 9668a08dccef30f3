"""Direct solution of complex tridiagonal systems.

A system is its Stencil, the two coefficients of one constant three-point
interior row and the four boundary entries, plus a right-hand side. It
builds its diagonals only when something reads them (Thomas elimination,
dense(), tests); the kernel path, the residual and the coefficient maxima
work from the six scalars.

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
  The solve streams through blocks of about BLOCK unknowns, whole rows of
  its phase table, so that a block's working set stays in L2: pass 1 writes
  the particular solution and carries the two cumulative sums from block
  to block, pass 2 rebuilds the block's phases and adds the homogeneous
  part. Every element sees the unblocked solve's operations in the same
  order, so results are bitwise those of a solve over whole arrays. Beyond
  rhs and x a solve holds block-sized buffers only, and the corrected path
  one residual, whose buffer receives the correction. A system that fits
  one block builds its phases once.
* Thomas elimination without pivoting, over Python lists of native complex
  numbers, for systems without a kernel angle: the classical scheme at
  kh >= 2, whose kernel grows instead of oscillating.

Both paths apply the same relative breakdown test: a Thomas pivot, or the
determinant of the kernel path's 2x2 boundary system, whose magnitude drops
below PIVOT_REL_TOL times its scale raises SingularSystem instead of
returning garbage.

residual_inf_norm and max_abs reduce one block at a time as well, and give
NaN if any block holds one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import SingularSystem

PIVOT_REL_TOL = 1e-14

# Largest phase drift eps * n / theta of the assembled rows at which the
# kernel path still takes its correction step. Coarse grids sit at or below
# about 3e-10 (n = 6561 at k = 32), the 2^18 and 3^12 fine references at or
# above about 6e-8, so the bound separates the two by a wide margin.
CORRECTION_MAX_DRIFT = 1e-8

# Unknowns per block of the streamed kernel solve and residual: a block's
# working set, about seven complex arrays of this length (under 1 MiB),
# stays in a 2 MiB L2 cache.
BLOCK = 2**13

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
    """A Stencil plus right-hand side for m = n+1 >= 3 unknowns.

    Row i reads lower[i-1]*x[i-1] + diag[i]*x[i] + upper[i]*x[i+1] = rhs[i],
    where lower and upper (length m-1) and diag (length m) are built from the
    stencil, read-only, on each read. The kernel path, the residual and
    max_abs_coefficients read the six scalars instead.

    theta, when set, is the real kernel angle of the interior rows: every
    row 0 < i < m-1 reads c x[i-1] - 2c cos(theta) x[i] + c x[i+1], and
    solve_tridiagonal takes the kernel path. It is None for systems without
    that structure, which go to Thomas elimination.
    """

    def __init__(self, stencil: Stencil, rhs, theta: float | None = None):
        self.stencil = Stencil(*(complex(v) for v in stencil))
        self.rhs = np.asarray(rhs, dtype=complex)
        self.theta = theta
        if self.rhs.ndim != 1 or self.rhs.shape[0] < 3:
            raise ValueError(f"a system needs m >= 3 unknowns, got rhs {self.rhs.shape}")
        if theta is not None and not (self.stencil.c != 0.0 and math.isfinite(theta)
                                      and math.sin(theta) != 0.0):
            raise ValueError(f"kernel angle {theta!r} needs c != 0 "
                             "and a finite theta with sin(theta) != 0")

    @property
    def lower(self) -> np.ndarray:
        return _built(self.size - 1, self.stencil.c, ((-1, self.stencil.ln),))

    @property
    def diag(self) -> np.ndarray:
        s = self.stencil
        return _built(self.size, s.d, ((0, s.d0), (-1, s.dn)))

    @property
    def upper(self) -> np.ndarray:
        return _built(self.size - 1, self.stencil.c, ((0, self.stencil.u0),))

    @property
    def size(self) -> int:
        return self.rhs.shape[0]

    def max_abs_coefficients(self) -> tuple[float, float, float]:
        """max |diag|, max |lower| and max |upper|."""
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


def _built(length: int, fill: complex, ends) -> np.ndarray:
    """Read-only diagonal of `length` entries `fill`, with (index, value) ends."""
    a = np.full(length, fill, dtype=complex)
    for i, v in ends:
        a[i] = v
    a.setflags(write=False)
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


def _solve_kernel(sys: TridiagonalSystem, correct: bool) -> np.ndarray:
    """Kernel-basis solve; with `correct`, one correction step against the
    assembled rows follows.

    Particular solution, zero at j = 0 and 1 (S_j sums l = 1..j-1):
        p_j = (e^{i theta j} S-_j - e^{-i theta j} S+_j) / (2i c sin theta),
        S+-_j = sum_l e^{+-i theta l} b_l.
    The phases e^{+-i theta j}, j = q * width + r, are products of two tables
    of about sqrt(m) entries, built for one block of whole rows q at a time.
    Pass 1 writes p block by block, carrying both sums from block to block
    in accumulate's sequential order; pass 2 rebuilds each block's phases
    and adds the homogeneous part a e^{i theta j} + b e^{-i theta j}.
    """
    m = sys.size
    width = math.isqrt(m - 1) + 1
    angles = _SIGNS * (sys.theta * np.arange(width))
    coarse = np.exp(angles[:, :-(-m // width), None] * width)
    fine = np.exp(angles[:, None, :])
    n_rows = coarse.shape[1]
    rows = min(max(1, BLOCK // width), n_rows)
    # Buffers reused by every block: a fresh block-sized array per block
    # would cost more in page faults than the block's arithmetic.
    table = np.empty((2, rows, width), dtype=complex)
    # Column 0 carries S-+ over from the previous block; column 1 + l holds
    # the block's l-th term, then its running sum. One block needs m columns.
    sums = np.empty((2, min(rows * width + 1, m)), dtype=complex)

    def phases(q0: int) -> np.ndarray:
        """Rows e^{i theta j} and e^{-i theta j} for the unknowns j of the
        block that starts at table row q0, in table."""
        q1 = min(q0 + rows, n_rows)
        block = np.multiply(coarse[:, q0:q1], fine, out=table[:, :q1 - q0])
        return block.reshape(2, -1)[:, :m - q0 * width]

    starts = range(0, n_rows, rows)
    # A single block's phases are built once, for both passes of every solve.
    single = [(0, phases(0))] if len(starts) == 1 else None

    def blocks():
        """(first unknown, phases) of each block."""
        return single or ((q0 * width, phases(q0)) for q0 in starts)

    c, _, d0, u0, ln, dn = sys.stencil
    kappa = 1.0 / (2j * math.sin(sys.theta) * c)
    # Boundary rows applied to e^{+i theta j} (column 0) and e^{-i theta j},
    # whose phases at j = 1, m-2, m-1 come from the same table products;
    # flat indices below the row length of coarse and fine read e^{+i...}.
    (qa, ra), (qb, rb) = divmod(m - 2, width), divmod(m - 1, width)
    e1, en1, en = (coarse.take((0, qa, qb)) * fine.take((1, ra, rb))).tolist()
    m00, m01 = d0 + u0 * e1, d0 + u0 * e1.conjugate()
    m10, m11 = ln * en1 + dn * en, ln * en1.conjugate() + dn * en.conjugate()
    det = m00 * m11 - m01 * m10
    if not abs(det) >= PIVOT_REL_TOL * (abs(m00 * m11) + abs(m01 * m10)):
        raise SingularSystem(f"boundary system determinant {abs(det):.3e} below threshold")

    def solve(rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Solution for rhs, written into out, which may be rhs itself."""
        r0, r_last = complex(rhs[0]), complex(rhs[-1])
        sums[:, :2] = 0.0
        for j0, ph in blocks():
            length = ph.shape[1]
            lo, hi = max(j0, 1), min(j0 + length, m - 1)
            np.multiply(ph[::-1, lo - j0:hi - j0], rhs[lo:hi],
                        out=sums[:, lo - j0 + 1:hi - j0 + 1])
            running = sums[:, :hi - j0 + 1]
            np.add.accumulate(running, axis=1, out=running)
            terms = sums[:, :length]
            terms *= ph
            # Not an in-place multiply: on a block of one unknown numpy would
            # take its scalar reduce loop, which rounds unlike the SIMD one.
            np.multiply(np.subtract(terms[0], terms[1], out=terms[0]), kappa,
                        out=out[j0:j0 + length])
            if j0 + length < m:
                sums[:, 0] = sums[:, length]  # S-+ at the next block's first unknown
        p_before_last, p_last = out[-2:].tolist()
        rn = r_last - ln * p_before_last - dn * p_last
        a, b = (r0 * m11 - m01 * rn) / det, (m00 * rn - m10 * r0) / det
        for j0, ph in blocks():
            length = ph.shape[1]
            homogeneous = np.multiply(ph[0], a, out=sums[0, :length])
            homogeneous += np.multiply(ph[1], b, out=sums[1, :length])
            out[j0:j0 + length] += homogeneous
        return out

    x = solve(sys.rhs, np.empty(m, dtype=complex))
    if correct:
        residual = _residual(sys, x)
        x -= solve(residual, residual)
    return x


def _residual(sys: TridiagonalSystem, x: np.ndarray) -> np.ndarray:
    """A x - b, computed one block of rows at a time."""
    m = sys.size
    r = np.empty(m, dtype=complex)
    scratch = np.empty(min(m, BLOCK), dtype=complex)
    for i0 in range(0, m, BLOCK):
        _residual_rows(sys, x, i0, r[i0:i0 + BLOCK], scratch)
    return r


def _residual_rows(sys: TridiagonalSystem, x: np.ndarray, i0: int, out: np.ndarray,
                   scratch: np.ndarray) -> np.ndarray:
    """Rows i0 .. i0 + len(out) - 1 of A x - b, written into out, with
    scratch (at least as long as out) for the products; row i as
    ((diag[i] x[i] - rhs[i]) + lower[i-1] x[i-1]) + upper[i] x[i+1]."""
    m, i1 = sys.size, i0 + out.shape[0]
    first, last = max(i0, 1), min(i1, m - 1)  # rows with a left, a right neighbour
    s = sys.stencil
    # Products stay in numpy, each coefficient the left operand as in
    # diag * x: its complex SIMD multiply can round x * d and d * x
    # differently, and the rows must round as over the built diagonals.
    # Sums are exact-rounded either way.
    np.multiply(s.d, x[i0:i1], out=out)
    out -= sys.rhs[i0:i1]
    inner = out[first - i0:last - i0]
    t = scratch[:last - first]
    inner += np.multiply(s.c, x[first - 1:last - 1], out=t)
    inner += np.multiply(s.c, x[first + 1:last + 1], out=t)
    if i0 == 0 or i1 == m:
        d0x0, u0x1, lnxm, dnxn = (np.array(s[2:]) * x.take(_END_INDEX)).tolist()
        if i0 == 0:
            out[0] = (d0x0 - complex(sys.rhs[0])) + u0x1
        if i1 == m:
            out[-1] = (dnxn - complex(sys.rhs[-1])) + lnxm
    return out


def _max_abs(blocks) -> float:
    """Largest |v| over the arrays in blocks; NaN if any of them holds one
    (np.maximum propagates NaN whichever side it is on)."""
    top = None
    for block in blocks:
        peak = np.max(np.abs(block))
        top = peak if top is None else np.maximum(top, peak)
    return float(top)


def max_abs(a: np.ndarray) -> float:
    """max |a| of a nonempty array, reduced one block at a time."""
    return _max_abs(a[i:i + BLOCK] for i in range(0, a.shape[0], BLOCK))


def residual_inf_norm(sys: TridiagonalSystem, x: np.ndarray) -> float:
    """Max-norm of A x - b for a candidate solution x, reduced one block of
    rows at a time."""
    x = np.asarray(x, dtype=complex)
    m = sys.size
    if x.shape != (m,):
        raise ValueError(f"solution length {x.shape} does not match system size {m}")
    rows, scratch = np.empty((2, min(m, BLOCK)), dtype=complex)
    return _max_abs(_residual_rows(sys, x, i0, rows[:m - i0], scratch)
                    for i0 in range(0, m, BLOCK))
