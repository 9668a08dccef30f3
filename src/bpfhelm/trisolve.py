"""Direct solution of complex tridiagonal systems.

A system is built from what it stores: its Stencil, the two coefficients
of one constant three-point interior row and the four boundary entries,
its interior, the entries of rows 1..m-2 as one array, float64 for a real
source and complex otherwise, and its ends, the entries of rows 0 and m-1
as two complex scalars, the only rows that carry complex impedance data.
It builds its diagonals and its full right-hand side only when something
reads them (tests, benchmark checkers); the solver, the residual and the
coefficient maxima work from the six scalars, the interior and the ends.

Every system is solved in the basis of its interior kernel. The interior
rows c x_{j-1} + d x_j + c x_{j+1} = b_j are one constant recurrence whose
kernel is spanned by two vectors v and w built from the two roots of
c z^2 + d z + c = 0, lambda and 1/lambda. So x = p + a v + b w for a
particular solution p, and every solve ends in one tail: the two boundary
rows, applied to v, w and p at unknowns 0, 1, m-2 and m-1, fix a and b.
p has two recipes: discrete variation of parameters, which takes the
cumulative sums Sv and Sw of v b and w b and sets p = kappa (v Sw - w Sv),
and at a simple root a recurrence summed by doubling. Two paths, chosen by
what the system records about its kernel:

* The kernel angle theta, for assembled systems whose kernel oscillates
  (bpf and fd-dc, and fd while kh < 2): v_j = e^{i theta j}, w = conj(v),
  and p comes from variation of parameters. The phases come from theta itself,
  not from the stored diagonal, whose rounding drifts the phase by about
  eps * n / theta over n steps at small theta. A system that fits one
  block of about BLOCK unknowns (every coarse grid) is solved in one
  straight line of whole-array operations. A larger one streams through
  blocks of whole rows of its phase table, so that a block's working set
  stays in L2: pass 1 writes p and carries the cumulative sums from
  block to block, pass 2 rebuilds the block's phases and adds a v + b w.
  When the interior of the right-hand side is a float64 array, as a real
  source samples to, Sv = conj(Sw), and pass 1 carries one sum instead of
  two. Every element sees the one-block solve's operations in the same
  order, so results are bitwise those of a solve over whole arrays. Beyond
  the interior and x a streamed solve holds block-sized buffers only, and
  a correction step one residual, whose buffer receives the correction.
* The root lambda with |lambda| <= 1, which every other system records:
  fd at kh > 2, where lambda is real in (-1, 0), and every hand-built
  stencil. One running product builds v_j = lambda^j, and w is v
  reversed, or j v_j at the double root lambda = +-1 (fd at kh = 2
  exactly), where v is exactly the signs. With K = 1 / (c (lambda -
  1/lambda)), p = K sum_l lambda^|j-l| b_l is the recurrence
  F_j = lambda F_{j-1} + b_j run forward and backward, summed by recursive
  doubling: each pass adds lambda^s times the sums shifted by s, for
  s = 1, 2, 4, ... until |lambda^s| < eps. No factor exceeds 1 in modulus,
  so nothing is rescaled. At the double root K is infinite, and p comes
  from variation of parameters with kappa = -lambda / c.

Each path is a factory that checks the system and returns its solve;
solve_tridiagonal decides how many correction steps follow it and takes
them in one loop. Both paths raise SingularSystem instead of returning
garbage when the determinant of the 2x2 boundary system is zero or not
finite, or drops below PIVOT_REL_TOL times its scale. The root path
measures against the matrix scale as well, and raises when the interior
pivot, which vanishes only when both c and d are negligible, is not above
PIVOT_REL_TOL times that scale: an all-zero matrix fails this one test.

residual_inf_norm reduces a system that fits one block directly, and a
larger one block by block; max_abs reduces any array block by block. Either
gives NaN if the array holds one.
"""

from __future__ import annotations

import cmath
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

# Largest root gap 1 - |lambda| at which the root path still takes its
# correction step, and the largest at which it takes a second one. As the
# roots meet, the bare solve loses accuracy to the cancellation between K's
# sums and the homogeneous part (fd has gap about 2 sqrt(kh - 2) just above
# kh = 2). Above 0.1 it meets the residual of elimination on its own, above
# 1e-5 (kh - 2 above about 2.5e-11) after one step; below, where it can be
# off by 1e-5 relative on a few unknowns, it needs two.
CORRECTION_MAX_GAP = 0.1
SECOND_CORRECTION_MAX_GAP = 1e-5

# Unknowns per block of the streamed kernel solve and residual (and nodes
# per block of grid.nodal_values' sampling and of analysis.error_report): a
# block's working set, about seven complex arrays of this length (under
# 1 MiB), stays in a 2 MiB L2 cache.
BLOCK = 2**13

_EPS = float(np.finfo(float).eps)
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
    where lower and upper (length m-1), diag (length m) and the complex rhs
    (length m) are built, read-only, on each read. The system holds what it
    is built from: interior, the entries of rows 1..m-2 (at least one), not
    copied when given as a float64 or complex array and made complex
    otherwise, and ends, the pair (r0, r_last) of the complex entries of
    rows 0 and m-1. The solver, the residual and max_abs_coefficients read
    these and the six scalars of the stencil.

    theta, when set, is the real kernel angle of the interior rows: every
    row 0 < i < m-1 reads c x[i-1] - 2c cos(theta) x[i] + c x[i+1], and
    solve_tridiagonal takes the kernel-angle path. Without it the system
    records root, the root of c z^2 + d z + c = 0 with |root| <= 1 (0 for
    a diagonal interior, c = 0), and takes the root path.
    """

    def __init__(self, stencil: Stencil, interior, ends, theta: float | None = None):
        self.stencil = Stencil(*(complex(v) for v in stencil))
        interior = np.asarray(interior)
        self.interior = np.asarray(interior, dtype=float if interior.dtype == float else complex)
        if interior.ndim != 1 or interior.shape[0] < 1:
            raise ValueError(f"a system needs m >= 3 unknowns, got interior {interior.shape}")
        self.r0, self.r_last = (complex(r) for r in ends)
        self.theta = theta
        if theta is not None and not (self.stencil.c != 0.0 and math.isfinite(theta)
                                      and math.sin(theta) != 0.0):
            raise ValueError(f"kernel angle {theta!r} needs c != 0 "
                             "and a finite theta with sin(theta) != 0")
        self.root = None if theta is not None else _root(self.stencil.c, self.stencil.d)[0]

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
    def rhs(self) -> np.ndarray:
        b = np.empty(self.size, dtype=complex)
        b[0], b[1:-1], b[-1] = self.r0, self.interior, self.r_last
        b.setflags(write=False)
        return b

    @property
    def size(self) -> int:
        return self.interior.shape[0] + 2

    def max_abs_coefficients(self) -> tuple[float, float, float]:
        """max |diag|, max |lower| and max |upper|."""
        c, d, d0, u0, ln, dn = np.abs(np.array(self.stencil)).tolist()
        return max(d0, d, dn), max(c, ln), max(u0, c)


def _built(length: int, fill: complex, ends) -> np.ndarray:
    """Read-only diagonal of `length` entries `fill`, with (index, value) ends."""
    a = np.full(length, fill, dtype=complex)
    for i, v in ends:
        a[i] = v
    a.setflags(write=False)
    return a


def _root(c: complex, d: complex) -> tuple[complex, complex]:
    """(lambda, r) for the interior row c z^2 + d z + c: lambda the root with
    |lambda| <= 1, and r = sqrt(d^2 - 4c^2) = c (lambda - 1/lambda), signed
    so that |d + r| is the larger and lambda = -2c / (d + r) loses nothing
    to cancellation. r = 0 marks the double root lambda = -1 (d = 2c) or
    +1 (d = -2c)."""
    r = cmath.sqrt(d - 2.0 * c) * cmath.sqrt(d + 2.0 * c)
    if abs(d - r) > abs(d + r):
        r = -r
    if r == 0.0:
        return complex(-1.0 if d == 2.0 * c else 1.0), r
    return -2.0 * c / (d + r), r


def solve_tridiagonal(sys: TridiagonalSystem) -> np.ndarray:
    """Solve sys in the basis of its interior kernel: by its kernel angle
    when it carries one, by its root otherwise. Raises SingularSystem on a
    relative breakdown of either path.

    The kernel-basis solve x = K^{-1} b is followed by up to two correction
    steps x -= K^{-1}(A x - b) against the assembled rows, each of which
    brings the residual down toward the level of elimination. The
    kernel-angle path takes one while the phase drift eps * n / |theta| of
    the assembled rows is at most CORRECTION_MAX_DRIFT (every coarse grid).
    Above it (the fine-grid references) the step would pull x toward the
    stored rows' drifted phase, as K takes its phases from theta itself.
    The drift is measured in theta, not in sin(theta): near theta = pi the
    two kernel vectors coalesce, so there K loses accuracy while the stored
    rows keep theirs, and the step stays on. The root path takes one while
    the root gap 1 - |lambda| is at most CORRECTION_MAX_GAP, where the roots
    come close, and a second while it is at most SECOND_CORRECTION_MAX_GAP,
    where they all but meet.
    """
    if sys.theta is not None:
        drift = _EPS * (sys.size - 1) / abs(sys.theta)
        return _solve(sys, _kernel_solver(sys), int(drift <= CORRECTION_MAX_DRIFT))
    gap = 1.0 - abs(sys.root)
    return _solve(sys, _root_solver(sys),
                  (gap <= CORRECTION_MAX_GAP) + (gap <= SECOND_CORRECTION_MAX_GAP))


def _solve(sys: TridiagonalSystem, solve, steps: int) -> np.ndarray:
    """x = solve(interior, r0, r_last) of sys, then `steps` correction
    steps, each solving for the correction into the residual's buffer."""
    x = solve(sys.interior, sys.r0, sys.r_last)
    for _ in range(steps):
        r = residual(sys, x)
        x -= solve(r[1:-1], complex(r[0]), complex(r[-1]), r)
    return x


def _boundary_solver(stencil: Stencil, v_ends, w_ends, floor: float = 0.0):
    """weights(r0, r_last, p_ends) -> the multiples (a, b) of the kernel
    vectors v and w that make x = p + a v + b w satisfy the two boundary rows
    of stencil, from the values of v, w and p at _END_INDEX. Raises
    SingularSystem when the 2x2 determinant is zero or not finite, or when it
    is below PIVOT_REL_TOL times max(|m00 m11| + |m01 m10|, floor)."""
    _, _, d0, u0, ln, dn = stencil
    (v0, v1, vn1, vn), (w0, w1, wn1, wn) = v_ends, w_ends
    m00, m01 = d0 * v0 + u0 * v1, d0 * w0 + u0 * w1
    m10, m11 = ln * vn1 + dn * vn, ln * wn1 + dn * wn
    det = m00 * m11 - m01 * m10
    if not 0.0 < abs(det) < math.inf:
        raise SingularSystem(f"boundary system determinant is {'zero' if det == 0 else abs(det)}")
    if not abs(det) >= PIVOT_REL_TOL * max(abs(m00 * m11) + abs(m01 * m10), floor):
        raise SingularSystem(f"boundary system determinant {abs(det):.3e} below threshold")

    def weights(r0: complex, r_last: complex, p_ends) -> tuple[complex, complex]:
        p0, p1, pn1, pn = p_ends
        r0, rn = r0 - d0 * p0 - u0 * p1, r_last - ln * pn1 - dn * pn
        return (r0 * m11 - m01 * rn) / det, (m00 * rn - m10 * r0) / det

    return weights


def _basis_solver(sys: TridiagonalSystem, v: np.ndarray, w: np.ndarray, particular,
                  floor: float = 0.0):
    """solve(interior, r0, r_last, out=None) -> p + a v + b w, with
    p = particular(interior, out) (out, or a new array) and a, b fixed by
    the two boundary rows, whose right-hand sides are r0 and r_last."""
    weights = _boundary_solver(sys.stencil, v[_END_INDEX].tolist(), w[_END_INDEX].tolist(),
                               floor)
    homogeneous = np.empty((2, sys.size), dtype=complex)

    def solve(interior: np.ndarray, r0: complex, r_last: complex,
              out: np.ndarray | None = None) -> np.ndarray:
        x = particular(interior, out)
        a, b = weights(r0, r_last, x[_END_INDEX].tolist())
        h = np.multiply(v, a, out=homogeneous[0])
        h += np.multiply(w, b, out=homogeneous[1])
        x += h
        return x

    return solve


def _variation_particular(vw: np.ndarray, kappa: complex):
    """particular(interior, out=None) -> p_j = kappa (v_j Sw_j - w_j Sv_j),
    written into out (a new array if None), which may hold interior itself,
    for the two kernel vectors (v, w) = vw of the interior rows: discrete
    variation of parameters, with Sv_j and Sw_j the sums of v_l b_l and
    w_l b_l over the interior rows l < j (b_l = interior[l - 1]), so p is
    zero at j = 0 and 1."""
    m = vw.shape[1]
    sums = np.empty((2, m), dtype=complex)

    def particular(interior: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty(m, dtype=complex) if out is None else out
        sums[:, :2] = 0.0
        np.multiply(vw[::-1, 1:m - 1], interior, out=sums[:, 2:])
        np.add.accumulate(sums, axis=1, out=sums)
        np.multiply(sums, vw, out=sums)  # `sums *= vw` would make sums local
        return np.multiply(np.subtract(sums[0], sums[1], out=sums[0]), kappa, out=out)

    return particular


def _kernel_solver(sys: TridiagonalSystem):
    """solve(interior, r0, r_last, out=None) by the kernel angle: the
    solution, written into out (a new array if None), which may hold
    interior itself.

    The kernel vectors are v_j = e^{i theta j} and w = conj(v), with
    kappa = 1 / (2i c sin theta) in _variation_particular. The phases v_j,
    j = q * width + r, are products of two tables of about sqrt(m) entries.
    One loop builds a block of whole rows q at a time, v's row and w's as
    its conjugate: bitwise e^{-i theta j} built from -theta, as exp and the
    complex multiply are conjugate-symmetric, but for the sign of w_0's zero
    imaginary part. A system that fits one block solves through
    _basis_solver on the loop's one block. A larger one runs the loop twice:
    pass 1 writes p block by block, carrying the sums from block to block in
    accumulate's sequential order; pass 2 adds a v + b w.

    When interior is a float64 array (a real source; not a correction
    step's residual), w_l b_l = conj(v_l b_l), so Sv = conj(Sw) and
    v Sw - w Sv = 2i Im(v Sw), bit for bit but for the sign of a zero part,
    by the same symmetry. Pass 1 then accumulates Sw alone and writes
    p = Im(v Sw) (2i kappa), which rounds as (2i Im(v Sw)) kappa does. A
    complex interior carries both sums.
    """
    m = sys.size
    width = math.isqrt(m - 1) + 1
    angles = 1j * (sys.theta * np.arange(width))
    coarse = np.exp(angles[:-(-m // width), None] * width)
    fine = np.exp(angles)
    n_rows = coarse.shape[0]
    rows = min(max(1, BLOCK // width), n_rows)
    kappa = 1.0 / (2j * math.sin(sys.theta) * sys.stencil.c)
    two_i_kappa = 2j * kappa
    # Reused by every block: a fresh block-sized array per block would cost
    # more in page faults than the block's arithmetic.
    table = np.empty((2, rows, width), dtype=complex)

    def blocks():
        """(first unknown, phases v and w) of each block, built in table."""
        for q0 in range(0, n_rows, rows):
            q1 = min(q0 + rows, n_rows)
            np.conjugate(np.multiply(coarse[q0:q1], fine, out=table[0, :q1 - q0]),
                         out=table[1, :q1 - q0])
            yield q0 * width, table[:, :q1 - q0].reshape(2, -1)[:, :m - q0 * width]

    if rows == n_rows:
        ph = next(blocks())[1]
        return _basis_solver(sys, ph[0], ph[1], _variation_particular(ph, kappa))

    q, r = divmod(_END_INDEX % m, width)
    v_ends = coarse[q, 0] * fine[r]
    weights = _boundary_solver(sys.stencil, v_ends.tolist(), v_ends.conj().tolist())
    # Column 0 carries S-+ over from the previous block; column 1 + l holds
    # the block's l-th term, then its running sum.
    sums = np.empty((2, rows * width + 1), dtype=complex)

    def solve(interior: np.ndarray, r0: complex, r_last: complex,
              out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty(m, dtype=complex) if out is None else out
        real = interior.dtype.kind != "c"  # Sv = conj(Sw)
        used = sums[:1 if real else 2]  # Sw, or Sw and Sv
        sums[:, :2] = 0.0
        for j0, ph in blocks():
            length = ph.shape[1]
            lo, hi = max(j0, 1), min(j0 + length, m - 1)
            np.multiply(ph[::-1][:used.shape[0], lo - j0:hi - j0], interior[lo - 1:hi - 1],
                        out=used[:, lo - j0 + 1:hi - j0 + 1])
            running = used[:, :hi - j0 + 1]
            np.add.accumulate(running, axis=1, out=running)
            # No in-place multiply of one row: on a block of one unknown
            # numpy would take its scalar reduce loop, which rounds unlike
            # the SIMD one.
            if real:  # p = Im(v Sw) (2i kappa), v Sw in the idle Sv row
                z = np.multiply(sums[0, :length], ph[0], out=sums[1, :length])
                np.multiply(z.imag, two_i_kappa, out=out[j0:j0 + length])
            else:
                terms = sums[:, :length]
                terms *= ph
                np.multiply(np.subtract(terms[0], terms[1], out=terms[0]), kappa,
                            out=out[j0:j0 + length])
            if j0 + length < m:
                used[:, 0] = used[:, length]  # S-+ at the next block's first unknown
        a, b = weights(r0, r_last, out[_END_INDEX].tolist())
        for j0, ph in blocks():
            length = ph.shape[1]
            homogeneous = np.multiply(ph[0], a, out=sums[0, :length])
            homogeneous += np.multiply(ph[1], b, out=sums[1, :length])
            out[j0:j0 + length] += homogeneous
        return out

    return solve


def _root_solver(sys: TridiagonalSystem):
    """solve(interior, r0, r_last, out=None) from the root lambda of the
    interior row: the solution in a new array (out is not written).

    The kernel vectors are v_j = lambda^j, one running product (exactly the
    signs at the double root lambda = +-1), and w: v reversed at a simple
    root, j v_j at the double root. The particular solution comes from
    _simple_root_particular, or at the double root from
    _variation_particular with kappa = -lambda / c.
    """
    m = sys.size
    c, d = sys.stencil.c, sys.stencil.d
    lam, r = _root(c, d)
    scale = max(map(abs, sys.stencil))
    if not abs(d + r) > 2.0 * PIVOT_REL_TOL * scale:
        raise SingularSystem(f"interior pivot {0.5 * abs(d + r):.3e} below threshold")
    v = np.full(m, lam)
    v[0] = 1.0
    np.multiply.accumulate(v, out=v)
    if r:
        w, particular = v[::-1], _simple_root_particular(lam, r, m)
    else:
        vw = np.stack((v, np.arange(m) * v))
        w, particular = vw[1], _variation_particular(vw, -lam / c)
    return _basis_solver(sys, v, w, particular, scale * scale)


def _simple_root_particular(lam: complex, r: complex, m: int):
    """particular(interior, out=None) -> the particular solution K (F_j + G_j - b_j)
    at a simple root (r != 0), in a new array (out is not written), where F
    and G are the forward and backward sums F_j = lambda F_{j-1} + b_j and
    G_j = lambda G_{j+1} + b_j over the interior rows and K = 1/r (see
    _root).

    F and G, reversed, are the two rows of one array, each summed by
    recursive doubling: the pass for shift s adds lambda^s times the row
    shifted by s, so after the passes for s = 1, 2, ..., S entry j holds the
    terms of rows j-2S+1 .. j. The passes end once |lambda^s| < eps, where
    the dropped tail is below eps * max|b| / (1 - |lambda|), the level the
    sums round at anyway.
    """
    shifts, s, lam_s = [], 1, lam
    while s < m - 1 and abs(lam_s) >= _EPS:
        shifts.append((s, lam_s))
        s, lam_s = 2 * s, lam_s * lam_s
    k = 1.0 / r

    def particular(interior: np.ndarray, out=None) -> np.ndarray:
        sums = np.zeros((2, m), dtype=complex)
        sums[0, 1:m - 1] = interior
        sums[1, 1:m - 1] = interior[::-1]
        terms = np.empty_like(sums)  # one buffer for every pass's products
        for s, lam_s in shifts:
            sums[:, s:] += np.multiply(lam_s, sums[:, :-s], out=terms[:, s:])
        x = sums[0] + sums[1, ::-1]
        x[1:-1] -= interior
        x *= k
        return x

    return particular


def residual(sys: TridiagonalSystem, x: np.ndarray) -> np.ndarray:
    """A x - b for a candidate solution x, one block of rows at a time (a
    system that fits one block is a single block)."""
    x = np.asarray(x, dtype=complex)
    m = sys.size
    if x.shape != (m,):
        raise ValueError(f"solution length {x.shape} does not match system size {m}")
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
    inner = out[first - i0:last - i0]
    b = sys.interior[first - 1:last - 1]
    # A float64 b stands for b + 0j, whose zero leaves every imaginary
    # part bitwise as it is: only the real parts take the difference.
    diff = inner if b.dtype.kind == "c" else inner.real
    diff -= b
    t = scratch[:last - first]
    inner += np.multiply(s.c, x[first - 1:last - 1], out=t)
    inner += np.multiply(s.c, x[first + 1:last + 1], out=t)
    if i0 == 0 or i1 == m:
        d0x0, u0x1, lnxm, dnxn = (np.array(s[2:]) * x[_END_INDEX]).tolist()
        if i0 == 0:
            out[0] = (d0x0 - sys.r0) + u0x1
        if i1 == m:
            out[-1] = (dnxn - sys.r_last) + lnxm
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
    """Max-norm of A x - b for a candidate solution x, reduced directly when
    the system fits one block and one block of rows at a time otherwise."""
    x = np.asarray(x, dtype=complex)
    m = sys.size
    if x.shape != (m,):
        raise ValueError(f"solution length {x.shape} does not match system size {m}")
    if m <= BLOCK:
        return float(np.abs(residual(sys, x)).max())
    rows, scratch = np.empty((2, BLOCK), dtype=complex)
    return _max_abs(_residual_rows(sys, x, i0, rows[:m - i0], scratch)
                    for i0 in range(0, m, BLOCK))
