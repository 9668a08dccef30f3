"""Tridiagonal solvers against hand cases, a dense-elimination oracle and a
40-digit mpmath oracle, the rule that routes between the kernel-angle and
the root path, and the diagonals a stencil system builds."""

import math
import subprocess
import sys
import types

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpfhelm import trisolve
from bpfhelm.errors import SingularSystem
from bpfhelm.reference import make_benchmark, sine_squared_problem, smooth_manufactured_problem
from bpfhelm.schemes import SchemeKind, assemble
from bpfhelm.trisolve import Stencil, TridiagonalSystem, residual_inf_norm, solve_tridiagonal

EPS = np.finfo(float).eps


def _random_system(rng, m):
    # mild boost of the three diagonal entries keeps the draw comfortably
    # nonsingular
    c, d, d0, u0, ln, dn = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    d, d0, dn = np.array([d, d0, dn]) + 3.0 * np.exp(2j * np.pi * rng.uniform(size=3))
    rhs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return TridiagonalSystem(Stencil(c, d, d0, u0, ln, dn), rhs[1:-1], (rhs[0], rhs[-1]))


def _kernel_solve(sys, steps):
    """The kernel-angle path followed by `steps` correction steps."""
    return trisolve._solve(sys, trisolve._kernel_solver(sys), steps)


# Every path through the solver on a system that carries a kernel angle; the
# root path solves it from the root of its stored interior row.
PATHS = {
    "root": lambda sys: trisolve._solve(sys, trisolve._root_solver(sys), 1),
    "bare-kernel": lambda sys: _kernel_solve(sys, 0),
    "corrected-kernel": lambda sys: _kernel_solve(sys, 1),
}


class TestSolve:
    def test_identity(self):
        rhs = np.array([1.0 + 2j, -3.0, 0.5j])
        sys = TridiagonalSystem(Stencil(0.0, 1.0, 1.0, 0.0, 0.0, 1.0), rhs[1:-1],
                                (rhs[0], rhs[-1]))
        assert np.array_equal(solve_tridiagonal(sys), rhs)

    def test_three_by_three(self):
        # oracle: hand elimination of diag(2) with -1 off-diagonals, rhs (1,0,1)
        sys = TridiagonalSystem(Stencil(-1.0, 2.0, 2.0, -1.0, -1.0, 2.0), [0.0], (1.0, 1.0))
        assert np.allclose(solve_tridiagonal(sys), [1.0, 1.0, 1.0], atol=1e-14)

    def test_zero_diagonal_breaks(self):
        # an exactly zero pivot, and one below PIVOT_REL_TOL times the scale
        for pivot in (0.0, 1e-20):
            sys = TridiagonalSystem(Stencil(0.0, 1.0, pivot, 0.0, 0.0, 1.0), np.ones(1),
                                    (1.0, 1.0))
            with pytest.raises(SingularSystem):
                solve_tridiagonal(sys)

    def test_all_zero_matrix(self):
        sys = TridiagonalSystem(Stencil(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), np.ones(1), (1.0, 1.0))
        with pytest.raises(SingularSystem):
            solve_tridiagonal(sys)

    def test_matches_dense_oracle(self, dense_matrix):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = int(rng.integers(3, 65))
            sys = _random_system(rng, m)
            x = solve_tridiagonal(sys)
            x_dense = np.linalg.solve(dense_matrix(sys), sys.rhs)
            scale = np.max(np.abs(x_dense))
            assert np.max(np.abs(x - x_dense)) <= 1e-11 * scale

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            TridiagonalSystem(Stencil(0.0, 1.0, 1.0, 0.0, 0.0, 1.0), np.ones((1, 3)), (1.0, 1.0))

    @pytest.mark.parametrize("m, theta, c", [(2, 0.5, 1.0), (3, 0.0, 1.0), (3, 0.5, 0.0),
                                             (3, math.nan, 1.0), (3, math.inf, 1.0)])
    def test_kernel_angle_validation(self, m, theta, c):
        with pytest.raises(ValueError):
            TridiagonalSystem(Stencil(c, 1.0, 1.0, c, c, 1.0), np.ones(m - 2), (1.0, 1.0), theta)

    def test_singular_boundary_system(self):
        # boundary rows that read x_0 = 0 and x_n = 0 with theta = pi/2 on
        # n = 2 subintervals: sin(theta n) = 0 is a Dirichlet eigenvalue
        sys = TridiagonalSystem(Stencil(1.0, 0.0, 1.0, 0.0, 0.0, 1.0), np.ones(1), (1.0, 1.0),
                                math.pi / 2)
        with pytest.raises(SingularSystem):
            solve_tridiagonal(sys)

    def test_degenerate_kernel_basis(self):
        # at theta = pi the two kernel vectors coincide, (-1)^j
        sys = TridiagonalSystem(Stencil(1.0, 2.0, 1.0, 1.0, 1.0, 1.0), np.ones(1), (1.0, 1.0),
                                math.pi)
        with pytest.raises(SingularSystem):
            solve_tridiagonal(sys)


class TestRouting:
    @pytest.mark.parametrize("kind, kh", [
        (SchemeKind.BPF, 0.5),
        (SchemeKind.BPF, 3.0),
        (SchemeKind.DISPERSION_CORRECTED_FD, 0.5),
        (SchemeKind.DISPERSION_CORRECTED_FD, 3.0),
        (SchemeKind.CLASSICAL_FD, 0.5),
        (SchemeKind.CLASSICAL_FD, 1.99),
        # theta within 6e-8 of pi, where the two kernel vectors coalesce
        (SchemeKind.CLASSICAL_FD, 2.0 - 1e-15),
    ])
    def test_oscillating_kernel_takes_kernel_path(self, solve_routes, kind, kh, dense_matrix):
        n = 64  # h = 1/64 is exact, so the assembled kh is the drawn one
        p, _ = smooth_manufactured_problem(kh * n)
        sys = assemble(p, n, kind)
        if kind is SchemeKind.CLASSICAL_FD:
            assert sys.theta == 2.0 * math.asin(0.5 * kh)
        else:
            assert sys.theta == kh
        x = solve_tridiagonal(sys)
        assert solve_routes == ["kernel-1"]
        x_dense = np.linalg.solve(dense_matrix(sys), sys.rhs)
        assert np.max(np.abs(x - x_dense)) <= 1e-12 * np.max(np.abs(x_dense))

    @pytest.mark.parametrize("kh, root, steps", [
        (2.0, -1.0, 2),                      # the double root
        (2.0 + 2**-40, -0.9999981, 2),       # gap 1.9e-6
        (2.001, -0.9387154, 1),              # gap 0.061
        (2.5, -0.25, 0),
        (10.0, -0.01020514, 0),
    ], ids=["kh-2", "kh-2+2^-40", "kh-2.001", "kh-2.5", "kh-10"])
    def test_decaying_fd_kernel_takes_root_path(self, solve_routes, kh, root, steps, dense_matrix):
        # fd at kh >= 2: lambda = -2 / (s + sqrt(s^2 - 4)), s = (kh)^2 - 2
        p, _ = smooth_manufactured_problem(kh * 64)
        sys = assemble(p, 64, SchemeKind.CLASSICAL_FD)
        assert sys.theta is None and sys.root.imag == 0.0
        assert sys.root.real == pytest.approx(root, rel=1e-6)
        x = solve_tridiagonal(sys)
        assert solve_routes == [f"root-{steps}"]
        x_dense = np.linalg.solve(dense_matrix(sys), sys.rhs)
        assert np.max(np.abs(x - x_dense)) <= 1e-12 * np.max(np.abs(x_dense))

    def test_hand_built_system_takes_root_path(self, solve_routes):
        sys = _random_system(np.random.default_rng(5), 40)
        assert sys.theta is None and abs(sys.root) < 1.0 - trisolve.CORRECTION_MAX_GAP
        solve_tridiagonal(sys)
        assert solve_routes == ["root-0"]

    @pytest.mark.parametrize("c, d, m", [
        (1.0 + 0.5j, 0.3 - 2.0j, 300),        # complex root, |lambda| 0.55
        (1.0, 4.25, 501),                     # fd at kh = 2.5: lambda = -1/4
        (1.0, 1e6 - 2.0, 300),                # kh = 1e3: the scan stops after two doublings
        (0.0, 2.0 - 1.0j, 100),               # diagonal interior: lambda = 0, no doubling
        (1.0, 1.0, 200),                      # |lambda| = 1, angle 2 pi / 3
        (1.0, 1.0, 1025),                     # ... so the scan never stops early
        (1.0, 2.0, 200),                      # double root lambda = -1
        (-1.0 + 0.5j, 2.0 - 1.0j, 300),       # double root lambda = +1, complex c
        (1.0, 2.0 + 1e-9, 1025),              # roots 6e-5 apart
    ])
    def test_root_path_matches_dense_solve(self, c, d, m, dense_matrix):
        rng = np.random.default_rng(m)
        d0, u0, ln, dn = rng.standard_normal(4) + 1j * rng.standard_normal(4) + 3.0
        rhs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        sys = TridiagonalSystem(Stencil(c, d, d0, u0, ln, dn), rhs[1:-1], (rhs[0], rhs[-1]))
        a = dense_matrix(sys)
        x_dense = np.linalg.solve(a, rhs)
        x = solve_tridiagonal(sys)
        assert np.max(np.abs(x - x_dense)) <= 8.0 * EPS * np.linalg.cond(a) * np.max(np.abs(x_dense))
        scale = np.max(np.abs(rhs)) + 4.0 * max(map(abs, sys.stencil)) * np.max(np.abs(x))
        assert residual_inf_norm(sys, x) <= 4.0 * EPS * scale

    @pytest.mark.parametrize("d, m", [(1.0, 1025), (1.0, 4097), (-1.0, 1025), (-1.0, 4097)])
    def test_boundary_rows_hold_for_the_kernel_vectors_added(self, d, m):
        # |lambda| = 1 with c = 1: no power of lambda decays, so a boundary
        # system built from other powers than the ones added leaves a
        # boundary residual that grows with m; the bare solve must meet
        # both boundary rows to the rounding of elimination
        rng = np.random.default_rng(m)
        d0, u0, ln, dn = rng.standard_normal(4) + 1j * rng.standard_normal(4) + 3.0
        rhs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        sys = TridiagonalSystem(Stencil(1.0, d, d0, u0, ln, dn), rhs[1:-1], (rhs[0], rhs[-1]))
        x = trisolve._solve(sys, trisolve._root_solver(sys), 0)
        norm = max(abs(d0) + abs(u0), 2.0 + abs(d), abs(ln) + abs(dn))  # ||A||_inf
        r = trisolve.residual(sys, x)
        assert max(abs(r[0]), abs(r[-1])) <= 2.0 * EPS * (np.max(np.abs(rhs))
                                                           + norm * np.max(np.abs(x)))

    @pytest.mark.parametrize("c, d", [(1.0, 4.25), (1.0, 1e6 - 2.0), (1.0 + 0.5j, 0.3 - 2.0j)])
    def test_root_path_stays_finite_near_overflow(self, c, d, dense_matrix):
        # a right-hand side of 1e300 gives the solution of the scaled-back
        # one, scaled up, with no term on the way overflowing
        m = 300
        rng = np.random.default_rng(m)
        d0, u0, ln, dn = rng.standard_normal(4) + 1j * rng.standard_normal(4) + 3.0
        rhs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        b = 1e300 * rhs
        sys = TridiagonalSystem(Stencil(c, d, d0, u0, ln, dn), b[1:-1], (b[0], b[-1]))
        a = dense_matrix(sys)
        x_dense = np.linalg.solve(a, sys.rhs * 1e-300)
        x = solve_tridiagonal(sys)
        assert np.all(np.isfinite(x))
        err = np.max(np.abs(x * 1e-300 - x_dense))
        assert err <= 8.0 * EPS * np.linalg.cond(a) * np.max(np.abs(x_dense))

    @pytest.mark.parametrize("c, d, root", [(0.0, 1.0, 0.0), (-1.0, 2.0, 1.0),
                                            (1.0, 2.0, -1.0), (1j, 0.5, -0.7807764j)])
    def test_root_of_the_interior_row(self, c, d, root):
        # c = 0 is a diagonal interior; d = -+2c a double root
        sys = TridiagonalSystem(Stencil(c, d, 1.0, 0.0, 0.0, 1.0), np.ones(1), (1.0, 1.0))
        assert sys.root == pytest.approx(root, rel=1e-6, abs=0.0)
        assert c * sys.root**2 + d * sys.root + c == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("k, n, path", [
        (2.0**5, 3**6, "corrected-kernel"),     # drift 3.7e-12
        (2.0**5, 6561, "corrected-kernel"),     # drift 3.0e-10, the coarsest box mesh
        (2.0**8, 2**18, "bare-kernel"),         # drift 6.0e-8, a fine reference
        (2.0**5, 3**12, "bare-kernel"),         # drift 2.0e-6, the box fine reference
    ])
    def test_correction_follows_phase_drift(self, solve_routes, k, n, path):
        p, _ = sine_squared_problem(k)
        sys = assemble(p, n, SchemeKind.BPF)
        solve_tridiagonal(sys)
        assert solve_routes == [{"bare-kernel": "kernel-0", "corrected-kernel": "kernel-1"}[path]]

    def test_coefficients_unchanged(self):
        p, _ = sine_squared_problem(2.0**5)
        sys = assemble(p, 100, SchemeKind.BPF)
        before = [a.copy() for a in (sys.lower, sys.diag, sys.upper, sys.rhs)]
        solve_tridiagonal(sys)
        for a, b in zip(before, (sys.lower, sys.diag, sys.upper, sys.rhs)):
            assert np.array_equal(a, b)

    def test_solves_do_not_import_scipy(self, child_env):
        code = ("import sys\n"
                "import bpfhelm\n"
                "from bpfhelm.reference import sine_squared_problem\n"
                "from bpfhelm.schemes import solve_scheme\n"
                "solve_scheme(sine_squared_problem(32.0)[0], 4096)\n"
                "solve_scheme(sine_squared_problem(64.0)[0], 2**18)\n"
                "assert 'scipy.linalg' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=child_env)
        assert proc.returncode == 0, proc.stderr


def _mp_solve(sys):
    """Thomas elimination in 40-digit arithmetic on the stored coefficients."""
    with mpmath.workdps(40):
        lower, diag, upper, rhs = ([mpmath.mpc(v) for v in a.tolist()]
                                   for a in (sys.lower, sys.diag, sys.upper, sys.rhs))
        m = len(diag)
        cprime, dprime = [mpmath.mpc(0)] * m, [mpmath.mpc(0)] * m
        for i in range(m):
            pivot = diag[i] - (lower[i - 1] * cprime[i - 1] if i else 0)
            cprime[i] = upper[i] / pivot if i < m - 1 else 0
            dprime[i] = (rhs[i] - (lower[i - 1] * dprime[i - 1] if i else 0)) / pivot
        x = [mpmath.mpc(0)] * m
        x[-1] = dprime[-1]
        for i in range(m - 2, -1, -1):
            x[i] = dprime[i] - cprime[i] * x[i + 1]
        return np.array([complex(v) for v in x])


class TestMpmathOracle:
    # (benchmark, n, kh): the smallest system, a kh near each end of the
    # kernel-angle path's range (fd keeps it up to kh < 2) and n = 2^10; then
    # fd's root path from its double root at kh = 2 (n a power of two, so
    # that the assembled kh is exactly 2) through roots that all but meet
    # to well separated ones
    CASES = [("sine2", 2, 0.5), ("box", 9, 0.05), ("sine2", 100, 1.0),
             ("box", 100, 1.99), ("sine2", 2**10, 0.25), ("box", 2**10, 1.5),
             ("sine2", 64, 2.0), ("box", 2**10, 2.0), ("sine2", 2**10, 2.0 + 1e-12),
             ("box", 100, 2.01), ("box", 2**10, 2.5), ("sine2", 9, 3.0), ("box", 64, 10.0)]

    @pytest.mark.parametrize("kind", list(SchemeKind), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("name, n, kh", CASES)
    def test_every_path_matches_oracle(self, kind, name, n, kh):
        p, _ = make_benchmark(name, kh * n)
        sys = assemble(p, n, kind)
        x_exact = _mp_solve(sys)
        if sys.theta is None:
            # The root path's sums weigh about min(n, 1/gap) terms of the
            # rhs, gap = 1 - |lambda|; on these cases elimination stays
            # within the same bound.
            bound = 4.0 * EPS * n / max(1.0, (1.0 - abs(sys.root)) * n)
            paths = {"root": solve_tridiagonal}
        else:
            # The stored rows' rounding moves theta by about eps / |sin theta|,
            # which over n steps bounds how far every path may drift.
            bound = 4.0 * EPS * n / abs(math.sin(sys.theta))
            paths = PATHS
        scale = np.max(np.abs(x_exact))
        for path, solve in paths.items():
            err = np.max(np.abs(solve(sys) - x_exact)) / scale
            assert err <= bound, f"{path}: {err:.3e} > {bound:.3e}"


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(list(SchemeKind)),
       name=st.sampled_from(["planewave", "smooth", "box"]),
       n=st.integers(min_value=2, max_value=64),
       kh=st.floats(min_value=0.05, max_value=3.0))
def test_paths_match_dense_solve(dense_matrix, kind, name, n, kh):
    p, _ = make_benchmark(name, kh * n)
    sys = assemble(p, n, kind)
    a = dense_matrix(sys)
    x_dense = np.linalg.solve(a, sys.rhs)
    # forward error of a backward-stable solve: a small multiple of eps * cond(A)
    bound = 8.0 * EPS * np.linalg.cond(a)
    scale = np.max(np.abs(x_dense))
    paths = PATHS if sys.theta is not None else {"root": solve_tridiagonal}
    for path, solve in paths.items():
        err = np.max(np.abs(solve(sys) - x_dense)) / scale
        assert err <= bound, f"{path}: {err:.3e} > {bound:.3e}"


class TestResidual:
    def test_exact_solution_residual(self):
        rng = np.random.default_rng(12)
        sys = _random_system(rng, 40)
        x = solve_tridiagonal(sys)
        scale = np.max(np.abs(sys.rhs))
        assert residual_inf_norm(sys, x) <= 1e-13 * max(scale, 1.0) * 40

    def test_perturbation_scaling(self):
        # perturbing x by eps*e_j moves the residual by |eps| times the
        # column-j coefficient magnitudes
        sys = TridiagonalSystem(Stencil(-1.0, 2.0, 2.0, -1.0, -1.0, 2.0), [0.0], (1.0, 1.0))
        x = solve_tridiagonal(sys)
        eps = 1e-3
        x_pert = x.copy()
        x_pert[1] += eps
        # column 1 touches rows 0..2 with coefficients (-1, 2, -1)
        assert residual_inf_norm(sys, x_pert) == pytest.approx(2.0 * eps, rel=1e-10)

    def test_against_dense_residual(self, dense_matrix):
        rng = np.random.default_rng(13)
        sys = _random_system(rng, 50)
        x = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        dense_res = np.max(np.abs(dense_matrix(sys) @ x - sys.rhs))
        assert residual_inf_norm(sys, x) == pytest.approx(dense_res, rel=1e-12)

    def test_shape_check(self):
        sys = TridiagonalSystem(Stencil(0.0, 1.0, 1.0, 0.0, 0.0, 1.0), np.ones(1), (1.0, 1.0))
        with pytest.raises(ValueError):
            residual_inf_norm(sys, np.ones(4, dtype=complex))
        with pytest.raises(ValueError):
            trisolve.residual(sys, np.ones(4, dtype=complex))


def _random_stencil(rng):
    return Stencil(*(rng.standard_normal(6) + 1j * rng.standard_normal(6)))


class TestStencilSystem:
    @pytest.mark.parametrize("m", [3, 4, 50])
    def test_diagonals_follow_the_stencil(self, m, dense_matrix):
        s = _random_stencil(np.random.default_rng(m))
        sys = TridiagonalSystem(s, np.ones(m - 2), (1.0, 1.0))
        dense = np.zeros((m, m), dtype=complex)
        for i in range(1, m - 1):
            dense[i, i - 1:i + 2] = s.c, s.d, s.c
        dense[0, :2] = s.d0, s.u0
        dense[-1, -2:] = s.ln, s.dn
        assert np.array_equal(dense_matrix(sys), dense)
        for a in (sys.lower, sys.diag, sys.upper):
            assert not a.flags.writeable

    @pytest.mark.parametrize("m", [3, 50])
    def test_coefficient_maxima_match_diagonals(self, m):
        sys = TridiagonalSystem(_random_stencil(np.random.default_rng(m)), np.ones(m - 2),
                                (1.0, 1.0))
        assert sys.max_abs_coefficients() == tuple(float(np.max(np.abs(a)))
                                                   for a in (sys.diag, sys.lower, sys.upper))

    def test_needs_interior_rows(self):
        with pytest.raises(ValueError):
            TridiagonalSystem(Stencil(1, 1, 1, 1, 1, 1), np.ones(0), (1.0, 1.0))

    def test_kernel_angle_validation(self):
        with pytest.raises(ValueError):
            TridiagonalSystem(Stencil(0, 1, 1, 1, 1, 1), np.ones(3), (1.0, 1.0), 0.5)

    def test_holds_what_it_is_built_from(self):
        # a float64 or complex interior is held as given, not copied (assemble
        # passes a view of its sampled array); anything else becomes complex
        s = Stencil(1, 1, 1, 1, 1, 1)
        for a in (np.arange(5.0)[1:-1], np.arange(5.0)[1:-1] + 1j):
            sys = TridiagonalSystem(s, a, (2, 3j))
            assert sys.interior is a and (sys.r0, sys.r_last) == (2, 3j)
            assert sys.rhs.tolist() == [2, *a.tolist(), 3j]
        for a in ([1, 2], np.arange(2), np.ones(2, dtype=np.float32)):
            assert TridiagonalSystem(s, a, (0, 0)).interior.dtype == complex


coefficient_parts = st.floats(min_value=-1e3, max_value=1e3)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(coefficients=st.lists(st.builds(complex, coefficient_parts, coefficient_parts),
                             min_size=6, max_size=6),
       m=st.integers(min_value=3, max_value=2000), seed=st.integers(0, 2**32 - 1))
def test_stencil_residual_matches_diagonals_bitwise(coefficients, m, seed):
    rng = np.random.default_rng(seed)
    rhs, x = (rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(2))
    sys = TridiagonalSystem(Stencil(*coefficients), rhs[1:-1], (rhs[0], rhs[-1]))
    assert trisolve.residual(sys, x).tobytes() == _unblocked_residual(sys, x).tobytes()


def _unblocked_residual(sys, x):
    """A x - b over whole arrays, row i as
    ((diag[i] x[i] - rhs[i]) + lower[i-1] x[i-1]) + upper[i] x[i+1]."""
    r = sys.diag * x - sys.rhs
    r[1:] += sys.lower * x[:-1]
    r[:-1] += sys.upper * x[1:]
    return r


def _unblocked_kernel_solve(sys, correct):
    """The kernel-basis solve over whole (2, m) phase and sum arrays, with
    the operations, operand order and summation order of the streamed one."""
    m = sys.size
    width = math.isqrt(m - 1) + 1
    angles = np.array([[1j], [-1j]]) * (sys.theta * np.arange(width))
    coarse = np.exp(angles[:, :-(-m // width), None] * width)
    phases = (coarse * np.exp(angles[:, None, :])).reshape(2, -1)[:, :m]
    ahead, back = phases
    c, _, d0, u0, ln, dn = sys.stencil
    kappa = 1.0 / (2j * math.sin(sys.theta) * c)
    e1, en1, en = ahead[[1, -2, -1]].tolist()
    m00, m01 = d0 + u0 * e1, d0 + u0 * e1.conjugate()
    m10, m11 = ln * en1 + dn * en, ln * en1.conjugate() + dn * en.conjugate()
    det = m00 * m11 - m01 * m10
    if not abs(det) >= trisolve.PIVOT_REL_TOL * (abs(m00 * m11) + abs(m01 * m10)):
        raise SingularSystem("boundary system")

    def solve(rhs):
        sums = np.empty((2, m), dtype=complex)
        sums[:, :2] = 0.0
        np.multiply(phases[::-1, 1:-1], rhs[1:-1], out=sums[:, 2:])
        np.add.accumulate(sums, axis=1, out=sums)
        sums *= phases
        particular = (sums[0] - sums[1]) * kappa
        p_before_last, p_last = particular[-2:].tolist()
        r0 = complex(rhs[0])
        rn = complex(rhs[-1]) - ln * p_before_last - dn * p_last
        x = np.multiply(ahead, (r0 * m11 - m01 * rn) / det)
        x += np.multiply(back, (m00 * rn - m10 * r0) / det)
        return x + particular

    x = solve(sys.rhs)
    if correct:
        x -= solve(_unblocked_residual(sys, x))
    return x


# The kernel angles kh of the four bpf fine references of the `table` and
# box `convergence` commands: sine2 on 2^18 subintervals at k = 32, 64, 128,
# and box on 3^12 at k = 32.
FINE_REFERENCE_THETAS = [(k / 2**18, 2**18 + 1) for k in (32.0, 64.0, 128.0)] + [
    (32.0 / 3**12, 3**12 + 1)]


def test_conjugate_phases_are_the_phases_of_minus_theta():
    # The kernel solve builds the phases e^{i theta j} only and takes w as
    # their conjugate, which is bitwise the table the two-sign construction
    # builds from -theta, because exp and the complex multiply are
    # conjugate-symmetric. A platform where they are not fails here. Only
    # w_0 differs, 1 - 0j against 1 + 0j: a product with it differs at most
    # in the sign of a zero part.
    rng = np.random.default_rng(29)
    cases = FINE_REFERENCE_THETAS + list(zip(rng.uniform(0.0, math.pi, 1000).tolist(),
                                             rng.integers(3, 20_000, 1000).tolist()))
    for theta, m in cases:
        width = math.isqrt(m - 1) + 1
        rows = -(-m // width)
        angles = 1j * (theta * np.arange(width))
        v = (np.exp(angles[:rows, None] * width) * np.exp(angles)).reshape(-1)[:m]
        angles = np.array([[1j], [-1j]]) * (theta * np.arange(width))
        both = (np.exp(angles[:, :rows, None] * width)
                * np.exp(angles[:, None, :])).reshape(2, -1)[:, :m]
        assert v.tobytes() == both[0].tobytes(), theta
        assert np.conjugate(v[1:]).tobytes() == both[1, 1:].tobytes(), theta
        assert v[0] == both[1, 0] == 1.0


def _block_length(m):
    """Unknowns per block of the streamed solve of m unknowns."""
    width = math.isqrt(m - 1) + 1
    return max(1, trisolve.BLOCK // width) * width


# m that fill their last block or leave a single unknown in it (so x[m-2]
# sits in the block before); most other m end on a partial table row
BLOCK_EDGES = [m for m in range(3, 3 * trisolve.BLOCK) if m % _block_length(m) in (0, 1)]


class TestStreamedSolve:
    def test_block_edges(self):
        blocks = {(-(-m // _block_length(m)), m % _block_length(m)) for m in BLOCK_EDGES}
        assert {(1, 0), (2, 1), (2, 0), (3, 0)} <= blocks

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(m=st.one_of(st.sampled_from(BLOCK_EDGES),
                       st.integers(min_value=3, max_value=64),
                       st.integers(trisolve.BLOCK - 200, trisolve.BLOCK + 200),
                       st.integers(2 * trisolve.BLOCK - 200, 2 * trisolve.BLOCK + 200)),
           theta=st.floats(min_value=1e-3, max_value=3.1),
           correct=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_unblocked_solve_bitwise(self, m, theta, correct, seed):
        rng = np.random.default_rng(seed)
        c = complex(*rng.standard_normal(2))
        ends = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rhs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        sys = TridiagonalSystem(Stencil(c, -2.0 * c * math.cos(theta), *ends), rhs[1:-1],
                                (rhs[0], rhs[-1]), theta)
        x = _kernel_solve(sys, int(correct))
        assert x.tobytes() == _unblocked_kernel_solve(sys, correct).tobytes()
        assert np.array_equal(sys.rhs, rhs)

    @pytest.mark.parametrize("name, k, n", [("sine2", 64.0, 2**18), ("box", 32.0, 3**12),
                                            ("sine2", 2000.0, 2**16)])
    def test_fine_grids_match_unblocked_solve_bitwise(self, name, k, n):
        sys = assemble(make_benchmark(name, k)[0], n, SchemeKind.BPF)
        correct = EPS * n / sys.theta <= trisolve.CORRECTION_MAX_DRIFT
        assert correct == (n == 2**16)
        x = solve_tridiagonal(sys)
        assert x.tobytes() == _unblocked_kernel_solve(sys, correct).tobytes()

    @pytest.mark.parametrize("m", [3, 1000, trisolve.BLOCK, trisolve.BLOCK + 1,
                                   3 * trisolve.BLOCK + 5])
    def test_residual_norm_is_max_over_full_residual(self, m):
        rng = np.random.default_rng(m)
        rhs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        sys = TridiagonalSystem(_random_stencil(rng), rhs[1:-1], (rhs[0], rhs[-1]))
        x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        full = _unblocked_residual(sys, x)
        assert trisolve.residual(sys, x).tobytes() == full.tobytes()
        assert residual_inf_norm(sys, x) == float(np.max(np.abs(full)))

    @pytest.mark.parametrize("m", [9, 10, 17, 21, 181, 1000, 4097])
    @pytest.mark.parametrize("interior", ["real", "complex", "real-but-one"])
    @pytest.mark.parametrize("real_c", [False, True], ids=["complex-c", "real-c"])
    @pytest.mark.parametrize("correct", [False, True], ids=["bare", "corrected"])
    def test_one_block_path_matches_streamed_solve_bitwise(self, monkeypatch, m, interior,
                                                           real_c, correct):
        # The straight-line path of a system that fits one block against the
        # streamed path, which takes that system once BLOCK is smaller than
        # it; the residual and the max-abs reductions as well. A float64
        # interior takes one cumulative sum in the streamed path, the
        # one-block path two; a complex one, and the correction step's
        # residual, take two. At m = 21 the streamed solve's last block
        # holds one unknown. tobytes, not array_equal, which takes -0.0 for
        # +0.0.
        rng = np.random.default_rng([m, len(interior), real_c])
        theta = float(rng.uniform(1e-3, 3.1))
        c = complex(rng.standard_normal()) if real_c else complex(*rng.standard_normal(2))
        ends = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rhs = rng.standard_normal(m)
        if interior == "complex":
            rhs = rhs + 1j * rng.standard_normal(m)
        elif interior == "real-but-one":
            # past the first block of the streamed solve, whose blocks hold
            # 6 and 8 unknowns at m = 9 and 10 and about sqrt(m) from 17 on
            rhs = rhs + 0j
            rhs[m // 2 if m >= 17 else m - 2] += 1j * rng.standard_normal()
        sys = TridiagonalSystem(Stencil(c, -2.0 * c * math.cos(theta), *ends), rhs[1:-1],
                                ends[:2], theta)
        assert sys.interior.dtype == (float if interior == "real" else complex)
        outputs, last_blocks = [], []
        for block in (trisolve.BLOCK, 8):
            monkeypatch.setattr(trisolve, "BLOCK", block)
            last_blocks.append(m % _block_length(m) or _block_length(m))
            x = _kernel_solve(sys, int(correct))
            outputs.append([x.tobytes(), trisolve.residual(sys, x).tobytes(),
                            residual_inf_norm(sys, x), trisolve.max_abs(x)])
        assert last_blocks[0] == m > last_blocks[1] and (last_blocks[1] == 1) == (m == 21)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_real_interior_accumulates_one_sum(self, monkeypatch, dtype):
        # rows of each cumulative sum in a streamed bare solve: one for a
        # float64 interior, two in every block for a complex one, even one
        # whose imaginary parts are all zero
        rows = []

        def accumulate(a, axis, out):
            rows.append(a.shape[0])
            return np.add.accumulate(a, axis=axis, out=out)

        class NumpySpy:
            add = types.SimpleNamespace(accumulate=accumulate)

            def __getattr__(self, name):
                return getattr(np, name)

        m = 3 * trisolve.BLOCK + 5
        rhs = np.random.default_rng(5).standard_normal(m).astype(dtype)
        sys = TridiagonalSystem(Stencil(1.0, -2.0 * math.cos(0.3), 1, 2, 3, 4), rhs[1:-1],
                                (1j, 1j), 0.3)
        monkeypatch.setattr(trisolve, "np", NumpySpy())
        _kernel_solve(sys, 0)
        n_blocks = -(-m // _block_length(m))
        assert n_blocks > 1 and rows == [1 if dtype is float else 2] * n_blocks

    @pytest.mark.parametrize("at", [0, 1, trisolve.BLOCK - 1, trisolve.BLOCK,
                                    2 * trisolve.BLOCK + 7, 3 * trisolve.BLOCK + 4])
    def test_nan_in_any_block_gives_nan_norm(self, at):
        # Python's max keeps or drops a NaN depending on where it stands
        m = 3 * trisolve.BLOCK + 5
        rng = np.random.default_rng(7)
        sys = TridiagonalSystem(_random_stencil(rng), np.ones(m - 2), (1.0, 1.0))
        x = np.ones(m, dtype=complex)
        x[at] = math.nan
        assert math.isnan(residual_inf_norm(sys, x))
        assert math.isnan(trisolve.max_abs(x))
