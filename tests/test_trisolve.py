"""Tridiagonal solvers (Thomas and LAPACK zgtsv) against hand cases and a
dense-elimination oracle, and the size bound that routes between them."""

import subprocess
import sys

import numpy as np
import pytest

from bpfhelm import trisolve
from bpfhelm.errors import SingularSystem
from bpfhelm.reference import sine_squared_problem
from bpfhelm.schemes import SchemeKind, assemble
from bpfhelm.trisolve import (
    LAPACK_MIN_SIZE,
    TridiagonalSystem,
    residual_inf_norm,
    solve_tridiagonal,
)


def _random_system(rng, m):
    # mild diagonal boost keeps the draw comfortably nonsingular
    lower = rng.standard_normal(m - 1) + 1j * rng.standard_normal(m - 1)
    upper = rng.standard_normal(m - 1) + 1j * rng.standard_normal(m - 1)
    diag = (rng.standard_normal(m) + 1j * rng.standard_normal(m)
            + 3.0 * np.exp(2j * np.pi * rng.uniform(size=m)))
    rhs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return TridiagonalSystem(lower, diag, upper, rhs)


def _with_threshold(helper):
    # the public entry point checks the input once, ahead of either helper
    def solve(sys):
        return helper(sys, trisolve._breakdown_threshold(sys))
    return solve


SOLVERS = pytest.mark.parametrize(
    "solve", [_with_threshold(trisolve._solve_thomas), _with_threshold(trisolve._solve_lapack)],
    ids=["thomas", "lapack"])


class TestSolve:
    def test_identity(self):
        rhs = np.array([1.0 + 2j, -3.0, 0.5j])
        sys = TridiagonalSystem(np.zeros(2), np.ones(3), np.zeros(2), rhs)
        assert np.array_equal(solve_tridiagonal(sys), rhs)

    def test_three_by_three(self):
        # oracle: hand elimination of diag(2) with -1 off-diagonals, rhs (1,0,1)
        sys = TridiagonalSystem([-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0], [1.0, 0.0, 1.0])
        assert np.allclose(solve_tridiagonal(sys), [1.0, 1.0, 1.0], atol=1e-14)

    @SOLVERS
    def test_zero_diagonal_breaks(self, solve):
        # an exactly zero pivot, and one below PIVOT_REL_TOL times the scale
        for pivot in (0.0, 1e-20):
            sys = TridiagonalSystem([0.0], [pivot, 1.0], [0.0], [1.0, 1.0])
            with pytest.raises(SingularSystem):
                solve(sys)

    @SOLVERS
    def test_all_zero_matrix(self, solve):
        sys = TridiagonalSystem([0.0], [0.0, 0.0], [0.0], [1.0, 1.0])
        with pytest.raises(SingularSystem):
            solve(sys)

    @SOLVERS
    def test_matches_dense_oracle(self, solve):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = int(rng.integers(2, 65))
            sys = _random_system(rng, m)
            x = solve(sys)
            x_dense = np.linalg.solve(sys.dense(), sys.rhs)
            scale = np.max(np.abs(x_dense))
            assert np.max(np.abs(x - x_dense)) <= 1e-11 * scale

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            TridiagonalSystem(np.zeros(3), np.ones(3), np.zeros(2), np.ones(3))


class TestSizeRouting:
    def test_bound_goes_to_lapack(self, monkeypatch):
        p, _ = sine_squared_problem(2.0**5)
        sys = assemble(p, LAPACK_MIN_SIZE - 1, SchemeKind.BPF)
        assert sys.size == LAPACK_MIN_SIZE
        breakdown = trisolve._breakdown_threshold(sys)
        x_thomas = trisolve._solve_thomas(sys, breakdown)
        routed = []
        lapack = trisolve._solve_lapack

        def spy(s, b):
            routed.append(s)
            return lapack(s, b)

        monkeypatch.setattr(trisolve, "_solve_lapack", spy)
        coefficients = [a.copy() for a in (sys.lower, sys.diag, sys.upper, sys.rhs)]
        x = solve_tridiagonal(sys)
        assert len(routed) == 1 and routed[0] is sys
        for before, after in zip(coefficients, (sys.lower, sys.diag, sys.upper, sys.rhs)):
            assert np.array_equal(before, after)
        scale = np.max(np.abs(x_thomas))
        assert np.max(np.abs(x - x_thomas)) <= 1e-9 * scale
        assert residual_inf_norm(sys, x) <= residual_inf_norm(sys, x_thomas)

    def test_small_solves_do_not_import_scipy(self, child_env):
        code = ("import sys\n"
                "import bpfhelm\n"
                "from bpfhelm.reference import sine_squared_problem\n"
                "from bpfhelm.schemes import solve_scheme\n"
                "solve_scheme(sine_squared_problem(32.0)[0], 4096)\n"
                "assert 'scipy.linalg' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=child_env)
        assert proc.returncode == 0, proc.stderr


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
        sys = TridiagonalSystem([-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0],
                                [1.0, 0.0, 1.0])
        x = solve_tridiagonal(sys)
        eps = 1e-3
        x_pert = x.copy()
        x_pert[1] += eps
        # column 1 touches rows 0..2 with coefficients (-1, 2, -1)
        assert residual_inf_norm(sys, x_pert) == pytest.approx(2.0 * eps, rel=1e-10)

    def test_against_dense_residual(self):
        rng = np.random.default_rng(13)
        sys = _random_system(rng, 50)
        x = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        dense_res = np.max(np.abs(sys.dense() @ x - sys.rhs))
        assert residual_inf_norm(sys, x) == pytest.approx(dense_res, rel=1e-12)

    def test_shape_check(self):
        sys = TridiagonalSystem([0.0], [1.0, 1.0], [0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            residual_inf_norm(sys, np.ones(3, dtype=complex))
