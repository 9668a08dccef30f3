"""Scheme assembly: one-way fluxes, the three discretizations, identities."""

import cmath
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bpfhelm import grid, schemes, trisolve
from bpfhelm.errors import NearNyquist, NonFiniteSample, SingularParameter, SolveQualityWarning
from bpfhelm.grid import (
    GridFunction,
    make_grid,
    nodal_values,
    norm_l2h,
    sample,
    seminorm_h1h,
)
from bpfhelm.numerics import bernoulli, phase_factor_m, shifted_wavenumber, theta
from bpfhelm.reference import make_benchmark, plane_wave_problem, sine_squared_problem
from bpfhelm.schemes import (
    HelmholtzProblem,
    SchemeKind,
    apply_one_way_composition,
    apply_one_way_minus,
    apply_one_way_plus,
    assemble,
    solve_scheme,
)
from bpfhelm.trisolve import (
    Stencil,
    TridiagonalSystem,
    max_abs,
    residual_inf_norm,
    solve_tridiagonal,
)


def _random_gf(rng, grid):
    return GridFunction(grid, rng.standard_normal(grid.n + 1)
                        + 1j * rng.standard_normal(grid.n + 1))


def _laplacian(v):
    """Oracle: second differences (v_{i+1} - 2 v_i + v_{i-1})/h^2, i = 1..n-1."""
    u = v.values
    return (u[2:] - 2.0 * u[1:-1] + u[:-2]) / v.grid.h**2


class TestOneWayOperators:
    def test_plus_annihilates_outgoing(self, norm_linf):
        k = 7.3
        g = make_grid(1.0, 32)
        v = sample(lambda x: np.exp(1j * k * np.asarray(x)), g)
        assert np.max(np.abs(apply_one_way_plus(v, k))) <= 1e-13 * norm_linf(v) * k

    def test_minus_annihilates_incoming(self, norm_linf):
        k = 7.3
        g = make_grid(1.0, 32)
        v = sample(lambda x: np.exp(-1j * k * np.asarray(x)), g)
        assert np.max(np.abs(apply_one_way_minus(v, k))) <= 1e-13 * norm_linf(v) * k

    def test_constant_gives_minus_ik(self):
        # oracle: (B(is) - B(-is))/h = -is/h = -ik
        k = 4.2
        g = make_grid(1.0, 16)
        v = sample(lambda x: np.ones_like(np.asarray(x)), g)
        assert np.max(np.abs(apply_one_way_plus(v, k) + 1j * k)) <= 1e-13 * k

    def test_index_ranges(self):
        g = make_grid(1.0, 10)
        v = sample(lambda x: np.asarray(x), g)
        assert apply_one_way_plus(v, 1.0).shape == (10,)
        assert apply_one_way_minus(v, 1.0).shape == (10,)

    def test_guards_two_pi_multiples(self):
        g = make_grid(1.0, 4)
        v = sample(lambda x: np.asarray(x), g)
        with pytest.raises(SingularParameter):
            apply_one_way_plus(v, 8.0 * math.pi)  # kh = 2*pi

    def test_factorization_identity(self):
        # D- D+ v == Theta(kh) Delta_h v + k^2 v, relative 1e-12
        rng = np.random.default_rng(21)
        for k, n in ((2.0, 8), (12.5, 24), (32.0, 32)):
            g = make_grid(1.0, n)
            v = _random_gf(rng, g)
            composed = apply_one_way_composition(v, k)
            direct = theta(k * g.h) * _laplacian(v) + k * k * v.values[1:-1]
            defect = math.sqrt(g.h * np.sum(np.abs(composed - direct) ** 2))
            assert defect <= 1e-12 * norm_l2h(v)

    def test_composition_takes_its_weights_once(self, monkeypatch):
        # the composition used to evaluate B(+-ikh) and the theta guard a
        # second time inside apply_one_way_plus: 4 bernoulli and 2 theta calls
        k, g = 12.5, make_grid(1.0, 24)
        v = _random_gf(np.random.default_rng(5), g)
        w = apply_one_way_plus(v, k)
        s = k * g.h
        b_plus, b_minus = bernoulli(1j * s), bernoulli(-1j * s)
        expected = (b_minus * w[1:] - b_plus * w[:-1]) / g.h
        calls = []
        for name in ("bernoulli", "theta"):
            real = getattr(schemes, name)
            monkeypatch.setattr(schemes, name,
                                lambda z, name=name, real=real: calls.append(name) or real(z))
        composed = apply_one_way_composition(v, k)
        assert sorted(calls) == ["bernoulli", "bernoulli", "theta"]
        assert composed.tobytes() == expected.tobytes()


class TestBpfAssembly:
    def test_plane_wave_solution_exact(self):
        k = 2.0**7
        p, exact = plane_wave_problem(k, 2.0, 1.0)
        u_h = solve_scheme(p, 8, SchemeKind.BPF)
        ref = sample(exact.u, u_h.grid)
        assert np.max(np.abs(u_h.values - ref.values)) <= 1e-12

    def test_interior_rows_annihilate_plane_waves(self, interior_rows):
        k = 2.0**5
        p, exact = plane_wave_problem(k, 1.0, 0.0)
        n = 64
        sys = assemble(p, n, SchemeKind.BPF)
        for sign in (1.0, -1.0):
            g = make_grid(1.0, n)
            u = np.exp(sign * 1j * k * g.nodes())
            interior = interior_rows(sys, u)
            assert np.max(np.abs(interior)) <= 1e-12 * np.max(np.abs(sys.diag)) * 1e-3

    def test_nyquist_rejected(self):
        p, _ = plane_wave_problem(math.pi * 8, 1.0, 1.0)
        with pytest.raises(NearNyquist):
            assemble(p, 8, SchemeKind.BPF)  # kh = pi

    def test_zero_interior_diagonal_still_solvable(self):
        # at kh = pi/2, sin^2(kh/2) = 1/2 makes k^2 - 2 Theta/h^2 vanish;
        # elimination survives through fill-in from the boundary row
        n = 16
        k = math.pi / 2.0 * n
        p, exact = plane_wave_problem(k, 2.0, 1.0)
        sys = assemble(p, n, SchemeKind.BPF)
        assert abs(sys.diag[3]) <= 1e-9
        u_h = solve_scheme(p, n, SchemeKind.BPF)
        ref = sample(exact.u, u_h.grid)
        assert np.max(np.abs(u_h.values - ref.values)) <= 1e-12

    def test_boundary_row_equivalence(self):
        # (1/m)(D+ v)_0 == (k/sin kh)(v_1 - e^{ikh} v_0) to 1e-13
        rng = np.random.default_rng(22)
        for k, n in ((2.0, 8), (12.5, 24), (32.0, 48)):
            g = make_grid(1.0, n)
            v = _random_gf(rng, g)
            s = k * g.h
            lhs = apply_one_way_plus(v, k)[0] / phase_factor_m(s)
            rhs = k / math.sin(s) * (v.values[1] - cmath.exp(1j * s) * v.values[0])
            assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))

    def test_boundary_rows_encode_impedance(self):
        k, n = 9.0, 32
        p, exact = plane_wave_problem(k, 0.7 - 0.2j, 1.1 + 0.5j)
        sys = assemble(p, n, SchemeKind.BPF)
        u = sample(exact.u, make_grid(1.0, n)).values
        row0 = sys.diag[0] * u[0] + sys.upper[0] * u[1]
        rown = sys.lower[-1] * u[-2] + sys.diag[-1] * u[-1]
        assert abs(row0 - p.g0) <= 1e-11 * max(abs(p.g0), 1.0)
        assert abs(rown - p.gL) <= 1e-11 * max(abs(p.gL), 1.0)


class TestClassicalAssembly:
    def test_quadratic_exactness(self):
        # u = x(1-x) satisfies u'' + k^2 u = -2 + k^2 x(1-x) and both
        # impedance conditions with g0 = 1 - ik*0, gL = -1
        k = 1e-3
        u_exact = lambda x: np.asarray(x) * (1.0 - np.asarray(x))
        f = lambda x: -2.0 + k * k * u_exact(x)
        p = HelmholtzProblem(k, 1.0, f, g0=1.0 + 0.0j, gL=-1.0 + 0.0j)
        u_h = solve_scheme(p, 16, SchemeKind.CLASSICAL_FD)
        ref = sample(u_exact, u_h.grid)
        assert np.max(np.abs(u_h.values - ref.values)) <= 1e-12

    def test_plane_wave_interior_symbol(self, interior_rows):
        # oracle: interior residual of sampled e^{ikx} is
        # (k^2 - (4/h^2) sin^2(kh/2)) e^{ikx_i}
        k, n = 6.0, 24
        p, _ = plane_wave_problem(k, 1.0, 0.0)
        sys = assemble(p, n, SchemeKind.CLASSICAL_FD)
        g = make_grid(1.0, n)
        x = g.nodes()
        u = np.exp(1j * k * x)
        interior = interior_rows(sys, u)
        symbol = k * k - 4.0 / g.h**2 * math.sin(0.5 * k * g.h) ** 2
        assert np.max(np.abs(interior - symbol * u[1:-1])) <= 1e-10

    def test_ghost_row_coefficients(self):
        # elimination of the ghost node against the centered impedance
        # condition yields diag = k^2 - 2ik/h - 2/h^2, upper = 2/h^2
        k, n = 1.0, 2  # h = 0.5
        p = HelmholtzProblem(k, 1.0, lambda x: np.zeros_like(np.asarray(x)),
                             g0=0.0 + 0.0j, gL=0.0 + 0.0j)
        sys = assemble(p, n, SchemeKind.CLASSICAL_FD)
        h = 0.5
        assert sys.diag[0] == pytest.approx(k * k - 2j * k / h - 2.0 / h**2)
        assert sys.upper[0] == pytest.approx(2.0 / h**2)
        assert sys.rhs[0] == 0.0
        assert sys.diag[-1] == pytest.approx(k * k - 2j * k / h - 2.0 / h**2)
        assert sys.lower[-1] == pytest.approx(2.0 / h**2)

    def test_second_order_on_plane_wave(self):
        k = 8.0
        p, exact = plane_wave_problem(k, 2.0, 1.0)
        errs = []
        for n in (64, 128, 256):
            u_h = solve_scheme(p, n, SchemeKind.CLASSICAL_FD)
            ref = sample(exact.u, u_h.grid)
            errs.append(np.max(np.abs(u_h.values - ref.values)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


class TestDispersionCorrectedAssembly:
    def test_interior_rows_exact_on_outgoing_wave(self, interior_rows):
        # khat^2 cancels the stencil symbol at frequency k
        k, n = 11.0, 32
        p, _ = plane_wave_problem(k, 1.0, 0.0)
        sys = assemble(p, n, SchemeKind.DISPERSION_CORRECTED_FD)
        g = make_grid(1.0, n)
        u = np.exp(1j * k * g.nodes())
        interior = interior_rows(sys, u)
        assert np.max(np.abs(interior)) <= 1e-12 / g.h**2 * 1e-3

    def test_shifted_wavenumber_below_physical(self):
        for k, h in ((10.0, 0.05), (100.0, 0.01), (2.0, 1.0)):
            assert shifted_wavenumber(k, h) < k

    def test_boundary_rows_match_classical(self):
        k, n = 9.0, 32
        p, _ = plane_wave_problem(k, 1.0, 2.0)
        dc = assemble(p, n, SchemeKind.DISPERSION_CORRECTED_FD)
        cl = assemble(p, n, SchemeKind.CLASSICAL_FD)
        assert dc.diag[0] == cl.diag[0] and dc.upper[0] == cl.upper[0]
        assert dc.diag[-1] == cl.diag[-1] and dc.lower[-1] == cl.lower[-1]
        assert dc.rhs[0] == cl.rhs[0] and dc.rhs[-1] == cl.rhs[-1]

    def test_nyquist_rejected(self):
        p, _ = plane_wave_problem(math.pi * 4, 1.0, 1.0)
        with pytest.raises(NearNyquist):
            assemble(p, 4, SchemeKind.DISPERSION_CORRECTED_FD)


class TestHelmholtzProblem:
    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_bad_wavenumber(self, k):
        with pytest.raises(ValueError):
            HelmholtzProblem(k, 1.0, lambda x: np.zeros_like(np.asarray(x)), 0j, 0j)

    @pytest.mark.parametrize("k", [1.35e154, 1e200, 1e308])
    def test_rejects_wavenumber_whose_square_overflows(self, k):
        # assemble's k**2 used to raise OverflowError from inside the solve
        with pytest.raises(ValueError, match="finite and positive"):
            HelmholtzProblem(k, 1.0, lambda x: np.zeros_like(np.asarray(x)), 0j, 0j)
        with pytest.raises(ValueError, match="finite and positive"):
            solve_scheme(plane_wave_problem(k, 2.0, 1.0)[0], 8, SchemeKind.CLASSICAL_FD)

    def test_accepts_largest_wavenumbers_with_a_finite_square(self):
        p = HelmholtzProblem(1.3e154, 1.0, lambda x: np.zeros_like(np.asarray(x)), 0j, 0j)
        assert math.isfinite(p.k * p.k)

    @pytest.mark.parametrize("L", [math.nan, math.inf, 0.0])
    def test_rejects_bad_length(self, L):
        with pytest.raises(ValueError):
            HelmholtzProblem(1.0, L, lambda x: np.zeros_like(np.asarray(x)), 0j, 0j)

    @pytest.mark.parametrize("g0, gL", [(math.nan, 1j), (0j, complex(0.0, math.inf))],
                             ids=["nan-g0", "inf-gL"])
    def test_rejects_non_finite_impedance_data(self, g0, gL):
        # used to construct, and the solve then ran to its end before
        # NonFiniteSample named a NaN grid function
        with pytest.raises(ValueError, match="impedance data must be finite"):
            HelmholtzProblem(8.0, 1.0, lambda x: np.zeros_like(np.asarray(x)), g0, gL)

    def test_plane_wave_with_non_finite_amplitude_rejected(self):
        with pytest.raises(ValueError, match="impedance data must be finite"):
            plane_wave_problem(8.0, math.nan, 1.0)

    @pytest.mark.parametrize("kind", list(SchemeKind))
    def test_non_finite_source_rejected(self, kind):
        p = HelmholtzProblem(4.0, 1.0, lambda x: np.where(np.asarray(x) > 0.5, np.nan, 0.0),
                             0j, 0j)
        with pytest.raises(NonFiniteSample):
            assemble(p, 8, kind)


class TestSolveScheme:
    def test_zero_data_zero_solution(self, norm_linf):
        p = HelmholtzProblem(12.0, 1.0, lambda x: np.zeros_like(np.asarray(x)),
                             0.0 + 0.0j, 0.0 + 0.0j)
        for kind in SchemeKind:
            u_h = solve_scheme(p, 64, kind)
            assert norm_linf(u_h) <= 1e-13

    def test_random_plane_wave_exactness(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 10:
            k = 2.0 ** rng.uniform(1.0, 8.0)
            n = int(rng.integers(8, 1025))
            dist, _ = math.modf(k / n / math.pi)
            if min(dist, 1.0 - dist) < 0.05:
                continue
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            beta = complex(rng.standard_normal(), rng.standard_normal())
            p, exact = plane_wave_problem(k, alpha, beta)
            u_h = solve_scheme(p, n, SchemeKind.BPF)
            ref = sample(exact.u, u_h.grid)
            assert np.max(np.abs(u_h.values - ref.values)) <= 1e-11
            done += 1

    def test_no_quality_warning_on_clean_solves(self):
        p, _ = sine_squared_problem(2.0**5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_scheme(p, 2**12, SchemeKind.BPF)

    def test_quality_warning_fires_above_threshold(self, monkeypatch):
        # no residual is below 0 * scale unless it is exactly 0, so the
        # check must fire on any solve that leaves round-off in A x - b
        monkeypatch.setattr(schemes, "SOLVE_RESIDUAL_TOL", 0.0)
        p, _ = sine_squared_problem(2.0**5)
        with pytest.warns(SolveQualityWarning, match="solve residual"):
            solve_scheme(p, 2**12, SchemeKind.BPF)

    @pytest.mark.parametrize("between", [True, False], ids=["between", "above"])
    def test_quality_warning_compares_against_the_scale(self, monkeypatch, between):
        # the scale is built only for a residual above SOLVE_RESIDUAL_TOL;
        # with the tolerance patched so that TOL < res, the verdict is still
        # res > TOL * scale: silent up to it, a warning above it. Here
        # ||A|| max(|x_0|, |x_n|) + 1 is 1.1e4 of the scale's 1.2e4, so the
        # lower bound alone clears the `between` residual: no max_abs pass.
        p, _ = sine_squared_problem(2.0**5)
        sys = assemble(p, 256, SchemeKind.BPF)
        x = solve_tridiagonal(sys)
        res = residual_inf_norm(sys, x)
        anorm = (np.max(np.abs(sys.diag)) + np.max(np.abs(sys.lower))
                 + np.max(np.abs(sys.upper)))
        scale = float(np.max(np.abs(sys.rhs)) + anorm * np.max(np.abs(x)) + 1.0)
        assert res > 0.0 and scale > 4.0
        tol = res / math.sqrt(scale) if between else 0.5 * res / scale
        assert tol < res and (res <= tol * scale) == between
        monkeypatch.setattr(schemes, "SOLVE_RESIDUAL_TOL", tol)
        scale_passes = []
        monkeypatch.setattr(schemes, "max_abs", lambda a: scale_passes.append(a) or max_abs(a))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_scheme(p, 256, SchemeKind.BPF)
        assert [w.category for w in caught] == ([] if between else [SolveQualityWarning])
        assert len(scale_passes) == (0 if between else 2)

    @pytest.mark.parametrize("error, scale_built, warns", [
        (1e-11, False, False),  # res at or below SOLVE_RESIDUAL_TOL
        (5e-10, False, False),  # TOL < res <= TOL * lower
        (1e-9, True, False),    # TOL * lower < res <= TOL * scale
        (1e-8, True, True),     # TOL * scale < res
    ], ids=["below-tol", "below-lower", "between", "above"])
    def test_quality_check_decisions_on_a_hand_built_system(self, monkeypatch, error,
                                                           scale_built, warns):
        # Rows (1, -2, 1) inside identity boundary rows: ||A|| = 4, and
        # max(|x_0|, |x_n|) = max|x| = 2, so the lower bound 4 * 2 + 1 is 9,
        # while the scale max|b| + 4 * 2 + 1 is 11. b is A x, but for
        # `error` in row 1, which makes res = error.
        x = np.array([2, 1, 2, 1, 0], dtype=complex)
        sys = TridiagonalSystem(Stencil(1, -2, 1, 0, 0, 1), [2 + error, -2, 0], (2, 0))
        assert residual_inf_norm(sys, x) == pytest.approx(error, rel=1e-5)
        scale_passes = []
        monkeypatch.setattr(schemes, "assemble", lambda p, n, kind: sys)
        monkeypatch.setattr(schemes, "solve_tridiagonal", lambda sys: x.copy())
        monkeypatch.setattr(schemes, "max_abs", lambda a: scale_passes.append(a) or max_abs(a))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_scheme(sine_squared_problem(2.0)[0], 4)
        assert len(scale_passes) == 2 * scale_built
        assert [w.category for w in caught] == [SolveQualityWarning] * warns
        if warns:
            assert "exceeds 1e-10 * 1.100e+01" in str(caught[0].message)

    def test_fine_solve_clears_the_lower_bound_without_the_scale(self, monkeypatch):
        # res of a fine reference is above SOLVE_RESIDUAL_TOL (1.7e-6 here)
        # and far below TOL * (||A|| max(|x_0|, |x_n|) + 1): no max_abs pass
        residuals, scale_passes = [], []
        monkeypatch.setattr(schemes, "residual_inf_norm",
                            lambda sys, x: residuals.append(residual_inf_norm(sys, x))
                            or residuals[-1])
        monkeypatch.setattr(schemes, "max_abs", lambda a: scale_passes.append(a) or max_abs(a))
        p, _ = make_benchmark("sine2", 64.0)
        solve_scheme(p, 2**18)
        assert residuals[0] > schemes.SOLVE_RESIDUAL_TOL and scale_passes == []

    def test_flux_energy_relation(self):
        # ||D+ v||^2 + ||D- v||^2 == 2 Theta cos(kh) |v|_1^2 + 2 k^2 ||v||^2
        #                            + k^2 h (|v_0|^2 + |v_n|^2)
        rng = np.random.default_rng(24)
        for k, n in ((2.0, 16), (12.5, 32), (32.0, 64)):
            g = make_grid(1.0, n)
            v = _random_gf(rng, g)
            s = k * g.h
            lhs = g.h * (np.sum(np.abs(apply_one_way_plus(v, k)) ** 2)
                         + np.sum(np.abs(apply_one_way_minus(v, k)) ** 2))
            rhs = (2.0 * theta(s) * math.cos(s) * seminorm_h1h(v) ** 2
                   + 2.0 * k * k * norm_l2h(v) ** 2
                   + k * k * g.h * (abs(v.values[0]) ** 2 + abs(v.values[-1]) ** 2))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_solver_consistency_with_assembly(self):
        p, _ = sine_squared_problem(2.0**5)
        sys = assemble(p, 256, SchemeKind.BPF)
        x = solve_tridiagonal(sys)
        u_h = solve_scheme(p, 256, SchemeKind.BPF)
        assert np.array_equal(x, u_h.values)
        anorm = (np.max(np.abs(sys.diag)) + np.max(np.abs(sys.lower))
                 + np.max(np.abs(sys.upper)))
        scale = np.max(np.abs(sys.rhs)) + anorm * np.max(np.abs(x)) + 1.0
        assert residual_inf_norm(sys, x) <= 1e-10 * scale

    @pytest.mark.parametrize("name, k, n, arrays", [
        ("sine2", 2.0**5, 2**16, 3.5),   # bare kernel path
        ("sine2", 2000.0, 2**16, 5.0),   # corrected kernel path
        ("box", 2.0**5, 3**12, 2.5),     # the box fine reference
    ], ids=["bare", "corrected", "box-fine"])
    def test_peak_memory(self, name, k, n, arrays):
        # peak traced memory in complex arrays of length n + 1: beyond the
        # sampled source, rhs and x, the streamed solve and residual hold
        # only block-sized buffers, and the corrected path one residual
        p, _ = make_benchmark(name, k)
        solve_scheme(p, n, SchemeKind.BPF)
        tracemalloc.start()
        try:
            solve_scheme(p, n, SchemeKind.BPF)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * 16 * (n + 1)

    @pytest.mark.parametrize("name, k, n", [("sine2", 2.0**6, 2**18), ("box", 2.0**5, 3**12)],
                             ids=["sine2-fine", "box-fine"])
    def test_assemble_peak_memory(self, name, k, n):
        # sampling streams block by block into the right-hand side: beyond
        # it, assembly holds one block's temporaries and the finiteness mask
        p, _ = make_benchmark(name, k)
        assemble(p, n, SchemeKind.BPF)
        tracemalloc.start()
        try:
            assemble(p, n, SchemeKind.BPF)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 16 * (n + 1)

    @pytest.mark.parametrize("name, k, n", [("sine2", 2.0**6, 2**18), ("box", 2.0**5, 3**12)],
                             ids=["sine2-fine", "box-fine"])
    @pytest.mark.parametrize("call, arrays", [(assemble, 0.65), (solve_scheme, 1.75)],
                             ids=["assemble", "solve_scheme"])
    def test_real_source_peak_memory(self, name, k, n, call, arrays):
        # peak traced memory in complex arrays of length n + 1: a real
        # source samples to float64, half an array, and no complex
        # right-hand side is ever built; solve_scheme adds x
        p, _ = make_benchmark(name, k)
        call(p, n, SchemeKind.BPF)
        tracemalloc.start()
        try:
            call(p, n, SchemeKind.BPF)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * 16 * (n + 1)

    @pytest.mark.parametrize("kind, n, kh", [
        (SchemeKind.BPF, 181, 1.5),                # one-block kernel path
        (SchemeKind.BPF, 2**14, 2.0**6 / 2**14),   # streamed, one cumulative sum
        (SchemeKind.CLASSICAL_FD, 181, 2.5),       # root path
    ], ids=["one-block", "streamed", "root"])
    def test_real_source_solves_as_its_complex_twin(self, kind, n, kh):
        # a float64 interior enters every product and difference as b + 0j,
        # which is what the twin's complex samples hold
        p, _ = sine_squared_problem(kh * n)
        twin = replace(p, f=lambda x: p.f(x).astype(complex))
        systems = assemble(p, n, kind), assemble(twin, n, kind)
        assert [s.interior.dtype for s in systems] == [float, complex]
        assert systems[0].rhs.tobytes() == systems[1].rhs.tobytes()
        u, u_twin = solve_scheme(p, n, kind), solve_scheme(twin, n, kind)
        assert u.values.tobytes() == u_twin.values.tobytes()

    def test_source_that_turns_complex_on_a_later_block(self, monkeypatch, dense_matrix):
        # blocks of 16 nodes: real on x < 0.5, complex from node 32 on; the
        # samples upcast once, and the streamed solve of the complex
        # interior carries both sums
        monkeypatch.setattr(grid, "BLOCK", 16)
        monkeypatch.setattr(trisolve, "BLOCK", 16)

        def f(x):
            y = np.sin(3.0 * x)
            return y if x[0] < 0.5 else y + 1j * x

        n = 64
        nodes = make_grid(1.0, n).nodes()
        vals = nodal_values(f, make_grid(1.0, n))
        expected = np.concatenate([np.asarray(f(nodes[i:i + 16]), dtype=complex)
                                   for i in range(0, n + 1, 16)])
        assert vals.dtype == complex and vals.tobytes() == expected.tobytes()
        assert not vals[:32].imag.any() and vals[32:].imag.all()
        p = HelmholtzProblem(20.0, 1.0, f, 2.0 + 0.0j, 1j)
        sys = assemble(p, n, SchemeKind.BPF)
        x_dense = np.linalg.solve(dense_matrix(sys), sys.rhs)
        u = solve_scheme(p, n, SchemeKind.BPF).values
        assert np.max(np.abs(u - x_dense)) <= 1e-12 * np.max(np.abs(x_dense))

    @pytest.mark.parametrize("kind", ["bpf", "fd", None, 3])
    def test_rejects_kind_that_is_not_a_scheme_kind(self, kind):
        # every such kind used to be solved as fd-dc, bitwise
        p, _ = sine_squared_problem(8.0)
        with pytest.raises(TypeError, match="SchemeKind"):
            solve_scheme(p, 64, kind)
        with pytest.raises(TypeError, match="SchemeKind"):
            assemble(p, 64, kind)

    @pytest.mark.parametrize("kind", list(SchemeKind))
    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_guard_tolerance(self, kind, tol):
        # kh = pi: with a NaN tolerance the guard used to pass and the solve
        # returned max|u| = 4e5 without a word. The guard distance is the
        # constant GUARD_TOL, and no call takes a tolerance. fd has no
        # Nyquist guard and solves at kh = pi.
        p, _ = make_benchmark("smooth", 64 * math.pi)
        if kind is SchemeKind.CLASSICAL_FD:
            assert np.all(np.isfinite(solve_scheme(p, 64, kind).values))
        else:
            with pytest.raises(NearNyquist):
                solve_scheme(p, 64, kind)
        with pytest.raises(TypeError):
            solve_scheme(p, 64, kind, tol=tol)
        with pytest.raises(TypeError):
            assemble(p, 64, kind, tol)

    def test_moderate_systems_meet_rhs_relative_residual(self):
        # on moderate grids the roundoff floor sits below 1e-10 (||b|| + 1)
        for ke, n in ((5, 2**7), (6, 2**9), (7, 2**10)):
            p, _ = sine_squared_problem(2.0**ke)
            sys = assemble(p, n, SchemeKind.BPF)
            x = solve_tridiagonal(sys)
            bscale = float(np.max(np.abs(sys.rhs))) + 1.0
            assert residual_inf_norm(sys, x) <= 1e-10 * bscale
