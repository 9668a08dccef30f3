"""Verification layer: residuals, multipliers, bounds, convergence studies."""

import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from bpfhelm import analysis, numerics, schemes
from bpfhelm.analysis import (
    CheckResult,
    boundary_multiplier,
    boundary_multiplier_bound,
    consistency_residuals,
    convergence_study,
    energy_identity_mismatch,
    error_report,
    fit_rate,
    flux_estimate_check,
    interior_multiplier,
    interior_multiplier_bound,
    l2_norm_quad,
    residual_report,
    stability_bound_check,
    verify_identities,
    verify_multipliers,
    verify_residuals,
    verify_stability,
)
from bpfhelm.errors import (
    InvalidGrid,
    NearNyquist,
    NearResonantFrequency,
    NonNestedGrids,
    NumericalGuardError,
)
from bpfhelm.grid import GridFunction, make_grid, norm_l2h, sample, seminorm_h1h
from bpfhelm.numerics import stability_constant_a0, theta
from bpfhelm.reference import (
    BENCHMARKS,
    ExactSolution,
    make_benchmark,
    plane_wave_problem,
    sine_squared_problem,
    smooth_manufactured_problem,
    smooth_source_derivatives,
)
from bpfhelm.schemes import HelmholtzProblem, SchemeKind, assemble, solve_scheme
from bpfhelm.trisolve import TridiagonalSystem, residual_inf_norm

EPS = float(np.finfo(float).eps)


def _tau_oracle(form, k, grid):
    """The paper's interior residual tau_i = Theta(kh) (Delta_h u)(x_i) - u''(x_i)
    of a ClosedForm."""
    u = sample(form.u, grid).values
    lap = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / grid.h**2
    return theta(k * grid.h) * lap - form.u_doubleprime(grid.nodes()[1:-1])


def _beta_oracle(form, k, h, L):
    """The paper's closure residuals of a ClosedForm,
    beta0 = k/sin(kh) (u(h) - e^{ikh} u(0)) - (u'(0) - ik u(0)) and its mirror at L."""
    bfac, phase = k / math.sin(k * h), cmath.exp(1j * k * h)
    u0, uh, uLh, uL = (complex(form.u(x)) for x in (0.0, h, L - h, L))
    return (bfac * (uh - phase * u0) - (complex(form.u_prime(0.0)) - 1j * k * u0),
            bfac * (phase * uL - uLh) - (complex(form.u_prime(L)) + 1j * k * uL))


def _tau_norm(tau, grid):
    return math.sqrt(grid.h * np.sum(np.abs(tau) ** 2))


class TestInteriorResidual:
    def test_plane_wave_residual_vanishes(self):
        k = 2.0**6
        p, exact = plane_wave_problem(k, 2.0, 1.0)
        tau, _, _ = consistency_residuals(p, exact, 128)
        assert _tau_norm(tau, make_grid(1.0, 128)) <= 1e-12 * k * k

    def test_quadratic_low_wavenumber(self):
        # tau_i = Theta(kh)*2 - 2 exactly for u = x^2
        k = 0.5
        exact = ExactSolution(u=lambda x: np.asarray(x) ** 2)
        p = HelmholtzProblem(k, 1.0, lambda x: 2.0 + k * k * np.asarray(x) ** 2,
                             0j, 2.0 + 1j * k)
        tau, _, _ = consistency_residuals(p, exact, 16)
        expected = 2.0 * (theta(k / 16) - 1.0)
        assert np.max(np.abs(tau - expected)) <= 1e-13

    def test_smooth_benchmark_within_bound(self):
        k = 2.0**5
        p, exact = smooth_manufactured_problem(k)
        grid = make_grid(1.0, 3**7)
        tau, _, _ = consistency_residuals(p, exact, grid.n)
        _, _, fppp = smooth_source_derivatives(k)
        bound = 1.0 * theta(k * grid.h) * grid.h**2 / 12.0 * l2_norm_quad(fppp, 1.0)
        assert _tau_norm(tau, grid) <= bound

    def test_nyquist_guard(self):
        p, exact = plane_wave_problem(math.pi * 16, 1.0, 0.0)
        with pytest.raises(NearNyquist):
            consistency_residuals(p, exact, 16)


class TestBoundaryResiduals:
    def test_plane_wave_residuals_vanish(self):
        k = 2.0**6
        p, exact = plane_wave_problem(k, 2.0, 1.0)
        _, b0, bL = consistency_residuals(p, exact, 128)
        assert abs(b0) + abs(bL) <= 1e-12 * k

    def test_constant_solution_oracle(self):
        # oracle: direct evaluation of the closure formula at u == c
        k, n = 3.0, 8
        c = 1.7 - 0.4j
        exact = ExactSolution(
            u=lambda x: np.full_like(np.asarray(x, dtype=float), c, dtype=complex))
        p = HelmholtzProblem(
            k, 1.0, lambda x: np.full_like(np.asarray(x, dtype=float), k * k * c, dtype=complex),
            -1j * k * c, 1j * k * c)
        _, b0, bL = consistency_residuals(p, exact, n)
        s = k / n
        expected0 = c * (k / math.sin(s)) * (1.0 - np.exp(1j * s)) + 1j * k * c
        expectedL = c * (k / math.sin(s)) * (np.exp(1j * s) - 1.0) - 1j * k * c
        assert abs(b0 - expected0) <= 1e-13 * k * abs(c)
        assert abs(bL - expectedL) <= 1e-13 * k * abs(c)

    def test_smooth_benchmark_within_bound(self):
        k = 2.0**5
        p, exact = smooth_manufactured_problem(k)
        n = 3**7
        h = 1.0 / n
        _, b0, bL = consistency_residuals(p, exact, n)
        _, fpp, _ = smooth_source_derivatives(k)
        th = theta(k * h)
        bound = (2.0 * math.sqrt(th) * abs(1.0 / math.cos(0.5 * k * h))
                 * h**2 / 6.0 * l2_norm_quad(fpp, 1.0))
        assert abs(b0) + abs(bL) <= bound


class TestConsistencyResiduals:
    @pytest.mark.parametrize("name, k, n", [("planewave", 2.0**6, 24), ("planewave", 2.0**6, 128),
                                            ("planewave", 2.0**8, 3**5), ("smooth", 2.0**5, 3**7),
                                            ("smooth", 2.0**8, 3**5), ("smooth", 2.0**4, 3**8)])
    def test_matches_paper_formulas(self, closed_forms, name, k, n, norm_linf):
        # The assembled rows and the paper's formulas round differently; each
        # side is a sum of a few terms no larger than the row's coefficients
        # times max|u| (or the data), so they agree to 16 eps of that scale.
        p, exact = make_benchmark(name, k)
        grid = make_grid(p.L, n)
        tau, b0, bL = consistency_residuals(p, exact, n)
        u_max = norm_linf(sample(exact.u, grid))
        f_max = norm_linf(sample(p.f, grid))
        th = theta(k * grid.h)
        interior = 16.0 * EPS * ((4.0 * th / grid.h**2 + k * k) * u_max + f_max)
        form = closed_forms[name](k)
        assert np.max(np.abs(tau - _tau_oracle(form, k, grid))) <= interior
        closure = 16.0 * EPS * ((2.0 * k / math.sin(k * grid.h) + k) * u_max
                                + abs(p.g0) + abs(p.gL))
        ob0, obL = _beta_oracle(form, k, grid.h, p.L)
        assert abs(b0 - ob0) <= closure
        assert abs(bL - obL) <= closure


class TestChecksReadAssembledRows:
    @pytest.mark.parametrize("field, factor", [("u0", 1.0 + 1e-6), ("c", 1.0 + 1e-9)])
    def test_perturbed_stencil_fails_checks(self, monkeypatch, field, factor):
        # The identity and residual suites read the BPF rows from assemble,
        # so a wrong row there must fail them.
        def perturbed(p, n, kind):
            sys = assemble(p, n, kind)
            stencil = sys.stencil._replace(**{field: getattr(sys.stencil, field) * factor})
            return TridiagonalSystem(stencil, sys.interior, (sys.r0, sys.r_last), sys.theta)

        monkeypatch.setattr(analysis, "assemble", perturbed)
        failed = {c.name for c in verify_identities(0) if not c.passed}
        assert failed & {"boundary_rewrite", "factorization_three_point"}
        failed = [c.name for c in verify_residuals() if not c.passed]
        assert any(name.startswith(("tau_", "beta_")) for name in failed)

    def test_scaled_energy_fails_the_flux_relation(self, monkeypatch):
        # The identity suite's flux-energy relation and the stability suite's
        # flux and auxiliary bounds read one routine, so an energy off by
        # 1e-9 there must fail the relation and reach the auxiliary bound.
        original = analysis._flux_and_energy

        def scaled(v, k):
            th, flux, energy = original(v, k)
            return th, flux, energy * (1.0 + 1e-9)

        p, _ = sine_squared_problem(2.0**5)
        p = replace(p, g0=0.0 + 0.0j, gL=0.0 + 0.0j)
        u_h = solve_scheme(p, 2**8, SchemeKind.BPF)
        aux = flux_estimate_check(p, u_h)[1].value
        monkeypatch.setattr(analysis, "_flux_and_energy", scaled)
        failed = [c.name for c in verify_identities(0) if not c.passed]
        assert failed == ["flux_energy_relation"]
        assert flux_estimate_check(p, u_h)[1].value == aux * (1.0 + 1e-9)


class TestResidualReport:
    def test_bounds_hold_on_sweep_sample(self):
        k = 2.0**6
        p, exact = smooth_manufactured_problem(k)
        _, fpp, fppp = smooth_source_derivatives(k)
        tau, beta = residual_report(p, exact, 3**6, fpp, fppp)
        assert (tau.name, beta.name) == ("tau", "beta")
        assert tau.value <= tau.bound
        assert beta.value <= beta.bound

    # Derandomized so the suite draws the same cells on every run. kh spans
    # the principal range (0, pi), with draws 1e-8 to 1e-1 below pi, where
    # the bound's sec(kh/2) grows; verify residuals stops at kh = 256/243.
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(n=st.integers(min_value=2, max_value=6561),
           kh=st.one_of(st.floats(min_value=0.0, max_value=math.pi,
                                  exclude_min=True, exclude_max=True),
                        st.floats(min_value=1e-8, max_value=1e-1).map(lambda d: math.pi - d)))
    def test_bounds_hold_over_the_principal_range(self, n, kh):
        k = kh * n
        if k < math.pi:  # kL >= pi, as the paper's range asks
            reject()
        p, exact = smooth_manufactured_problem(k)
        _, fpp, fppp = smooth_source_derivatives(k)
        try:
            checks = residual_report(p, exact, n, fpp, fppp)
        except NearNyquist:
            reject()
        for c in checks:
            assert analysis._ratio(c.value, c.bound) <= 1.0, (c.name, k, n)


class TestInteriorMultiplier:
    def test_small_frequency_series_oracle(self):
        # oracle: M(xi) ~ xi^2 (Theta(1 - (xi h)^2/12 + (xi h)^4/360) - 1)/(xi^2-k^2)
        k, h = 8.0, 0.25  # kh = 2
        th = theta(k * h)
        for xi in (1e-3 * k, 1e-2 * k):
            a = xi * h
            series_num = xi * xi * (th * (1.0 - a * a / 12.0 + a**4 / 360.0) - 1.0)
            expected = series_num / (xi * xi - k * k)
            assert interior_multiplier(xi, h, k) == pytest.approx(expected, rel=1e-8)

    def test_full_period_frequency(self):
        # sin(xi h / 2) = 0 at xi = 2 pi / h, so M = -xi^2/(xi^2 - k^2)
        k, h = 5.0, 0.125
        xi = 2.0 * math.pi / h
        expected = -xi * xi / (xi * xi - k * k)
        assert interior_multiplier(xi, h, k) == pytest.approx(expected, rel=1e-12)

    def test_bound_on_log_grid(self):
        k, h, L = 2.0**5, 2.0**-7, 1.0
        xi_grid = np.logspace(math.log10(math.pi / L), math.log10(1e3 * k), 1000)
        xi_grid = xi_grid[np.abs(xi_grid * xi_grid - k * k) > 1e-12 * k * k]
        values = interior_multiplier(xi_grid, h, k)
        assert np.all(np.abs(values) <= interior_multiplier_bound(xi_grid, h, k) * (1.0 + 1e-10))

    def test_resonance_guard(self):
        with pytest.raises(NearResonantFrequency):
            interior_multiplier(5.0, 0.1, 5.0)

    def test_resonance_guard_on_any_element(self):
        with pytest.raises(NearResonantFrequency, match="k = 5.0"):
            interior_multiplier(np.array([1.0, 2.0, 5.0, 9.0]), 0.1, 5.0)

    def test_array_matches_scalar_calls_bitwise(self):
        k, h = 37.3, 0.05
        xi = np.logspace(0.0, 4.0, 2000)
        for fn in (interior_multiplier, interior_multiplier_bound):
            values = fn(xi, h, k)
            assert values.shape == xi.shape
            assert np.array_equal(values, [fn(float(x), h, k) for x in xi])

    def test_bound_formula(self):
        k, h = 4.0, 0.1
        assert interior_multiplier_bound(2.0, h, k) == pytest.approx(
            theta(k * h) * h * h * 4.0 / 12.0)


class TestBoundaryMultiplier:
    def test_series_branch_matches_direct_limit(self):
        # oracle: approach xi -> k from outside the series window
        k, h, L = 12.0, 0.01, 1.0
        at_k = boundary_multiplier(k, h, k, L)
        deltas = [0.5, 0.25, 0.125]
        vals = [0.5 * (boundary_multiplier(k + d, h, k, L)
                       + boundary_multiplier(k - d, h, k, L)) for d in deltas]
        # symmetric averages converge quadratically to the removable value
        err = [abs(v - at_k) for v in vals]
        assert err[2] <= err[0]
        assert err[2] <= 5e-7

    def test_sine_zero_frequency(self):
        # oracle: sin(xi h) = 0 kills the first numerator term
        k, h, L = 5.0, 0.125, 1.0
        xi = 2.0 * math.pi / h
        expected = math.sqrt(2.0 / L) * (-xi) / (xi * xi - k * k)
        assert boundary_multiplier(xi, h, k, L) == pytest.approx(expected, rel=1e-12)

    def test_bound_on_log_grid(self):
        k, h, L = 2.0**6, 2.0**-8, 1.0
        xi_grid = np.logspace(math.log10(math.pi / L), math.log10(1e3 * k), 1000)
        values = boundary_multiplier(xi_grid, h, k, L)
        assert np.all(np.abs(values)
                      <= boundary_multiplier_bound(xi_grid, h, k, L) * (1.0 + 1e-10))

    @pytest.mark.parametrize("k", [37.3, 4.1])  # kh 1.9, 0.2: both _sinc_sqrt_derivative branches
    def test_array_matches_scalar_calls_bitwise(self, k):
        h, L = 0.05, 2.0
        xi = np.concatenate([np.logspace(0.0, 4.0, 2000), k + np.linspace(-3e-3, 3e-3, 601)])
        for fn in (boundary_multiplier, boundary_multiplier_bound):
            values = fn(xi, h, k, L)
            assert values.shape == xi.shape
            assert np.array_equal(values, [fn(float(x), h, k, L) for x in xi])

    def test_array_across_removable_point_takes_series_branch(self):
        # elements with |xi - k| h < 1e-4, xi = k exactly among them, take the
        # series branch; the quotient they skip would be 0/0 at xi = k, and a
        # RuntimeWarning is an error in this suite
        k, h, L = 12.0, 0.01, 1.0
        xi = np.append(k + np.linspace(-2e-2, 2e-2, 41), k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = boundary_multiplier(xi, h, k, L)
        assert np.all(np.isfinite(values))
        near = np.abs(xi - k) * h < 1e-4
        assert 3 <= np.count_nonzero(near) < xi.size
        assert values[-1] == boundary_multiplier(k, h, k, L)
        # oracle: the difference quotient itself, away from xi = k, where its
        # cancellation costs about 1e-10 relative
        off = xi != k
        quotient = (math.sqrt(2.0 / L) * ((k / math.sin(k * h)) * np.sin(xi[off] * h) - xi[off])
                    / (xi[off] ** 2 - k * k))
        assert np.max(np.abs(values[off] - quotient)) <= 1e-8 * np.max(np.abs(quotient))

    def test_bound_formula(self):
        k, h, L = 4.0, 0.1, 1.0
        expected = (math.sqrt(2.0 * theta(k * h) / L) * 3.0 * h * h / 6.0
                    * abs(1.0 / math.cos(0.5 * k * h)))
        assert boundary_multiplier_bound(3.0, h, k, L) == pytest.approx(expected)


class TestStabilityChecks:
    def test_zero_problem(self):
        p, _ = plane_wave_problem(4.0, 0.0, 0.0)
        u_h = solve_scheme(p, 64, SchemeKind.BPF)
        l2, h1 = stability_bound_check(p, u_h)
        assert l2.value <= l2.bound * (1.0 + 1e-12) and h1.value <= h1.bound * (1.0 + 1e-12)
        assert l2.value == 0.0 and l2.bound == 0.0

    def test_plane_wave_lifting_bound(self):
        # with f == 0 the bound reduces to sqrt(L)/2 (|g0| + |gL|)
        k = 2.0**6
        p, _ = plane_wave_problem(k, 2.0, 1.0)
        u_h = solve_scheme(p, 2**8, SchemeKind.BPF)
        l2, h1 = stability_bound_check(p, u_h)
        assert l2.bound == h1.bound == pytest.approx(0.5 * (abs(p.g0) + abs(p.gL)))
        assert l2.value <= l2.bound * (1.0 + 1e-12) and h1.value <= h1.bound * (1.0 + 1e-12)

    # ROADMAP item 1: next to the Nyquist guard the h1 bound is sharp for a
    # plane wave, so the solve's drift there decides the verdict. The
    # sampled plane wave meets the bound: mpmath gives 1 - 2.7e-11 and
    # 1 - 3.2e-10 at these cells.
    @pytest.mark.xfail(raises=AssertionError,
                       reason="the near-pi solve drift puts h1 at 1 + 2.6e-11 and 1 + 3.0e-11")
    @pytest.mark.parametrize("k, n", [(1256.6370478321162, 400), (3141.5926069720977, 1000)],
                             ids=["n400", "n1000"])
    def test_plane_wave_bounds_hold_next_to_the_nyquist_guard(self, k, n):
        p, _ = make_benchmark("planewave", k)
        for c in stability_bound_check(p, solve_scheme(p, n, SchemeKind.BPF)):
            assert analysis._ratio(c.value, c.bound) <= 1.0 + 1e-12, c.name

    # The stability half of TestResidualReport's principal-range test,
    # derandomized as that one is: every benchmark, kL >= pi, and kh up to
    # 3.1, where verify stability stops at kh = 2. The strip next to pi
    # waits for ROADMAP item 1 (see the test above). The flux and auxiliary
    # bounds are checked on the homogeneous-data problem, as verify_stability
    # builds it.
    @settings(max_examples=500, deadline=None, database=None, derandomize=True)
    @given(bench=st.sampled_from(sorted(BENCHMARKS)), n=st.integers(min_value=8, max_value=2048),
           kh=st.floats(min_value=0.0, max_value=3.1, exclude_min=True))
    def test_bounds_hold_up_to_kh_3_1(self, bench, n, kh):
        k = kh * n
        if k < math.pi:  # kL >= pi, as the paper's range asks
            reject()
        try:
            p, _ = make_benchmark(bench, k)
            p_hom = replace(p, g0=0.0 + 0.0j, gL=0.0 + 0.0j)
            checks = (*stability_bound_check(p, solve_scheme(p, n, SchemeKind.BPF)),
                      *flux_estimate_check(p_hom, solve_scheme(p_hom, n, SchemeKind.BPF)))
        except NumericalGuardError:  # a guard or a resonant source
            reject()
        for c in checks:
            assert analysis._ratio(c.value, c.bound) <= 1.0 + 1e-12, (bench, c.name, k, n)

    def test_benchmark_sweep_sample(self):
        for name_k in ((2.0**5), (2.0**7)):
            p, _ = sine_squared_problem(name_k)
            u_h = solve_scheme(p, 2**9, SchemeKind.BPF)
            l2, h1 = stability_bound_check(p, u_h)
            assert (l2.name, h1.name) == ("l2", "h1")
            assert l2.value <= l2.bound * (1.0 + 1e-12) and h1.value <= h1.bound * (1.0 + 1e-12)

    def test_flux_estimate_homogeneous(self):
        k = 2.0**5
        p, _ = sine_squared_problem(k)
        p = replace(p, g0=0.0 + 0.0j, gL=0.0 + 0.0j)
        u_h = solve_scheme(p, 2**8, SchemeKind.BPF)
        flux, aux = flux_estimate_check(p, u_h)
        assert (flux.name, aux.name) == ("flux", "aux")
        assert aux.value <= aux.bound * (1.0 + 1e-12)
        assert flux.value <= flux.bound

    def test_flux_estimate_rejects_inhomogeneous(self):
        p, _ = sine_squared_problem(2.0**5)
        u_h = solve_scheme(p, 64, SchemeKind.BPF)
        with pytest.raises(ValueError):
            flux_estimate_check(p, u_h)

    def test_energy_identity_on_solution(self):
        k = 2.0**5
        p, _ = sine_squared_problem(k)
        p = replace(p, g0=0.0 + 0.0j, gL=0.0 + 0.0j)
        u_h = solve_scheme(p, 2**8, SchemeKind.BPF)
        assert energy_identity_mismatch(p, u_h) <= 1e-10

    def test_energy_identity_overflow_is_not_a_perfect_identity(self):
        # at 1e160 the squared norms overflow and lhs is inf - inf = NaN,
        # which must read as a failed identity, not as a mismatch of 0
        p, _ = sine_squared_problem(2.0**5)
        p = replace(p, g0=0.0 + 0.0j, gL=0.0 + 0.0j)
        v = np.random.default_rng(0).standard_normal(2**8 + 1) + 0j
        with np.errstate(over="ignore", invalid="ignore"):
            mismatch = energy_identity_mismatch(p, GridFunction(make_grid(p.L, 2**8), 1e160 * v))
        assert mismatch == math.inf

    def test_energy_identity_requires_homogeneous_data(self):
        p, _ = sine_squared_problem(2.0**5)
        u_h = solve_scheme(p, 64, SchemeKind.BPF)
        with pytest.raises(ValueError):
            energy_identity_mismatch(p, u_h)


class TestErrorEquation:
    def test_grid_error_satisfies_residual_system(self, closed_forms):
        # e = u_h - u satisfies the same tridiagonal rows with data
        # (-tau, -beta0, -betaL); the sign follows from the orientation
        # Theta Delta_h u + k^2 u = f paired with the explicit residual
        # tau = Theta Delta_h u - u''
        k = 2.0**5
        n = 3**6
        p, exact = smooth_manufactured_problem(k)
        u_h = solve_scheme(p, n, SchemeKind.BPF)
        ref = sample(exact.u, u_h.grid)
        e = u_h.values - ref.values
        form = closed_forms["smooth"](k)
        tau = _tau_oracle(form, k, u_h.grid)
        b0, bL = _beta_oracle(form, k, u_h.grid.h, 1.0)
        sys = TridiagonalSystem(assemble(p, n, SchemeKind.BPF).stencil, -tau, (-b0, -bL))
        scale = float(np.max(np.abs(sys.rhs))) + 1.0
        assert residual_inf_norm(sys, e) <= 1e-9 * scale


class TestConvergenceStudy:
    def test_smooth_rates(self):
        tab = convergence_study("smooth", SchemeKind.BPF, 2.0**5,
                                [3**e for e in range(5, 9)])
        assert 1.9 <= tab.rates["v"] <= 2.1
        assert 1.9 <= tab.rates["linf"] <= 2.1
        hs = [row.h for row in tab.rows]
        assert all(b < a for a, b in zip(hs, hs[1:]))

    def test_plane_wave_floored(self):
        tab = convergence_study("planewave", SchemeKind.BPF, 2.0**5, [8, 16, 32])
        assert "linf" not in tab.rates and "v" not in tab.rates
        assert all(row.errors.rel_linf <= 1e-11 for row in tab.rows)

    def test_fine_reference_mode(self):
        from bpfhelm.reference import clear_reference_cache
        clear_reference_cache()
        tab = convergence_study("box", SchemeKind.BPF, 2.0**5, [27, 81], n_ref=3**7)
        assert len(tab.rows) == 2
        assert tab.rows[0].errors.rel_v > tab.rows[1].errors.rel_v

    def test_validation(self):
        with pytest.raises(InvalidGrid):
            convergence_study("smooth", SchemeKind.BPF, 4.0, [])
        with pytest.raises(InvalidGrid):
            convergence_study("smooth", SchemeKind.BPF, 4.0, [16, 8])
        with pytest.raises(NonNestedGrids):
            convergence_study("box", SchemeKind.BPF, 4.0, [8, 16], n_ref=81)  # not nested
        with pytest.raises(InvalidGrid):
            convergence_study("smooth", SchemeKind.BPF, 4.0, [8, 16], n_ref=64)

    @pytest.mark.parametrize("n_list", [[8.5, 16.9], [8, float("nan")], [8, 16, 1.0]])
    def test_bad_count_raises_invalid_grid_before_any_solve(self, monkeypatch, n_list):
        # int(n) used to solve n = 8 and 16 for 8.5 and 16.9, and a NaN count
        # raised a bare ValueError from int
        def spy(*args):
            raise AssertionError("solve_scheme called")

        monkeypatch.setattr(analysis, "solve_scheme", spy)
        with pytest.raises(InvalidGrid):
            convergence_study("smooth", SchemeKind.BPF, 32.0, n_list)

    @pytest.mark.parametrize("name, n_list", [("smooth", [16]), ("box", [27])])
    def test_single_count_raises_before_any_solve(self, monkeypatch, name, n_list):
        # one mesh used to be solved before fit_rate rejected it
        calls = []
        monkeypatch.setattr(analysis, "solve_scheme", lambda *args: calls.append(args))
        monkeypatch.setattr(analysis, "fine_grid_reference", lambda *args: calls.append(args))
        with pytest.raises(InvalidGrid, match="at least two"):
            convergence_study(name, SchemeKind.BPF, 32.0, n_list)
        assert calls == []

    @pytest.mark.parametrize("n_list", [[16], [16, 16], [32, 16]])
    def test_count_list_checked_before_the_benchmark_is_built(self, monkeypatch, n_list):
        # a bad list is a usage error even where the benchmark's guards
        # would reject k, as the CLI has always reported it
        def guarded(*args):
            raise NearNyquist("kh near pi")

        monkeypatch.setattr(analysis, "make_benchmark", guarded)
        with pytest.raises(InvalidGrid, match="at least two"):
            convergence_study("smooth", SchemeKind.BPF, 32.0, n_list)

    def test_whole_float_counts_accepted(self):
        tab = convergence_study("smooth", SchemeKind.BPF, 32.0, [16.0, 32.0])
        assert [row.n for row in tab.rows] == [16, 32]
        assert all(type(row.n) is int for row in tab.rows)

    @pytest.mark.parametrize("name", ["planewave", "smooth", "sine2"])
    def test_n_ref_rejected_for_closed_form(self, name):
        # the closed form is the reference; a fine resolution would be ignored
        with pytest.raises(InvalidGrid, match="closed form"):
            convergence_study(name, SchemeKind.BPF, 4.0, [8, 16], n_ref=64)

    @pytest.mark.parametrize("name", ["smooth", "box"])
    def test_rejects_kind_that_is_not_a_scheme_kind(self, name):
        # "bpf" used to run as fd-dc and report fd-dc rates; box takes the
        # fine-reference path, smooth its closed form
        with pytest.raises(TypeError, match="SchemeKind"):
            convergence_study(name, "bpf", 8.0, [27, 81] if name == "box" else [16, 32])

    def test_fine_reference_defaults_to_registry(self, monkeypatch):
        from bpfhelm.reference import BENCHMARKS, clear_reference_cache
        clear_reference_cache()
        factory, _ = BENCHMARKS["box"]
        monkeypatch.setitem(BENCHMARKS, "box", (factory, 3**5))
        seen = []
        real = analysis.fine_grid_reference

        def spy(p, n_ref, *args):
            seen.append(n_ref)
            return real(p, n_ref, *args)

        monkeypatch.setattr(analysis, "fine_grid_reference", spy)
        tab = convergence_study("box", SchemeKind.BPF, 2.0**3, [9, 27])
        assert seen == [3**5]
        assert tab.rows[0].errors.rel_v > tab.rows[1].errors.rel_v

    def test_explicit_error_bound_holds(self):
        # k ||e||_{0,h} <= Theta A0 (L h^2/12 ||f'''|| + h^2/3 ||f''||)
        k = 2.0**5
        p, exact = smooth_manufactured_problem(k)
        _, fpp, fppp = smooth_source_derivatives(k)
        f2 = l2_norm_quad(fpp, 1.0)
        f3 = l2_norm_quad(fppp, 1.0)
        for n in (3**5, 3**7):
            u_h = solve_scheme(p, n, SchemeKind.BPF)
            ref = sample(exact.u, u_h.grid)
            err = GridFunction(u_h.grid, u_h.values - ref.values)
            h = u_h.grid.h
            lhs = k * norm_l2h(err)
            rhs = (theta(k * h) * stability_constant_a0(k * h, k, 1.0)
                   * (h * h / 12.0 * f3 + h * h / 3.0 * f2))
            assert lhs <= rhs


class TestFitRate:
    def test_pure_power_law(self):
        hs = [0.1, 0.05, 0.025]
        errs = [7.0 * h**2 for h in hs]
        assert fit_rate(hs, errs) == pytest.approx(2.0, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_rate([0.1], [1.0])


class TestErrorReport:
    def test_grid_mismatch_rejected(self):
        a = sample(lambda x: np.asarray(x), make_grid(1.0, 8))
        b = sample(lambda x: np.asarray(x), make_grid(1.0, 16))
        with pytest.raises(ValueError):
            error_report(a, b, 1.0)

    def test_zero_error(self):
        v = sample(lambda x: np.exp(1j * np.asarray(x)), make_grid(1.0, 16))
        rep = error_report(v, v, 2.0)
        assert rep.abs_linf == 0.0 and rep.rel_v == 0.0

    def test_norm_selector(self):
        v = sample(lambda x: np.asarray(x), make_grid(1.0, 8))
        w = sample(lambda x: 1.1 * np.asarray(x), make_grid(1.0, 8))
        rep = error_report(w, v, 2.0)
        assert rep.rel("linf") == rep.rel_linf
        assert rep.rel("v") == rep.rel_v
        assert rep.rel_linf == pytest.approx(0.1, rel=1e-12)

    def test_v_norms_match_norm_v(self, norm_linf, norm_v):
        # every field is bitwise the grid norm of the error (the max and V
        # norms from the oracles in conftest), or its ratio to the same norm
        # of the reference, although error_report takes the error and the
        # reference together, block by block (2^14 + 3 spans three blocks)
        rng = np.random.default_rng(31)
        for n, k in ((2, 1.0), (17, 8.0), (181, 40.0), (256, 300.0), (2**14 + 3, 900.0)):
            g = make_grid(1.0, n)
            u, ref = (GridFunction(g, rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
                      for _ in range(2))
            rep = error_report(u, ref, k)
            err = GridFunction(g, u.values - ref.values)
            for norm, field in ((norm_linf, "linf"), (norm_l2h, "l2h"), (seminorm_h1h, "h1"),
                                (lambda v: norm_v(v, k), "v")):
                assert getattr(rep, "abs_" + field) == norm(err)
                assert getattr(rep, "rel_" + field) == norm(err) / norm(ref)

    @pytest.mark.parametrize("n", [8, 181, 2**14 + 3])
    def test_huge_values_scale_exactly(self, n):
        # squares near 2^1800 overflow: the report scales each row by a
        # power of two instead, so every field moves by exactly 2^900
        rng = np.random.default_rng(n)
        g = make_grid(1.0, n)
        u, ref = (rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1) for _ in range(2))
        rep = error_report(GridFunction(g, u), GridFunction(g, ref), 3.0)
        big = error_report(GridFunction(g, 2.0**900 * u), GridFunction(g, 2.0**900 * ref), 3.0)
        for field in ("linf", "l2h", "h1"):
            assert getattr(big, "abs_" + field) == 2.0**900 * getattr(rep, "abs_" + field)
        for field in ("linf", "l2h", "h1", "v"):
            assert getattr(big, "rel_" + field) == getattr(rep, "rel_" + field)


class TestCheckResult:
    def test_verdict_is_value_within_bound(self):
        assert CheckResult("x", 1.0, 1.0).passed
        assert not CheckResult("x", 1.0 + 1e-15, 1.0).passed
        assert not CheckResult("x", math.nan, 1.0).passed
        assert CheckResult("x", -math.inf, 0.0).passed
        assert "passed" not in CheckResult.__dataclass_fields__


class TestVerifySuites:
    def test_identities_pass(self):
        checks = verify_identities(seed=0)
        assert all(c.passed for c in checks)
        names = {c.name for c in checks}
        assert "bernoulli_reflection" in names
        assert "discrete_energy_identity" in names
        assert "envelope_sup_g" in names

    def test_multipliers_guard_each_pair_once(self, monkeypatch):
        # 20 (k, h) pairs: one nyquist_guard call per multiplier family and
        # one theta call per multiplier or bound that needs Theta(kh); the
        # per-frequency loop this replaced made 40,000 and 60,000 calls
        calls = {"nyquist_guard": 0, "theta": 0}

        def spy(name):
            original = getattr(analysis, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(analysis, name, spy(name))
        checks = verify_multipliers(seed=0)
        assert len(checks) == 40 and all(c.passed for c in checks)
        assert calls["nyquist_guard"] <= 40
        assert calls["theta"] <= 60

    def test_identities_evaluate_bernoulli_on_arrays(self, monkeypatch):
        # the per-point loops this replaced made 20,730 bernoulli and 203
        # phase_factor_m calls per run; now each check makes a few array
        # calls, and the one-way operators two scalar calls each
        calls = {"bernoulli": 0, "phase_factor_m": 0}

        def spy(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        spy(analysis, "bernoulli")
        spy(schemes, "bernoulli")
        spy(analysis, "phase_factor_m")
        assert all(c.passed for c in verify_identities(seed=0))
        assert calls["bernoulli"] <= 40
        assert calls["phase_factor_m"] <= 4

    def test_nan_bernoulli_sample_fails_its_checks(self, monkeypatch):
        # one NaN among the 10,000 reflection samples: Python's max used to
        # drop it and report the worst finite mismatch
        spoiled = []

        def bernoulli_with_one_nan(z):
            b = np.array(numerics.bernoulli(z))
            if not spoiled:  # the first sample of the first call
                b.flat[0] = complex(math.nan, 0.0)
                spoiled.append(True)
            return b[()]

        monkeypatch.setattr(analysis, "bernoulli", bernoulli_with_one_nan)
        checks = {c.name: c for c in verify_identities(seed=0)}
        for name in ("bernoulli_reflection", "bernoulli_difference"):
            assert math.isnan(checks[name].value) and not checks[name].passed
        assert checks["theta_matches_bernoulli"].passed

    def test_nan_energy_identity_fails_its_check(self, monkeypatch):
        monkeypatch.setattr(analysis, "energy_identity_mismatch", lambda p, u_h: math.nan)
        checks = {c.name: c for c in verify_identities(seed=0)}
        assert math.isnan(checks["discrete_energy_identity"].value)
        assert not checks["discrete_energy_identity"].passed

    def test_nan_residual_fails_its_check(self, monkeypatch):
        # the second report of the first k reports a NaN residual norm
        original = analysis.residual_report
        calls = []

        def nan_on_second_call(p, exact, n, fpp, fppp):
            calls.append(None)
            tau, beta = original(p, exact, n, fpp, fppp)
            return (replace(tau, value=math.nan), beta) if len(calls) == 2 else (tau, beta)

        monkeypatch.setattr(analysis, "residual_report", nan_on_second_call)
        failed = [c for c in verify_residuals() if not c.passed]
        assert [c.name for c in failed] == ["tau_bound_k4_n6"]
        assert math.isnan(failed[0].value)

    def test_nan_stability_ratio_fails_its_check(self, monkeypatch):
        # the second solve of the first (benchmark, k) cell reports a NaN lhs
        original = analysis.stability_bound_check
        calls = []

        def nan_on_second_call(p, u_h):
            calls.append(None)
            l2, h1 = original(p, u_h)
            return (replace(l2, value=math.nan), h1) if len(calls) == 2 else (l2, h1)

        monkeypatch.setattr(analysis, "stability_bound_check", nan_on_second_call)
        failed = [c for c in verify_stability() if not c.passed]
        assert [c.name for c in failed] == ["stability_l2_planewave_k5"]
        assert math.isnan(failed[0].value)
