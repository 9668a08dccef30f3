"""Benchmark problems: exact solutions, data consistency, fine-grid cache."""

import cmath
import dataclasses
import math
import timeit

import mpmath
import numpy as np
import pytest
from numpy.polynomial import Polynomial

from bpfhelm import reference
from bpfhelm.errors import ResonantSource
from bpfhelm.analysis import _simpson
from bpfhelm.grid import make_grid, restrict, sample
from bpfhelm.reference import (
    box_source_problem,
    clear_reference_cache,
    fine_grid_reference,
    make_benchmark,
    plane_wave_problem,
    sine_squared_problem,
    smooth_manufactured_problem,
    smooth_source_derivatives,
)
from bpfhelm.schemes import SchemeKind, solve_scheme


def pde_residual_check(p, form):
    """Max |u'' + k^2 u - f| at 100 pseudo-random points, plus both boundary
    condition residuals, for p and the ClosedForm of its solution."""
    u, u1, u2 = form
    x = np.random.default_rng(0).uniform(0.0, p.L, 100)
    pde = np.abs(u2(x) + p.k**2 * np.asarray(u(x)) - np.asarray(p.f(x)))
    bc0 = abs(complex(u1(0.0)) - 1j * p.k * complex(u(0.0)) - complex(p.g0))
    bcL = abs(complex(u1(p.L)) + 1j * p.k * complex(u(p.L)) - complex(p.gL))
    return float(np.max(pde)), bc0, bcL


class TestPlaneWave:
    def test_reference_data(self):
        k = 2.0**7
        p, _ = plane_wave_problem(k, 2.0, 1.0)
        assert p.g0 == pytest.approx(-2j * k)
        assert p.gL == pytest.approx(4j * k * cmath.exp(1j * k))

    def test_zero_coefficients(self):
        p, exact = plane_wave_problem(5.0, 0.0, 0.0)
        assert p.g0 == 0.0 and p.gL == 0.0
        x = np.linspace(0, 1, 11)
        assert np.max(np.abs(exact.u(x))) == 0.0

    def test_pure_outgoing_left_data(self):
        p, _ = plane_wave_problem(5.0, 1.0, 0.0)
        assert p.g0 == 0.0

    @pytest.mark.parametrize("k", [0.5, 3.7, 2.0**5, 100.0, 1234.5])
    def test_matches_two_wave_formula_bitwise(self, closed_forms, k):
        # oracle: both waves evaluated with np.exp, as the closed form reads;
        # 2^15 nodes make 512 KiB arrays, above the size at which numpy
        # multiplies a temporary in place
        alpha, beta = 2.0 + 0.5j, 1.0 - 0.25j
        _, exact = plane_wave_problem(k, alpha, beta)
        form = closed_forms["planewave"](k, alpha, beta)
        for n in (1000, 2**15 - 1):
            x = make_grid(1.0, n).nodes()
            plus, minus = alpha * np.exp(1j * k * x), beta * np.exp(-1j * k * x)
            expected = [plus + minus, 1j * k * (plus - minus), -k * k * (plus + minus)]
            got = [exact.u(x), form.u_prime(x), form.u_doubleprime(x)]
            for a, b in zip(got, expected):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_conjugate_wave_is_the_backward_wave_bitwise(self):
        # the closed forms evaluate e^{ikx} once and take e^{-ikx} as its
        # conjugate; that relies on numpy's complex exp being odd in the
        # imaginary part. At x = 0 the two differ in the sign of a zero
        # imaginary part only, which the amplitude products wash out.
        x = np.concatenate([make_grid(1.0, 4096).nodes()[1:],
                            np.random.default_rng(7).uniform(0.0, 1.0, 4096)])
        for k in np.geomspace(0.1, 1e4, 200):
            wave = np.exp(1j * k * x)
            assert wave.conjugate().tobytes() == np.exp(-1j * k * x).tobytes()
            assert np.exp(1j * k * 0.0).conjugate() == np.exp(-1j * k * 0.0)

    def test_pde_and_bc_residuals(self, closed_forms):
        p, _ = plane_wave_problem(2.0**6, 2.0, 1.0)
        pde, bc0, bcL = pde_residual_check(p, closed_forms["planewave"](p.k, 2.0, 1.0))
        assert pde <= 1e-10 * (1.0 + p.k**2)
        assert bc0 <= 1e-12 * max(abs(p.g0), 1.0)
        assert bcL <= 1e-12 * max(abs(p.gL), 1.0)


class TestSmoothManufactured:
    def test_source_vanishes_at_endpoints(self):
        k = 2.0**5
        p, _ = smooth_manufactured_problem(k)
        f1, _, _ = smooth_source_derivatives(k)
        for endpoint in (0.0, 1.0):
            assert abs(complex(p.f(endpoint))) <= 1e-14
            assert abs(complex(f1(endpoint))) <= 1e-14

    def test_boundary_values(self):
        k = 2.0**5
        _, exact = smooth_manufactured_problem(k)
        assert complex(exact.u(0.0)) == pytest.approx(1.0)
        assert complex(exact.u(1.0)) == pytest.approx(cmath.exp(1j * k))

    def test_boundary_data(self):
        k = 2.0**5
        p, _ = smooth_manufactured_problem(k)
        assert p.g0 == 0.0
        assert p.gL == pytest.approx(2j * k * cmath.exp(1j * k))

    def test_pde_residual(self, closed_forms):
        k = 2.0**5
        p, _ = smooth_manufactured_problem(k)
        pde, bc0, bcL = pde_residual_check(p, closed_forms["smooth"](k))
        assert pde <= 1e-10 * (1.0 + k**2)
        assert bc0 <= 1e-12 * max(abs(p.g0), 1.0)
        assert bcL <= 1e-12 * abs(p.gL)

    def test_second_derivative_handle_consistent(self, closed_forms):
        # independent oracle: central differences of u against the handle
        k = 2.0**4
        _, exact = smooth_manufactured_problem(k)
        form = closed_forms["smooth"](k)
        step = 1e-5
        for x in (0.21, 0.5, 0.82):
            fd = (complex(exact.u(x + step)) - 2.0 * complex(exact.u(x))
                  + complex(exact.u(x - step))) / step**2
            assert abs(fd - complex(form.u_doubleprime(x))) <= 1e-4 * (1.0 + k * k)

    def test_source_derivative_handles(self):
        # finite-difference cross-check of the polynomial derivatives
        k = 2.0**4
        p, _ = smooth_manufactured_problem(k)
        f1, f2, f3 = smooth_source_derivatives(k)
        step = 1e-6
        for x in (0.3, 0.7):
            fd1 = (complex(p.f(x + step)) - complex(p.f(x - step))) / (2.0 * step)
            assert abs(fd1 - complex(f1(x))) <= 1e-3
            fd2 = (complex(f1(x + step)) - complex(f1(x - step))) / (2.0 * step)
            assert abs(fd2 - complex(f2(x))) <= 1e-2
            fd3 = (complex(f2(x + step)) - complex(f2(x - step))) / (2.0 * step)
            assert abs(fd3 - complex(f3(x))) <= 1e-1

    @pytest.mark.parametrize("k", [0.5, 3.7, 2.0**5, 100.0, 1234.5])
    def test_matches_polynomial_arithmetic_bitwise(self, closed_forms, k):
        # oracle: the source and derivatives built and evaluated by
        # Polynomial arithmetic, on the nodes of several grids and at a
        # scalar x
        r = Polynomial([0.0, 0.0, 0.0, 0.0, 1.0, -4.0, 6.0, -4.0, 1.0])
        r1, r2 = r.deriv(1), r.deriv(2)
        f = r2 + k * k * r
        p, exact = smooth_manufactured_problem(k)
        form = closed_forms["smooth"](k)
        derivatives = smooth_source_derivatives(k)
        for x in [make_grid(1.0, n).nodes() for n in (8, 181, 1000, 4096)] + [0.3183098861837907]:
            wave = np.exp(1j * k * np.asarray(x))
            expected = [f(x), wave + r(x), 1j * k * wave + r1(x), -k * k * wave + r2(x),
                        f.deriv(1)(x), f.deriv(2)(x), f.deriv(3)(x)]
            got = [p.f(x), exact.u(x), form.u_prime(x), form.u_doubleprime(x),
                   *(d(x) for d in derivatives)]
            for a, b in zip(got, expected):
                assert np.shape(a) == np.shape(b)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_factory_cost(self):
        # the k-independent derivatives are built once, at import: a call
        # costs about 10 us on a 2-vCPU host against 106 us when each call
        # rebuilt them with Polynomial arithmetic
        calls = 200
        best = min(timeit.repeat(lambda: smooth_manufactured_problem(37.5),
                                 number=calls, repeat=15)) / calls
        assert best <= 25e-6


class TestSineSquared:
    def test_pde_residual_random_points(self, closed_forms):
        k = 2.0**5
        p, _ = sine_squared_problem(k)
        form = closed_forms["sine2"](k)
        rng = np.random.default_rng(31)
        x = rng.uniform(0, 1, 100)
        res = np.abs(np.asarray(form.u_doubleprime(x)) + k * k * np.asarray(form.u(x))
                     - np.asarray(p.f(x)))
        scale = np.max(np.abs(np.asarray(form.u_doubleprime(x)))) + k * k
        assert np.max(res) <= 1e-10 * scale

    def test_impedance_conditions(self, closed_forms):
        k = 2.0**5
        form = closed_forms["sine2"](k)
        bc0 = complex(form.u_prime(0.0)) - 1j * k * complex(form.u(0.0))
        bcL = complex(form.u_prime(1.0)) + 1j * k * complex(form.u(1.0))
        assert abs(bc0 - 2.0) <= 1e-12
        assert abs(bcL - 1j) <= 1e-12

    def test_matches_fine_bpf_solve(self):
        k = 2.0**5
        p, exact = sine_squared_problem(k)
        clear_reference_cache()
        fine = fine_grid_reference(p, 2**14)
        ref = sample(exact.u, fine.grid)
        err = np.max(np.abs(fine.values - ref.values)) / np.max(np.abs(ref.values))
        assert err <= 1e-7  # h^2 floor of the discrete solve at n = 2^14

    @staticmethod
    def _amplitudes_mp(k):
        """alpha and beta from a 40-digit solve of the two impedance
        conditions, with the particular part u_p of the docstring."""
        with mpmath.workdps(40):
            k = mpmath.mpf(k)
            ik = 1j * k
            c_pole = 1 / (2 * (k * k - 4 * mpmath.pi**2))

            def u_p(x):
                return 1 / (2 * k * k) - mpmath.cos(2 * mpmath.pi * x) * c_pole

            def u_p1(x):
                return 2 * mpmath.pi * mpmath.sin(2 * mpmath.pi * x) * c_pole

            # traces u' -+ ik u of e^{ikx} and e^{-ikx} at x = 0 and x = 1
            e = mpmath.exp(ik)
            mat = mpmath.matrix([[0, -2 * ik], [2 * ik * e, 0]])
            rhs = mpmath.matrix([2 - (u_p1(0) - ik * u_p(0)),
                                 1j - (u_p1(1) + ik * u_p(1))])
            return mpmath.lu_solve(mat, rhs)

    def test_amplitudes_match_mpmath(self, monkeypatch):
        # Away from the resonance k = 2 pi, where k*k - 4 pi^2 cancels in
        # float (about 1e3 eps within 0.01 of 2 pi), and above k = 3, below
        # which alpha's numerator gL - ik u_p(1) cancels.
        eps = np.finfo(float).eps
        built = []
        real_builder = reference._plane_wave_solution

        def spy(k, alpha, beta, *rest):
            built.append((alpha, beta))
            return real_builder(k, alpha, beta, *rest)

        monkeypatch.setattr(reference, "_plane_wave_solution", spy)
        ks = np.geomspace(3.1, 3000.0, 120)
        for k in ks[np.abs(ks - 2.0 * math.pi) > 0.75]:
            sine_squared_problem(float(k))
            alpha, beta = built.pop()
            oracle = self._amplitudes_mp(float(k))
            for got, want in zip((alpha, beta), oracle):
                assert float(abs(got - want) / abs(want)) <= 4 * eps, k

    def test_factory_cost(self):
        # the amplitudes are two quotients: a call costs about 4 to 7 us on
        # a 2-vCPU host against 23 to 37 us when a LAPACK 2x2 solve gave them
        calls = 200
        best = min(timeit.repeat(lambda: make_benchmark("sine2", 37.5),
                                 number=calls, repeat=15)) / calls
        assert best <= 20e-6

    def test_resonant_wavenumbers_rejected(self):
        with pytest.raises(ResonantSource):
            sine_squared_problem(2.0 * math.pi)
        with pytest.raises(ResonantSource):
            sine_squared_problem(1e-9)


class TestBoxSource:
    def test_support_values(self):
        p = box_source_problem(2.0**5)
        assert complex(p.f(0.5)) == 50.0
        assert complex(p.f(0.3)) == 0.0
        assert complex(p.f(0.5 - 1.0 / 9.0)) == 50.0
        assert complex(p.f(0.5 + 1.0 / 9.0 - 1e-12)) == 50.0
        assert complex(p.f(0.5 + 1.0 / 9.0 + 1e-12)) == 0.0

    def test_boundary_data(self):
        p = box_source_problem(2.0**5)
        assert p.g0 == 2.0
        assert p.gL == 1j

    def test_vectorized_source(self):
        p = box_source_problem(2.0**5)
        x = np.linspace(0, 1, 11)
        vals = np.asarray(p.f(x))
        assert vals.shape == x.shape


class TestGreensFunction:
    """u(x) = int G(x, y) f(y) dy + gL e^{-ikL}/(2ik) e^{ikx} - g0/(2ik) e^{-ikx}
    on (0, 1), with G(x, y) = (i/2k) e^{-ik|x-y|}: G meets both homogeneous
    impedance conditions and its derivative jumps by 1 at x = y."""

    @staticmethod
    def _boundary_part(p, x):
        k = p.k
        return (p.gL * cmath.exp(-1j * k) / (2j * k) * np.exp(1j * k * x)
                - p.g0 / (2j * k) * np.exp(-1j * k * x))

    @pytest.mark.parametrize("k", [8.0, 32.0])
    def test_sine2_closed_form(self, k):
        p, exact = sine_squared_problem(k)
        x = np.linspace(0.0, 1.0, 17)[1:-1]
        panels = 2**14  # composite Simpson, split at y = x where G has its kink
        u = []
        for xi in x:
            integral = 0.0
            for a, b in ((0.0, xi), (xi, 1.0)):
                y = np.linspace(a, b, panels + 1)
                g = 1j / (2.0 * k) * np.exp(-1j * k * np.abs(xi - y)) * p.f(y)
                integral += _simpson(g, (b - a) / panels)
            u.append(integral)
        u = np.array(u) + self._boundary_part(p, x)
        ref = exact.u(x)
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("k", [8.0, 32.0])
    def test_box_closed_form_matches_fine_solve(self, k):
        # The source is 50 on [lo, hi]; the integral splits at the clipped x
        # into a part with y < x and a part with y > x, each an exponential.
        p = box_source_problem(k)
        lo, hi = 0.5 - 1.0 / 9.0, 0.5 + 1.0 / 9.0
        grid = make_grid(1.0, 27)
        x = grid.nodes()
        c = np.clip(x, lo, hi)
        below = np.exp(-1j * k * (x - c)) - np.exp(-1j * k * (x - lo))
        above = np.exp(-1j * k * (c - x)) - np.exp(-1j * k * (hi - x))
        u = 50.0 * 1j / (2.0 * k) * (below + above) / (1j * k) + self._boundary_part(p, x)
        fine = restrict(solve_scheme(p, 3**12, SchemeKind.BPF), grid)
        assert np.max(np.abs(fine.values - u)) <= 1e-9 * np.max(np.abs(u))


class TestFineGridReference:
    def test_cache_returns_same_object(self):
        clear_reference_cache()
        p, _ = sine_squared_problem(2.0**5)
        a = fine_grid_reference(p, 256)
        b = fine_grid_reference(p, 256)
        assert a is b

    def test_cache_key_includes_resolution(self):
        clear_reference_cache()
        p, _ = sine_squared_problem(2.0**5)
        a = fine_grid_reference(p, 256)
        b = fine_grid_reference(p, 512)
        assert a is not b

    def test_cache_key_includes_boundary_data(self):
        # same name, k, L and n_ref; only the plane-wave amplitude differs
        clear_reference_cache()
        p2, _ = plane_wave_problem(2.0**5, 2.0, 1.0)
        p5, exact5 = plane_wave_problem(2.0**5, 5.0, 1.0)
        fine_grid_reference(p2, 256)
        fine = fine_grid_reference(p5, 256)
        ref = sample(exact5.u, make_grid(1.0, 256))
        assert np.max(np.abs(fine.values - ref.values)) <= 1e-11

    def test_cache_key_includes_data_and_source(self):
        from dataclasses import replace
        clear_reference_cache()
        p, _ = sine_squared_problem(2.0**5)
        a = fine_grid_reference(p, 256)
        for other in (replace(p, g0=0j), replace(p, gL=0j),
                      replace(p, f=lambda x: 2.0 * p.f(x))):
            assert not np.allclose(fine_grid_reference(other, 256).values,
                                   a.values)

    def test_problem_is_frozen_and_keys_by_value(self):
        # a cached reference can never be served for a problem changed in place
        p, _ = sine_squared_problem(2.0**5)
        for field in dataclasses.fields(p):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, field.name, getattr(p, field.name))
        clear_reference_cache()
        fine = fine_grid_reference(p, 256)
        assert fine_grid_reference(dataclasses.replace(p), 256) is fine

    def test_plane_wave_reference_matches_exact(self):
        clear_reference_cache()
        p, exact = plane_wave_problem(2.0**5, 2.0, 1.0)
        for n_ref in (64, 243):
            fine = fine_grid_reference(p, n_ref)
            ref = sample(exact.u, make_grid(1.0, n_ref))
            assert np.max(np.abs(fine.values - ref.values)) <= 1e-11

    def test_rebuilt_problems_leave_one_entry(self):
        # every factory call builds a new source callable, so only the
        # last key can ever be hit again
        clear_reference_cache()
        for _ in range(6):
            p, _ = make_benchmark("box", 8.0)
            fine = fine_grid_reference(p, 3**7)
        assert fine_grid_reference.cache_info().currsize == 1
        assert fine_grid_reference(p, 3**7) is fine

    def test_concurrent_requests_agree(self):
        # concurrent callers may duplicate the solve but must agree with
        # the stored result
        from concurrent.futures import ThreadPoolExecutor
        clear_reference_cache()
        p, _ = sine_squared_problem(2.0**5)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda _: fine_grid_reference(p, 512), range(16)))
        final = fine_grid_reference(p, 512)
        for r in results:
            assert np.array_equal(r.values, final.values)


class TestBenchmarkRegistry:
    def test_known_names(self):
        k = 2.0**5
        factories = {"planewave": lambda k: plane_wave_problem(k, 2.0, 1.0),
                     "smooth": smooth_manufactured_problem, "sine2": sine_squared_problem}
        for name, factory in factories.items():
            p, exact = make_benchmark(name, k)
            # the named factory's data; sources are new closures per call
            assert dataclasses.replace(factory(k)[0], f=p.f) == p
            assert exact is not None
        p, exact = make_benchmark("box", k)
        assert dataclasses.replace(box_source_problem(k), f=p.f) == p and exact is None

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_benchmark("gaussian", 2.0**5)

    @pytest.mark.parametrize("name", ["planewave", "smooth", "box", "sine2"])
    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_non_finite_wavenumber_rejected(self, name, k):
        # sine2 used to reach its 2x2 amplitude solve first and raise
        # LinAlgError; every benchmark now fails HelmholtzProblem's check
        with pytest.raises(ValueError, match="finite and positive"):
            make_benchmark(name, k)

    @pytest.mark.parametrize("name", ["planewave", "smooth", "box", "sine2"])
    def test_wavenumber_whose_square_overflows_rejected(self, name):
        # k^2 is inf above about 1.34e154; planewave and box used to build,
        # and smooth's source coefficients raised a RuntimeWarning
        with pytest.raises(ValueError, match="finite and positive"):
            make_benchmark(name, 2e154)

    def test_every_exact_solution_validates(self, closed_forms):
        for name in ("planewave", "smooth", "sine2"):
            p, _ = make_benchmark(name, 2.0**6)
            pde, bc0, bcL = pde_residual_check(p, closed_forms[name](p.k))
            assert pde <= 1e-10 * (1.0 + p.k**2)
            assert bc0 <= 1e-12 * max(abs(p.g0), 1.0)
            assert bcL <= 1e-12 * max(abs(p.gL), 1.0)

    @pytest.mark.parametrize("name", ["planewave", "smooth", "sine2"])
    @pytest.mark.parametrize("k", [0.5, 3.7, 2.0**5, 100.0, 1234.5])
    def test_closed_form_oracle_is_the_package_u_bitwise(self, closed_forms, name, k):
        # the ODE and boundary checks above read the oracle's derivatives,
        # so its u must be the package's, on grids below and above numpy's
        # in-place threshold and at a scalar x
        _, exact = make_benchmark(name, k)
        form = closed_forms[name](k)
        for x in [make_grid(1.0, n).nodes() for n in (8, 1000, 2**15 - 1)] + [0.3183098861837907]:
            a, b = exact.u(x), form.u(x)
            assert np.shape(a) == np.shape(b)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
