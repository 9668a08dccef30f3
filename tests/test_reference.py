"""Benchmark problems: exact solutions, data consistency, fine-grid cache."""

import cmath
import dataclasses
import math
import timeit

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from bpfhelm.errors import ResonantSource
from bpfhelm.grid import make_grid, sample
from bpfhelm.numerics import GUARD_TOL
from bpfhelm.reference import (
    box_source_problem,
    clear_reference_cache,
    fine_grid_reference,
    make_benchmark,
    pde_residual_check,
    plane_wave_problem,
    sine_squared_problem,
    smooth_manufactured_problem,
    smooth_source_derivatives,
)
from bpfhelm.schemes import SchemeKind


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

    def test_pde_and_bc_residuals(self):
        p, exact = plane_wave_problem(2.0**6, 2.0, 1.0)
        pde, bc0, bcL = pde_residual_check(p, exact)
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

    def test_pde_residual(self):
        k = 2.0**5
        p, exact = smooth_manufactured_problem(k)
        pde, bc0, bcL = pde_residual_check(p, exact)
        assert pde <= 1e-10 * (1.0 + k**2)
        assert bc0 <= 1e-12 * max(abs(p.g0), 1.0)
        assert bcL <= 1e-12 * abs(p.gL)

    def test_second_derivative_handle_consistent(self):
        # independent oracle: central differences of u against the handle
        k = 2.0**4
        _, exact = smooth_manufactured_problem(k)
        step = 1e-5
        for x in (0.21, 0.5, 0.82):
            fd = (complex(exact.u(x + step)) - 2.0 * complex(exact.u(x))
                  + complex(exact.u(x - step))) / step**2
            assert abs(fd - complex(exact.u_doubleprime(x))) <= 1e-4 * (1.0 + k * k)

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
    def test_matches_polynomial_arithmetic_bitwise(self, k):
        # oracle: the source and derivatives built by Polynomial arithmetic
        r = Polynomial([0.0, 0.0, 0.0, 0.0, 1.0, -4.0, 6.0, -4.0, 1.0])
        r1, r2 = r.deriv(1), r.deriv(2)
        f = r2 + k * k * r
        x = make_grid(1.0, 1000).nodes()
        wave = np.exp(1j * k * x)
        expected = [f(x), wave + r(x), 1j * k * wave + r1(x), -k * k * wave + r2(x),
                    f.deriv(1)(x), f.deriv(2)(x), f.deriv(3)(x)]
        p, exact = smooth_manufactured_problem(k)
        got = [p.f(x), exact.u(x), exact.u_prime(x), exact.u_doubleprime(x),
               *(d(x) for d in smooth_source_derivatives(k))]
        for a, b in zip(got, expected):
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
    def test_pde_residual_random_points(self):
        k = 2.0**5
        p, exact = sine_squared_problem(k)
        rng = np.random.default_rng(31)
        x = rng.uniform(0, 1, 100)
        res = np.abs(np.asarray(exact.u_doubleprime(x)) + k * k * np.asarray(exact.u(x))
                     - np.asarray(p.f(x)))
        scale = np.max(np.abs(np.asarray(exact.u_doubleprime(x)))) + k * k
        assert np.max(res) <= 1e-10 * scale

    def test_impedance_conditions(self):
        k = 2.0**5
        p, exact = sine_squared_problem(k)
        bc0 = complex(exact.u_prime(0.0)) - 1j * k * complex(exact.u(0.0))
        bcL = complex(exact.u_prime(1.0)) + 1j * k * complex(exact.u(1.0))
        assert abs(bc0 - 2.0) <= 1e-12
        assert abs(bcL - 1j) <= 1e-12

    def test_matches_fine_bpf_solve(self):
        k = 2.0**5
        p, exact = sine_squared_problem(k)
        clear_reference_cache()
        fine = fine_grid_reference(p, 2**14, SchemeKind.BPF)
        ref = sample(exact.u, fine.grid)
        err = np.max(np.abs(fine.values - ref.values)) / np.max(np.abs(ref.values))
        assert err <= 1e-7  # h^2 floor of the discrete solve at n = 2^14

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


class TestFineGridReference:
    def test_cache_returns_same_object(self):
        clear_reference_cache()
        p, _ = sine_squared_problem(2.0**5)
        a = fine_grid_reference(p, 256, SchemeKind.BPF)
        b = fine_grid_reference(p, 256, SchemeKind.BPF)
        assert a is b

    def test_cache_key_includes_resolution_and_scheme(self):
        clear_reference_cache()
        p, _ = sine_squared_problem(2.0**5)
        a = fine_grid_reference(p, 256, SchemeKind.BPF)
        b = fine_grid_reference(p, 512, SchemeKind.BPF)
        c = fine_grid_reference(p, 256, SchemeKind.CLASSICAL_FD)
        assert a is not b and a is not c

    def test_cache_key_includes_boundary_data(self):
        # same name, k, L and n_ref; only the plane-wave amplitude differs
        clear_reference_cache()
        p2, _ = plane_wave_problem(2.0**5, 2.0, 1.0)
        p5, exact5 = plane_wave_problem(2.0**5, 5.0, 1.0)
        fine_grid_reference(p2, 256, SchemeKind.BPF)
        fine = fine_grid_reference(p5, 256, SchemeKind.BPF)
        ref = sample(exact5.u, make_grid(1.0, 256))
        assert np.max(np.abs(fine.values - ref.values)) <= 1e-11

    def test_cache_key_includes_data_source_and_tolerance(self):
        from dataclasses import replace
        clear_reference_cache()
        p, _ = sine_squared_problem(2.0**5)
        a = fine_grid_reference(p, 256, SchemeKind.BPF)
        for other in (replace(p, g0=0j), replace(p, gL=0j),
                      replace(p, f=lambda x: 2.0 * p.f(x))):
            assert not np.allclose(fine_grid_reference(other, 256, SchemeKind.BPF).values,
                                   a.values)
        assert fine_grid_reference(p, 256, SchemeKind.BPF, tol=1e-6) is not a

    def test_problem_is_frozen_and_keys_by_value(self):
        # a cached reference can never be served for a problem changed in place
        p, _ = sine_squared_problem(2.0**5)
        for field in dataclasses.fields(p):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, field.name, getattr(p, field.name))
        clear_reference_cache()
        fine = fine_grid_reference(p, 256, SchemeKind.BPF, GUARD_TOL)
        assert fine_grid_reference(dataclasses.replace(p), 256, SchemeKind.BPF, GUARD_TOL) is fine

    def test_plane_wave_reference_matches_exact(self):
        clear_reference_cache()
        p, exact = plane_wave_problem(2.0**5, 2.0, 1.0)
        for n_ref in (64, 243):
            fine = fine_grid_reference(p, n_ref, SchemeKind.BPF)
            ref = sample(exact.u, make_grid(1.0, n_ref))
            assert np.max(np.abs(fine.values - ref.values)) <= 1e-11

    def test_rebuilt_problems_leave_one_entry(self):
        # every factory call builds a new source callable, so only the
        # last key can ever be hit again
        clear_reference_cache()
        for _ in range(6):
            p, _ = make_benchmark("box", 8.0)
            fine = fine_grid_reference(p, 3**7, SchemeKind.BPF)
        assert fine_grid_reference.cache_info().currsize == 1
        assert fine_grid_reference(p, 3**7, SchemeKind.BPF) is fine

    def test_concurrent_requests_agree(self):
        # concurrent callers may duplicate the solve but must agree with
        # the stored result
        from concurrent.futures import ThreadPoolExecutor
        clear_reference_cache()
        p, _ = sine_squared_problem(2.0**5)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda _: fine_grid_reference(p, 512, SchemeKind.BPF), range(16)))
        final = fine_grid_reference(p, 512, SchemeKind.BPF)
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

    def test_every_exact_solution_validates(self):
        for name in ("planewave", "smooth", "sine2"):
            p, exact = make_benchmark(name, 2.0**6)
            pde, bc0, bcL = pde_residual_check(p, exact)
            assert pde <= 1e-10 * (1.0 + p.k**2)
            assert bc0 <= 1e-12 * max(abs(p.g0), 1.0)
            assert bcL <= 1e-12 * max(abs(p.gL), 1.0)
