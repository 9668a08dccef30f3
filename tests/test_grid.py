"""Grids, grid functions, difference operators and discrete norms."""

import math

import numpy as np
import pytest

from bpfhelm.errors import InvalidGrid, NonFiniteSample, NonNestedGrids
from bpfhelm.grid import (
    GridFunction,
    discrete_laplacian,
    forward_diff,
    make_grid,
    norm_l2h,
    norm_linf,
    norm_v,
    restrict,
    sample,
    seminorm_h1h,
)


def _random_gf(rng, grid):
    return GridFunction(grid, rng.standard_normal(grid.n + 1)
                        + 1j * rng.standard_normal(grid.n + 1))


class TestMakeGrid:
    def test_basic(self):
        g = make_grid(1.0, 8)
        assert g.h == 0.125
        assert len(g.nodes()) == 9

    def test_fine(self):
        g = make_grid(1.0, 2**18)
        assert g.h == 2.0**-18

    def test_invalid(self):
        with pytest.raises(InvalidGrid):
            make_grid(1.0, 1)
        with pytest.raises(InvalidGrid):
            make_grid(0.0, 8)
        with pytest.raises(InvalidGrid):
            make_grid(-2.0, 8)

    def test_endpoint_exact(self):
        g = make_grid(1.0, 729)
        assert g.nodes()[-1] == 1.0


class TestSample:
    def test_constant(self):
        g = make_grid(1.0, 4)
        v = sample(lambda x: np.ones_like(np.asarray(x)), g)
        assert np.all(v.values == 1.0)

    def test_plane_wave_quarter_points(self):
        # e^{i 2 pi x} at x = 0, 1/4, 1/2, 3/4, 1
        g = make_grid(1.0, 4)
        v = sample(lambda x: np.exp(2j * math.pi * np.asarray(x)), g)
        expected = np.array([1.0, 1j, -1.0, -1j, 1.0])
        assert np.max(np.abs(v.values - expected)) <= 1e-15

    def test_identity_function(self):
        g = make_grid(1.0, 2)
        v = sample(lambda x: x, g)
        assert np.array_equal(v.values, np.array([0.0, 0.5, 1.0], dtype=complex))

    def test_scalar_only_callable(self):
        g = make_grid(1.0, 4)
        v = sample(lambda x: 2.0 if x > 0.5 else 0.0, g)
        assert np.array_equal(v.values.real, np.array([0.0, 0.0, 0.0, 2.0, 2.0]))

    def test_nonfinite_rejected(self):
        g = make_grid(1.0, 4)
        with pytest.raises(NonFiniteSample), np.errstate(divide="ignore"):
            sample(lambda x: 1.0 / np.asarray(x), g)


class TestDifferenceOperators:
    def test_forward_diff_constant(self):
        g = make_grid(1.0, 8)
        v = sample(lambda x: np.full_like(np.asarray(x), 3.0), g)
        assert np.max(np.abs(forward_diff(v))) == 0.0

    def test_forward_diff_linear(self):
        g = make_grid(1.0, 4)
        v = sample(lambda x: x, g)
        assert np.allclose(forward_diff(v), 1.0, atol=1e-14)

    def test_forward_diff_plane_wave_closed_form(self):
        k = 5.0
        g = make_grid(1.0, 16)
        v = sample(lambda x: np.exp(1j * k * np.asarray(x)), g)
        x = g.nodes()[:-1]
        expected = np.exp(1j * k * x) * (np.exp(1j * k * g.h) - 1.0) / g.h
        assert np.max(np.abs(forward_diff(v) - expected)) <= 1e-12

    def test_laplacian_linear_is_zero(self):
        g = make_grid(1.0, 8)
        v = sample(lambda x: 2.0 * np.asarray(x) + 1.0, g)
        assert np.max(np.abs(discrete_laplacian(v))) <= 1e-12

    def test_laplacian_exact_on_quadratics(self):
        g = make_grid(1.0, 8)
        v = sample(lambda x: np.asarray(x) ** 2, g)
        assert np.allclose(discrete_laplacian(v), 2.0, atol=1e-10)

    def test_laplacian_sine_symbol(self):
        # oracle: Delta_h sin(xi x) = -(4/h^2) sin^2(xi h/2) sin(xi x)
        xi = 3.0 * math.pi
        g = make_grid(1.0, 27)
        v = sample(lambda x: np.sin(xi * np.asarray(x)), g)
        x = g.nodes()[1:-1]
        symbol = -4.0 / g.h**2 * math.sin(0.5 * xi * g.h) ** 2
        assert np.max(np.abs(discrete_laplacian(v) - symbol * np.sin(xi * x))) <= 1e-9


class TestNorms:
    def test_constant_l2h(self):
        for n in (8, 64, 512):
            g = make_grid(1.0, n)
            v = sample(lambda x: np.ones_like(np.asarray(x)), g)
            assert norm_l2h(v) == pytest.approx(math.sqrt((n - 1) * g.h), rel=1e-14)

    def test_constant_h1_zero(self):
        g = make_grid(1.0, 32)
        v = sample(lambda x: np.full(np.asarray(x).shape, 2.0 - 1.0j), g)
        assert seminorm_h1h(v) == 0.0

    def test_v_norm_definition(self):
        rng = np.random.default_rng(0)
        v = _random_gf(rng, make_grid(1.0, 32))
        k = 2.0
        assert norm_v(v, k) ** 2 == pytest.approx(
            4.0 * norm_l2h(v) ** 2 + seminorm_h1h(v) ** 2, rel=1e-13)

    def test_linf_includes_boundary(self):
        g = make_grid(1.0, 4)
        vals = np.array([5.0, 0.0, 0.0, 0.0, 0.0], dtype=complex)
        assert norm_linf(GridFunction(g, vals)) == 5.0
        assert norm_l2h(GridFunction(g, vals)) == 0.0

    def test_homogeneity_and_triangle(self):
        rng = np.random.default_rng(1)
        g = make_grid(1.0, 48)
        for _ in range(20):
            v = _random_gf(rng, g)
            w = _random_gf(rng, g)
            c = complex(rng.standard_normal(), rng.standard_normal())
            vw = GridFunction(g, v.values + w.values)
            cv = GridFunction(g, c * v.values)
            for norm in (norm_l2h, seminorm_h1h, norm_linf, lambda u: norm_v(u, 3.0)):
                assert norm(cv) == pytest.approx(abs(c) * norm(v), rel=1e-12, abs=1e-12)
                assert norm(vw) <= norm(v) + norm(w) + 1e-12

    def test_summation_by_parts(self):
        # h sum (Delta_h v) conj(v) = -|v|_1^2 + grad_{n-1} conj(v_n) - grad_0 conj(v_0)
        rng = np.random.default_rng(2)
        for n in (8, 33, 100):
            g = make_grid(1.0, n)
            v = _random_gf(rng, g)
            lap = discrete_laplacian(v)
            lhs = g.h * np.sum(lap * np.conj(v.values[1:-1]))
            grad = forward_diff(v)
            rhs = (-seminorm_h1h(v) ** 2
                   + grad[-1] * np.conj(v.values[-1])
                   - grad[0] * np.conj(v.values[0]))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


class TestRestrict:
    def test_every_other_value(self):
        fine = make_grid(1.0, 8)
        coarse = make_grid(1.0, 4)
        v = sample(lambda x: np.asarray(x) ** 2, fine)
        r = restrict(v, coarse)
        assert np.array_equal(r.values, v.values[::2])

    def test_nested_ternary(self):
        fine = make_grid(1.0, 3**6)
        coarse = make_grid(1.0, 3**3)
        fn = lambda x: np.exp(1j * 11.0 * np.asarray(x)) + np.asarray(x)
        r = restrict(sample(fn, fine), coarse)
        direct = sample(fn, coarse)
        # bitwise equality: coincident nodes are computed identically
        assert np.array_equal(r.values, direct.values)

    def test_nested_nodes_bitwise_equal(self):
        # restrict-compose-sample relies on coincident nodes being the same
        # floats; (i*L)/n guarantees it for L = 1
        for nc, mult in ((4, 2), (27, 3), (9, 7), (64, 4096)):
            fine = make_grid(1.0, nc * mult)
            coarse = make_grid(1.0, nc)
            assert np.array_equal(fine.nodes()[::mult], coarse.nodes())

    def test_non_nested_rejected(self):
        v = sample(lambda x: np.asarray(x), make_grid(1.0, 9))
        with pytest.raises(NonNestedGrids):
            restrict(v, make_grid(1.0, 4))

    def test_different_length_rejected(self):
        v = sample(lambda x: np.asarray(x), make_grid(2.0, 8))
        with pytest.raises(NonNestedGrids):
            restrict(v, make_grid(1.0, 4))


class TestGridFunction:
    def test_immutable_values(self):
        g = make_grid(1.0, 4)
        v = sample(lambda x: np.asarray(x), g)
        with pytest.raises(ValueError):
            v.values[0] = 5.0

    def test_length_check(self):
        with pytest.raises(ValueError):
            GridFunction(make_grid(1.0, 4), np.zeros(3, dtype=complex))

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                     complex(math.inf, 0.0), complex(0.0, -math.inf),
                                     complex(math.nan, math.inf)])
    def test_non_finite_part_rejected(self, bad):
        values = np.ones(5, dtype=complex)
        values[2] = bad
        with pytest.raises(NonFiniteSample):
            GridFunction(make_grid(1.0, 4), values)
