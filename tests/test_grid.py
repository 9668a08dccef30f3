"""Grids, grid functions, difference operators and discrete norms."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from bpfhelm.errors import InvalidGrid, NonFiniteSample, NonNestedGrids
from bpfhelm.grid import (
    GridFunction,
    check_nested,
    forward_diff,
    make_grid,
    nodal_values,
    norm_l2h,
    restrict,
    sample,
    seminorm_h1h,
)
from bpfhelm.reference import BENCHMARKS, make_benchmark
from bpfhelm.schemes import HelmholtzProblem, SchemeKind, assemble
from bpfhelm.trisolve import BLOCK


def _random_gf(rng, grid):
    return GridFunction(grid, rng.standard_normal(grid.n + 1)
                        + 1j * rng.standard_normal(grid.n + 1))


def _laplacian(v):
    """Oracle: second differences (v_{i+1} - 2 v_i + v_{i-1})/h^2, i = 1..n-1."""
    u = v.values
    return (u[2:] - 2.0 * u[1:-1] + u[:-2]) / v.grid.h**2


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

    @pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan, 8.5, "8", None],
                             ids=["inf", "-inf", "nan", "fraction", "string", "none"])
    def test_invalid_count(self, n):
        # int(n) overflows on inf and raises a plain ValueError on NaN
        with pytest.raises(InvalidGrid, match="integer subinterval count"):
            make_grid(1.0, n)

    def test_count_beyond_any_array(self):
        # numpy raised a plain ValueError when the nodes were first sampled
        limit = sys.maxsize // 16  # complex nodal values in one array
        assert make_grid(1.0, limit - 1).n == limit - 1
        for n in (limit, 1e300, 10**400):
            with pytest.raises(InvalidGrid, match=f"need fewer than {limit} subintervals"):
                make_grid(1.0, n)

    def test_whole_float_count(self):
        assert make_grid(1.0, 8.0) == make_grid(1.0, 8)

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

    @pytest.mark.parametrize("fn, expected", [
        (lambda x: 2.0 if x > 0.5 else 0.0, [0.0, 0.0, 0.0, 2.0, 2.0]),  # scalar only
        (lambda x: 1.0, [1.0] * 5),                                     # scalar-returning
    ], ids=["scalar-only", "scalar-returning"])
    def test_scalar_callable(self, fn, expected):
        v = sample(fn, make_grid(1.0, 4))
        assert np.array_equal(v.values, np.array(expected, dtype=complex))

    def test_nonfinite_rejected(self):
        g = make_grid(1.0, 4)
        with pytest.raises(NonFiniteSample), np.errstate(divide="ignore"):
            sample(lambda x: 1.0 / np.asarray(x), g)

    @pytest.mark.parametrize("name, n", [("sine2", 2**18), ("box", 3**12), ("smooth", 2**16)])
    def test_real_source_equals_its_float64_samples(self, name, n):
        p, _ = make_benchmark(name, 32.0)
        g = make_grid(1.0, n)
        expected = nodal_values(p.f, g).astype(complex)
        assert sample(p.f, g).values.tobytes() == expected.tobytes()

    def test_real_source_peak_memory(self):
        # each block is converted to complex as it is sampled; a float64
        # copy of the whole grid beside the complex values peaked at 1.56
        # complex arrays of length n + 1
        p, _ = make_benchmark("sine2", 2.0**6)
        g = make_grid(1.0, 2**18)
        sample(p.f, g)
        tracemalloc.start()
        try:
            sample(p.f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 16 * (g.n + 1)


class TestBlockedSampling:
    # node counts m = n + 1 on both sides of one and two blocks, and the
    # two fine references of the CLI
    NODES = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 2**18 + 1, 3**12 + 1]

    @pytest.mark.parametrize("m", NODES)
    @pytest.mark.parametrize("name", list(BENCHMARKS))
    def test_equals_one_call_on_all_nodes(self, name, m):
        # oracle: the one vectorized call on grid.nodes(), bit for bit; every
        # benchmark source is real and samples to float64, every exact
        # solution to complex
        p, exact = make_benchmark(name, 32.0)
        g = make_grid(1.0, m - 1)
        for fn in [p.f] + ([] if exact is None else [exact.u]):
            vals = nodal_values(fn, g)
            assert vals.dtype == (float if fn is p.f else complex)
            assert vals.tobytes() == np.asarray(fn(g.nodes()), dtype=vals.dtype).tobytes()

    @pytest.mark.parametrize("m", [BLOCK - 1, 2 * BLOCK + 1])
    def test_calls_fn_once_per_block(self, m):
        sizes = []

        def fn(x):
            sizes.append(x.size)
            return x

        nodal_values(fn, make_grid(1.0, m - 1))
        assert sizes == [BLOCK] * (m // BLOCK) + [m % BLOCK]

    @pytest.mark.parametrize("m", [9, 2 * BLOCK + 1])
    def test_never_shares_memory_with_fn_result(self, m):
        # fn hands out views of one persistent array; the result is a copy
        store = np.zeros(BLOCK, dtype=complex)
        vals = nodal_values(lambda x: store[:x.size], make_grid(1.0, m - 1))
        assert not np.shares_memory(vals, store)
        vals[:] = 1.0
        assert not store.any()

    def test_scalar_only_callable_falls_back_per_node(self):
        # math.sin rejects an array, so every node is evaluated alone
        g = make_grid(1.0, BLOCK)
        calls = []

        def fn(x):
            calls.append(x)
            return complex(math.sin(3.0 * x), x)

        vals = nodal_values(fn, g)
        expected = np.array([complex(math.sin(3.0 * xi), xi) for xi in g.nodes()])
        assert vals.tobytes() == expected.tobytes()
        assert len(calls) == 1 + (BLOCK + 1)

    @pytest.mark.parametrize("m", [BLOCK + 1, 2 * BLOCK + 1])
    def test_nan_in_last_block_rejected(self, m):
        # the NaN sits at x = 1, the one node of the last block; assemble
        # checks the samples before it writes the boundary rows
        g = make_grid(1.0, m - 1)

        def f(x):
            return np.where(np.asarray(x) == 1.0, np.nan, 1.0)

        with pytest.raises(NonFiniteSample):
            sample(f, g)
        p = HelmholtzProblem(1.0, 1.0, f, 0j, 0j)
        for kind in SchemeKind:
            with pytest.raises(NonFiniteSample):
                assemble(p, g.n, kind)


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

    def test_homogeneity_and_triangle(self):
        rng = np.random.default_rng(1)
        g = make_grid(1.0, 48)
        for _ in range(20):
            v = _random_gf(rng, g)
            w = _random_gf(rng, g)
            c = complex(rng.standard_normal(), rng.standard_normal())
            vw = GridFunction(g, v.values + w.values)
            cv = GridFunction(g, c * v.values)
            for norm in (norm_l2h, seminorm_h1h):
                assert norm(cv) == pytest.approx(abs(c) * norm(v), rel=1e-12, abs=1e-12)
                assert norm(vw) <= norm(v) + norm(w) + 1e-12

    def test_summation_by_parts(self):
        # h sum (Delta_h v) conj(v) = -|v|_1^2 + grad_{n-1} conj(v_n) - grad_0 conj(v_0)
        rng = np.random.default_rng(2)
        for n in (8, 33, 100):
            g = make_grid(1.0, n)
            v = _random_gf(rng, g)
            lap = _laplacian(v)
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

    def test_same_grid_rejected(self):
        # a grid restricted onto itself is no finer reference
        v = sample(lambda x: np.asarray(x), make_grid(1.0, 8))
        with pytest.raises(NonNestedGrids, match="not finer"):
            restrict(v, make_grid(1.0, 8))

    def test_different_length_rejected(self):
        v = sample(lambda x: np.asarray(x), make_grid(2.0, 8))
        with pytest.raises(NonNestedGrids):
            restrict(v, make_grid(1.0, 4))

    def test_first_non_nested_grid_in_order_is_named(self):
        fine = make_grid(1.0, 2**6 * 3)
        nested = [make_grid(1.0, n) for n in (2, 3, 64, 96)]
        check_nested(fine, *nested)
        later = [make_grid(1.0, 7), make_grid(1.0, 128)]  # neither nests either
        for bad, message in [
            (make_grid(1.0, 5), "192 subintervals are not a multiple of 5"),
            (make_grid(1.0, 192), "192 subintervals are not finer than 192"),
            (make_grid(2.0, 3), "domain lengths differ: 1.0 vs 2.0"),
        ]:
            with pytest.raises(NonNestedGrids) as raised:
                check_nested(fine, *nested[:2], bad, *later, *nested[2:])
            assert str(raised.value) == message


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
