"""Uniform grids, complex grid functions, difference operators and discrete norms.

Grid functions are immutable complex nodal vectors on n+1 equispaced nodes.
The discrete L2 norm deliberately sums interior nodes only (i = 1..n-1);
boundary values enter through the H1 seminorm.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidGrid, NonFiniteSample, NonNestedGrids
from .trisolve import BLOCK


@dataclass(frozen=True)
class UniformGrid:
    """n uniform subintervals of [0, L]; nodes x_i = i*L/n for i = 0..n."""

    L: float
    n: int

    @property
    def h(self) -> float:
        return self.L / self.n

    def nodes(self) -> np.ndarray:
        # (i*L)/n keeps coincident nodes of nested grids bitwise equal
        # whenever i*L is exact (always true for L = 1).
        return _scaled(np.arange(self.n + 1, dtype=float), self)


def _scaled(i: np.ndarray, grid: UniformGrid) -> np.ndarray:
    """The nodes i*L/n of grid for the float node indices i, in place."""
    i *= grid.L
    i /= grid.n
    return i


def make_grid(L: float, n: int) -> UniformGrid:
    """Validated grid constructor; requires L > 0 and a whole n >= 2 whose
    n + 1 complex nodal values fit in one numpy array."""
    if not (L > 0) or not np.isfinite(L):
        raise InvalidGrid(f"domain length must be positive and finite, got {L!r}")
    try:
        whole = int(n) == n
    except (TypeError, ValueError, OverflowError):  # not a number, NaN or inf
        whole = False
    if not whole or n < 2:
        raise InvalidGrid(f"need an integer subinterval count >= 2, got {n!r}")
    limit = sys.maxsize // 16  # entries of the largest complex128 array numpy allows
    if n >= limit:
        raise InvalidGrid(f"need fewer than {limit} subintervals for an array to hold the nodes")
    return UniformGrid(float(L), int(n))


@dataclass(frozen=True)
class GridFunction:
    """Complex nodal values bound to their grid; values are read-only."""

    grid: UniformGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n + 1,):
            raise ValueError(
                f"expected {self.grid.n + 1} nodal values, got shape {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise NonFiniteSample("grid function contains NaN/Inf entries")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def nodal_values(fn: Callable, grid: UniformGrid) -> np.ndarray:
    """fn at the grid nodes, as a new writable array of fn's own kind:
    float64 while fn's values are real, complex from the first block on
    which they are complex, which converts the blocks before it once.

    fn must be pointwise: each value depends on its own node only. It is
    called once per block of trisolve.BLOCK nodes, on that block's nodes
    (bitwise those of grid.nodes()), and each block's values go straight
    into the result, so a fine grid never holds fn's full-length
    temporaries; a grid of at most BLOCK nodes (every coarse grid) is one
    call. A callable that fails on a block's nodes (ValueError or
    TypeError, or a result of the wrong shape), as a scalar-only one does
    on the first, is evaluated node by node from that block on; there a
    block whose values are not all real numbers is complex. The result
    never shares memory with what fn returned, so the caller may write to
    it or freeze it.
    """
    m = grid.n + 1
    vals = None
    per_node = False
    for i0 in range(0, m, BLOCK):
        i1 = min(i0 + BLOCK, m)
        x = _scaled(np.arange(i0, i1, dtype=float), grid)
        if not per_node:
            try:
                fx = np.asarray(fn(x))
                if fx.shape != x.shape:
                    raise ValueError
                vals = _holding(vals, m, fx)
                vals[i0:i1] = fx
                continue
            except (ValueError, TypeError):
                per_node = True
        ys = [fn(xi) for xi in x]
        real = all(isinstance(y, numbers.Real) for y in ys)
        fx = np.array([float(y) if real else complex(y) for y in ys])
        vals = _holding(vals, m, fx)
        vals[i0:i1] = fx
    return vals


def _holding(vals: np.ndarray | None, m: int, fx: np.ndarray) -> np.ndarray:
    """vals, or a new array of m entries if None, of a kind that holds the
    values fx: complex if they are, float64 otherwise; a float64 vals that
    meets complex values is converted."""
    kind = complex if fx.dtype.kind == "c" else float
    if vals is None:
        return np.empty(m, dtype=kind)
    return vals.astype(complex) if kind is complex and vals.dtype != complex else vals


def sample(fn: Callable, grid: UniformGrid) -> GridFunction:
    """fn at the grid nodes (see nodal_values), made complex block by block."""
    return GridFunction(grid, nodal_values(lambda x: np.asarray(fn(x), dtype=complex), grid))


def forward_diff(v: GridFunction) -> np.ndarray:
    """Forward differences (v_{i+1} - v_i)/h for i = 0..n-1."""
    u = v.values
    return (u[1:] - u[:-1]) / v.grid.h


def norm_l2h(v: GridFunction) -> float:
    """Interior discrete L2 norm (nodes 1..n-1 only)."""
    return float(np.sqrt(v.grid.h * np.sum(np.abs(v.values[1:-1]) ** 2)))


def seminorm_h1h(v: GridFunction) -> float:
    """Discrete H1 seminorm from forward differences over all n cells."""
    d = forward_diff(v)
    return float(np.sqrt(v.grid.h * np.sum(np.abs(d) ** 2)))


def check_nested(fine: UniformGrid, *coarse: UniformGrid) -> None:
    """The one nesting rule: raise NonNestedGrids for the first coarse grid,
    in order, that fine does not refine. Fine refines a grid of the same
    domain length whose n divides n_fine and is less than it."""
    for grid in coarse:
        if abs(fine.L - grid.L) > 1e-14 * max(abs(grid.L), 1.0):
            raise NonNestedGrids(f"domain lengths differ: {fine.L!r} vs {grid.L!r}")
        if fine.n % grid.n != 0:
            raise NonNestedGrids(f"{fine.n} subintervals are not a multiple of {grid.n}")
        if fine.n == grid.n:
            raise NonNestedGrids(f"{fine.n} subintervals are not finer than {grid.n}")


def restrict(fine: GridFunction, coarse: UniformGrid) -> GridFunction:
    """Copy values from a nested fine grid onto the coarse nodes, exactly;
    no interpolation is ever performed."""
    check_nested(fine.grid, coarse)
    stride = fine.grid.n // coarse.n
    return GridFunction(coarse, fine.values[::stride].copy())
