"""Uniform grids, complex grid functions, difference operators and discrete norms.

Grid functions are immutable complex nodal vectors on n+1 equispaced nodes.
The discrete L2 norm deliberately sums interior nodes only (i = 1..n-1);
boundary values enter through the max norm and the H1 seminorm. The V-norm
is the wavenumber-weighted energy norm used to report errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidGrid, NonFiniteSample, NonNestedGrids


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
        return np.arange(self.n + 1) * self.L / self.n


def make_grid(L: float, n: int) -> UniformGrid:
    """Validated grid constructor; requires L > 0 and n >= 2."""
    if not (L > 0) or not np.isfinite(L):
        raise InvalidGrid(f"domain length must be positive and finite, got {L!r}")
    if int(n) != n or n < 2:
        raise InvalidGrid(f"need an integer subinterval count >= 2, got {n!r}")
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


def sample(fn: Callable, grid: UniformGrid) -> GridFunction:
    """Evaluate fn at the grid nodes.

    Tries a single vectorized call first and falls back to per-node
    evaluation for scalar-only callables.
    """
    x = grid.nodes()
    try:
        vals = np.asarray(fn(x), dtype=complex)
        if vals.shape != x.shape:
            raise ValueError
    except (ValueError, TypeError):
        vals = np.array([complex(fn(xi)) for xi in x])
    return GridFunction(grid, vals)


def forward_diff(v: GridFunction) -> np.ndarray:
    """Forward differences (v_{i+1} - v_i)/h for i = 0..n-1."""
    u = v.values
    return (u[1:] - u[:-1]) / v.grid.h


def discrete_laplacian(v: GridFunction) -> np.ndarray:
    """Three-point second differences (v_{i+1} - 2 v_i + v_{i-1})/h^2, i = 1..n-1."""
    u = v.values
    return (u[2:] - 2.0 * u[1:-1] + u[:-2]) / v.grid.h**2


def norm_l2h(v: GridFunction) -> float:
    """Interior discrete L2 norm (nodes 1..n-1 only)."""
    return float(np.sqrt(v.grid.h * np.sum(np.abs(v.values[1:-1]) ** 2)))


def seminorm_h1h(v: GridFunction) -> float:
    """Discrete H1 seminorm from forward differences over all n cells."""
    d = forward_diff(v)
    return float(np.sqrt(v.grid.h * np.sum(np.abs(d) ** 2)))


def norm_v(v: GridFunction, k: float) -> float:
    """Energy norm sqrt(k^2 ||v||_{0,h}^2 + |v|_{1,h}^2)."""
    return float(np.hypot(k * norm_l2h(v), seminorm_h1h(v)))


def norm_linf(v: GridFunction) -> float:
    """Max nodal magnitude over all n+1 nodes."""
    return float(np.max(np.abs(v.values)))


def check_nested(fine: UniformGrid, coarse: UniformGrid) -> None:
    """Raise NonNestedGrids unless every coarse node is a fine node: the same
    domain length and n_fine an integer multiple of n_coarse."""
    if abs(fine.L - coarse.L) > 1e-14 * max(abs(coarse.L), 1.0):
        raise NonNestedGrids(f"domain lengths differ: {fine.L!r} vs {coarse.L!r}")
    if fine.n % coarse.n != 0:
        raise NonNestedGrids(f"{fine.n} subintervals are not a multiple of {coarse.n}")


def restrict(fine: GridFunction, coarse: UniformGrid) -> GridFunction:
    """Copy values from a nested fine grid onto the coarse nodes, exactly;
    no interpolation is ever performed."""
    check_nested(fine.grid, coarse)
    stride = fine.grid.n // coarse.n
    return GridFunction(coarse, fine.values[::stride].copy())
