"""Shared fixtures."""

import os
from pathlib import Path

import numpy as np
import pytest

import bpfhelm
from bpfhelm import trisolve
from bpfhelm.grid import norm_l2h, seminorm_h1h


@pytest.fixture
def child_env():
    """Environment for a child Python process that imports the same bpfhelm
    as this run: its source directory leads PYTHONPATH."""
    src = str(Path(bpfhelm.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


@pytest.fixture(scope="session")
def norm_linf():
    """Oracle: the max nodal magnitude of a GridFunction over all n+1 nodes."""
    return lambda v: float(np.max(np.abs(v.values)))


@pytest.fixture(scope="session")
def norm_v():
    """Oracle: the energy norm sqrt(k^2 ||v||_{0,h}^2 + |v|_{1,h}^2) of a
    GridFunction, as norm_v(v, k)."""
    return lambda v, k: float(np.hypot(k * norm_l2h(v), seminorm_h1h(v)))


@pytest.fixture(scope="session")
def dense_matrix():
    """Oracle: the dense matrix of a TridiagonalSystem, from its built
    diagonals, as dense_matrix(sys)."""
    return lambda sys: np.diag(sys.diag) + np.diag(sys.lower, -1) + np.diag(sys.upper, 1)


@pytest.fixture(scope="session")
def interior_rows():
    """Oracle: the interior rows 1..m-2 of a TridiagonalSystem applied to
    the vector u, from its built diagonals, as interior_rows(sys, u)."""
    return lambda sys, u: sys.lower[:-1] * u[:-2] + sys.diag[1:-1] * u[1:-1] + sys.upper[1:] * u[2:]


@pytest.fixture
def solve_routes(monkeypatch):
    """The path and correction step count of each solve_tridiagonal call
    from here on, as kernel-1 or root-2."""
    routed = []
    for path in ("kernel", "root"):
        def factory_spy(sys, path=path, factory=getattr(trisolve, f"_{path}_solver")):
            routed.append(path)
            return factory(sys)

        monkeypatch.setattr(trisolve, f"_{path}_solver", factory_spy)
    solve = trisolve._solve

    def solve_spy(sys, solver, steps):
        routed[-1] += f"-{steps}"
        return solve(sys, solver, steps)

    monkeypatch.setattr(trisolve, "_solve", solve_spy)
    return routed
