"""Property checks of the table-driven assembler over random (n, kh) draws."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpfhelm.errors import NearNyquist
from bpfhelm.grid import make_grid, sample
from bpfhelm.numerics import GUARD_TOL, shifted_wavenumber, theta
from bpfhelm.reference import make_benchmark, plane_wave_problem
from bpfhelm.schemes import SchemeKind, assemble, solve_scheme

EPS = np.finfo(float).eps

# Derandomized so the suite draws the same cells on every run.
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, database=None, derandomize=True)

grid_sizes = st.integers(min_value=2, max_value=512)
kh_values = st.floats(min_value=0.05, max_value=3.0)
amplitude_parts = st.floats(min_value=-2.0, max_value=2.0)
amplitudes = st.builds(complex, amplitude_parts, amplitude_parts)


@PROPERTY_SETTINGS
@given(n=grid_sizes, kh=kh_values, alpha=amplitudes, beta=amplitudes)
def test_bpf_reproduces_plane_waves(n, kh, alpha, beta):
    k = kh * n
    p, exact = plane_wave_problem(k, alpha, beta)
    u_h = solve_scheme(p, n, SchemeKind.BPF)
    err = float(np.max(np.abs(u_h.values - sample(exact.u, u_h.grid).values)))
    # round-off floor: boundary rows carry k/sin(kh) times the amplitudes
    bound = max(1e-12, 64.0 * EPS * (abs(alpha) + abs(beta)) * k / abs(math.sin(kh)))
    assert err <= bound


@PROPERTY_SETTINGS
@given(n=grid_sizes, kh=kh_values)
def test_dispersion_corrected_interior_rows_annihilate_plane_waves(n, kh):
    k = kh * n
    p, _ = plane_wave_problem(k, 1.0, 0.0)
    sys = assemble(p, n, SchemeKind.DISPERSION_CORRECTED_FD)
    x = make_grid(1.0, n).nodes()
    scale = float(np.max(np.abs(sys.diag)))
    for sign in (1.0, -1.0):
        u = np.exp(sign * 1j * k * x)
        interior = sys.lower[:-1] * u[:-2] + sys.diag[1:-1] * u[1:-1] + sys.upper[1:] * u[2:]
        assert float(np.max(np.abs(interior))) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(n=grid_sizes, m=st.integers(min_value=1, max_value=8),
       sign=st.sampled_from([1.0, -1.0]))
def test_nyquist_guard_boundary(n, m, sign):
    # the guard rejects kh within GUARD_TOL*pi of m*pi and nothing farther out
    for kind in (SchemeKind.BPF, SchemeKind.DISPERSION_CORRECTED_FD):
        inside, _ = plane_wave_problem((m + sign * 0.5 * GUARD_TOL) * math.pi * n, 1.0, 0.0)
        with pytest.raises(NearNyquist):
            assemble(inside, n, kind)
        outside, _ = plane_wave_problem((m + sign * 2.0 * GUARD_TOL) * math.pi * n, 1.0, 0.0)
        sys = assemble(outside, n, kind)
        for coefficients in (sys.lower, sys.diag, sys.upper, sys.rhs):
            assert np.all(np.isfinite(coefficients))


def _full_diagonals(p, n, kind):
    """The diagonals as np.full and the boundary entries built them before
    assembled systems stored their stencil."""
    h = make_grid(p.L, n).h
    kh = p.k * h
    if kind is SchemeKind.BPF:
        w, kk = theta(kh), p.k**2
    elif kind is SchemeKind.CLASSICAL_FD:
        w, kk = 1.0, p.k**2
    else:
        w, kk = 1.0, shifted_wavenumber(p.k, h) ** 2
    lower = np.full(n, w / h**2, dtype=complex)
    diag = np.full(n + 1, kk - 2.0 * w / h**2, dtype=complex)
    upper = np.full(n, w / h**2, dtype=complex)
    if kind is SchemeKind.BPF:
        bfac = p.k / math.sin(kh)
        phase = cmath.exp(1j * p.k * h)
        diag[0] = -bfac * phase
        upper[0] = bfac
        lower[-1] = -bfac
        diag[-1] = bfac * phase
    else:
        two_over_h2 = 2.0 / h**2
        diag[0] = diag[-1] = p.k * p.k - 2.0j * p.k / h - two_over_h2
        upper[0] = lower[-1] = two_over_h2
    return lower, diag, upper


@PROPERTY_SETTINGS
@given(kind=st.sampled_from(list(SchemeKind)),
       name=st.sampled_from(["planewave", "smooth", "sine2", "box"]),
       n=grid_sizes, kh=kh_values)
def test_built_diagonals_match_full_construction(kind, name, n, kh):
    p, _ = make_benchmark(name, kh * n)
    sys = assemble(p, n, kind)
    for built, full in zip((sys.lower, sys.diag, sys.upper), _full_diagonals(p, n, kind)):
        assert built.tobytes() == full.tobytes()
