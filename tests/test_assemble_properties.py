"""Property checks of the table-driven assembler over random (n, kh) draws."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bpfhelm.grid import make_grid, sample
from bpfhelm.reference import plane_wave_problem
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
