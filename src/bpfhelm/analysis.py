"""Numerical verification layer: residuals, Fourier multipliers, bound
checks, and convergence studies.

The routines here evaluate, numerically, the identities and inequalities
that underpin the phase-fitted scheme: interior/boundary consistency
residuals and their second-order bounds, the sine-basis Fourier multipliers
with their uniform envelopes, wavenumber-explicit stability inequalities,
and mesh-refinement studies against exact or nested fine-grid references.
Nothing here proves anything; every check samples and compares.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidGrid, NearResonantFrequency
from .grid import (
    GridFunction,
    UniformGrid,
    check_nested,
    make_grid,
    nodal_values,
    norm_l2h,
    restrict,
    sample,
    seminorm_h1h,
)
from .numerics import (
    bernoulli,
    envelope_derivative_sup,
    nyquist_guard,
    phase_factor_m,
    stability_constant_a0,
    theta,
)
from .reference import (
    BENCHMARKS,
    ExactSolution,
    fine_grid_reference,
    make_benchmark,
    sine_squared_problem,
    smooth_manufactured_problem,
    smooth_source_derivatives,
)
from .schemes import (
    HelmholtzProblem,
    SchemeKind,
    apply_one_way_composition,
    apply_one_way_minus,
    apply_one_way_plus,
    assemble,
    solve_scheme,
)
from .trisolve import BLOCK, residual

QUAD_PANELS = 2**14  # composite-Simpson panels (an even count) for Sobolev norms of sources
ERROR_FLOOR = 1e-11  # below this, rate fitting is meaningless and skipped


# ---------------------------------------------------------------------------
# report containers


@dataclass(frozen=True)
class ErrorReport:
    """Absolute and relative errors in all four reported norms."""

    abs_linf: float
    rel_linf: float
    abs_l2h: float
    rel_l2h: float
    abs_h1: float
    rel_h1: float
    abs_v: float
    rel_v: float

    def rel(self, norm: str) -> float:
        return {"linf": self.rel_linf, "l2h": self.rel_l2h,
                "h1": self.rel_h1, "v": self.rel_v}[norm]


@dataclass(frozen=True)
class ConvergenceRow:
    k: float
    n: int
    h: float
    errors: ErrorReport


@dataclass(frozen=True)
class ConvergenceTable:
    """Per-mesh errors and fitted log-log rates; a norm with an error below
    ERROR_FLOOR or not finite gets no rate."""

    rows: list[ConvergenceRow]
    rates: dict[str, float]


@dataclass(frozen=True)
class CheckResult:
    """One named verification: it passes when the measured value is within
    its bound (a NaN value fails)."""

    name: str
    value: float
    bound: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.value <= self.bound


# ---------------------------------------------------------------------------
# quadrature helpers


def _simpson(vals: np.ndarray, dx: float) -> complex:
    """Composite Simpson rule on an odd number of equispaced samples."""
    s = vals[0] + vals[-1] + 4.0 * np.sum(vals[1:-1:2]) + 2.0 * np.sum(vals[2:-1:2])
    return s * dx / 3.0


def l2_norm_quad(fn, L: float) -> float:
    """||fn||_{L2(0,L)} by composite Simpson on QUAD_PANELS panels."""
    x = np.linspace(0.0, L, QUAD_PANELS + 1)
    vals = np.abs(np.asarray(fn(x))) ** 2
    return math.sqrt(abs(_simpson(vals, L / QUAD_PANELS)))


# ---------------------------------------------------------------------------
# consistency residuals


def consistency_residuals(p: HelmholtzProblem, exact: ExactSolution,
                          n: int) -> tuple[np.ndarray, complex, complex]:
    """The assembled BPF rows' residual A u - b on the exact solution u of p,
    split as (tau, beta0, betaL): tau_i = Theta(kh) (Delta_h u)(x_i) - u''(x_i)
    at the interior nodes and the closure residuals
    beta0 = k/sin(kh) (u(h) - e^{ikh} u(0)) - (u'(0) - ik u(0)) and its
    mirror at x = L, up to rounding. p's data must match exact."""
    r = residual(assemble(p, n, SchemeKind.BPF), nodal_values(exact.u, make_grid(p.L, n)))
    return r[1:-1], complex(r[0]), complex(r[-1])


def residual_report(p: HelmholtzProblem, exact: ExactSolution, n: int, fpp,
                    fppp) -> tuple[CheckResult, CheckResult]:
    """Residuals of p's exact solution against the second-order bounds
    driven by ||f''|| and ||f'''||: ("tau", ||tau||_{0,h}, its bound) and
    ("beta", |beta0| + |betaL|, its bound)."""
    grid = make_grid(p.L, n)
    tau, beta0, betaL = consistency_residuals(p, exact, n)
    tau_norm = float(math.sqrt(grid.h * np.sum(np.abs(tau) ** 2)))
    s = p.k * grid.h
    th = theta(s)
    f2 = l2_norm_quad(fpp, p.L)
    f3 = l2_norm_quad(fppp, p.L)
    tau_bound = p.L * th * grid.h**2 / 12.0 * f3
    beta_bound = 2.0 * math.sqrt(p.L * th) * abs(1.0 / math.cos(0.5 * s)) * grid.h**2 / 6.0 * f2
    return (CheckResult("tau", tau_norm, tau_bound),
            CheckResult("beta", abs(beta0) + abs(betaL), beta_bound))


# ---------------------------------------------------------------------------
# Fourier multipliers


def _near_resonance(xi, k: float):
    """Where xi^2 lies within 1e-12 k^2 of k^2 (the interior multiplier is 0/0 at xi = k)."""
    return np.abs(xi * xi - k * k) <= 1e-12 * k * k


def interior_multiplier(xi, h: float, k: float):
    """Interior symbol mismatch ratio, elementwise in xi,
    (Theta(kh) (4/h^2) sin^2(xi h/2) - xi^2) / (xi^2 - k^2)."""
    nyquist_guard(k, h)
    if np.any(_near_resonance(xi, k)):
        raise NearResonantFrequency(f"a frequency xi is too close to k = {k!r}")
    th = theta(k * h)
    half = np.sin(0.5 * xi * h)
    num = th * 4.0 / h**2 * (half * half) - xi * xi
    return num / (xi * xi - k * k)


def interior_multiplier_bound(xi, h: float, k: float):
    """Uniform envelope Theta(kh) h^2 xi^2 / 12 for the interior multiplier."""
    return theta(k * h) * h**2 * xi * xi / 12.0


def _sinc_sqrt_derivative(t):
    """Derivative of sin(sqrt t)/sqrt t for t > 0; series below sqrt(t) = 1/2.
    Powers are products: numpy's power on arrays and on scalars can differ
    in the last bit."""
    s = np.sqrt(t)
    return np.where(s < 0.5,
                    -1.0 / 6.0 + t / 60.0 - t * t / 1680.0 + t * t * t / 90720.0,
                    (s * np.cos(s) - np.sin(s)) / (2.0 * (s * s * s)))


def boundary_multiplier(xi, h: float, k: float, L: float):
    """Boundary symbol mismatch, elementwise in xi,
    sqrt(2/L) * ((k/sin kh) sin(xi h) - xi) / (xi^2 - k^2).

    The point xi = k is removable; within |xi - k| h < 1e-4 the difference
    quotient is replaced by a midpoint-derivative series branch.
    """
    nyquist_guard(k, h)
    scale = math.sqrt(2.0 / L)
    a = xi * h
    b = k * h
    near = np.abs(xi - k) * h < 1e-4
    mid = 0.5 * (a * a + b * b)
    series = scale * (h * a * b / math.sin(b)) * _sinc_sqrt_derivative(mid)
    # a denominator of 1 keeps the quotient that is not taken finite at xi = k
    denom = np.where(near, 1.0, xi * xi - k * k)
    direct = scale * ((k / math.sin(b)) * np.sin(a) - xi) / denom
    return np.where(near, series, direct)[()]  # [()]: a scalar for scalar xi


def boundary_multiplier_bound(xi, h: float, k: float, L: float):
    """Uniform envelope sqrt(2 Theta / L) (xi h^2 / 6) |sec(kh/2)|."""
    th = theta(k * h)
    return math.sqrt(2.0 * th / L) * xi * h**2 / 6.0 * abs(1.0 / math.cos(0.5 * k * h))


# ---------------------------------------------------------------------------
# stability and flux inequalities


def stability_bound_check(p: HelmholtzProblem,
                          u_h: GridFunction) -> tuple[CheckResult, CheckResult]:
    """("l2", k ||u||_{0,h}, rhs) and ("h1", sqrt(Theta) |u|_{1,h}, rhs),
    where rhs = A0(kh, kL) ||f||_{0,h} + sqrt(L)/2 (|g0| + |gL|)."""
    grid = u_h.grid
    s = p.k * grid.h
    t = p.k * p.L
    a0 = stability_constant_a0(s, t, p.L)
    rhs = a0 * norm_l2h(sample(p.f, grid)) + 0.5 * math.sqrt(p.L) * (abs(p.g0) + abs(p.gL))
    return (CheckResult("l2", p.k * norm_l2h(u_h), rhs),
            CheckResult("h1", math.sqrt(theta(s)) * seminorm_h1h(u_h), rhs))


def flux_estimate_check(p: HelmholtzProblem,
                        u_h: GridFunction) -> tuple[CheckResult, CheckResult]:
    """("flux", h (||D+ u||^2 + ||D- u||^2), (L^2/Theta) ||f||^2) and the
    auxiliary energy bound ("aux", energy, (L^2/(2 Theta)) ||f||^2), both
    requiring homogeneous radiation data."""
    if abs(p.g0) != 0.0 or abs(p.gL) != 0.0:
        raise ValueError("flux estimate applies to homogeneous radiation data only")
    th, flux_lhs, aux_lhs = _flux_and_energy(u_h, p.k)
    fnorm2 = norm_l2h(sample(p.f, u_h.grid)) ** 2
    return (CheckResult("flux", flux_lhs, p.L**2 / th * fnorm2),
            CheckResult("aux", aux_lhs, p.L**2 / (2.0 * th) * fnorm2))


def _flux_and_energy(v: GridFunction, k: float) -> tuple[float, float, float]:
    """(Theta(kh), flux, energy) of v: the flux h (||D+ v||^2 + ||D- v||^2) is
    twice the energy Theta cos(kh) |v|_{1,h}^2 + k^2 ||v||_{0,h}^2
    + (k^2 h/2)(|v_0|^2 + |v_n|^2) for every grid function v."""
    h = v.grid.h
    s = k * h
    th = theta(s)
    flux = float(h * (np.sum(np.abs(apply_one_way_plus(v, k)) ** 2)
                      + np.sum(np.abs(apply_one_way_minus(v, k)) ** 2)))
    u = v.values
    energy = (th * math.cos(s) * seminorm_h1h(v) ** 2
              + k**2 * norm_l2h(v) ** 2
              + 0.5 * k**2 * h * (abs(u[0]) ** 2 + abs(u[-1]) ** 2))
    return th, flux, energy


def energy_identity_mismatch(p: HelmholtzProblem, u_h: GridFunction) -> float:
    """Relative defect of the discrete energy identity for a
    homogeneous-radiation solve:
        Theta |u|_{1,h}^2 - (k^2 h/2)(|u_0|^2 + |u_n|^2) - k^2 ||u||_{0,h}^2
            = -Re(f, u)_h.
    The sign of the right-hand side matches the orientation
    Theta Delta_h u + k^2 u = f used by the assembled scheme."""
    if abs(p.g0) != 0.0 or abs(p.gL) != 0.0:
        raise ValueError("energy identity applies to homogeneous radiation data only")
    grid = u_h.grid
    u = u_h.values
    grad = theta(p.k * grid.h) * seminorm_h1h(u_h) ** 2
    lhs = (grad
           - 0.5 * p.k**2 * grid.h * (abs(u[0]) ** 2 + abs(u[-1]) ** 2)
           - p.k**2 * norm_l2h(u_h) ** 2)
    fv = sample(p.f, grid).values[1:-1]
    rhs = -float(np.real(grid.h * np.sum(fv * np.conj(u[1:-1]))))
    # terms that overflow leave lhs inf - inf = NaN, which _ratio reports
    # as inf rather than as a perfect 0
    return _ratio(abs(lhs - rhs), max(abs(lhs), abs(rhs), grad))


# ---------------------------------------------------------------------------
# convergence studies


def _ratio(lhs: float, rhs: float) -> float:
    """lhs / rhs; for rhs <= 0, 0 when lhs <= 0 and inf otherwise."""
    if rhs > 0:
        return lhs / rhs
    return 0.0 if lhs <= 0 else math.inf


def error_report(u_h: GridFunction, ref: GridFunction, k: float) -> ErrorReport:
    """Errors of u_h against a reference on the same grid, in all four norms.

    Each norm of the error and of the reference takes the operations of
    max |v| over all nodes, norm_l2h, seminorm_h1h and hypot(k l2h, h1)
    (tests/conftest.py holds the max and V norm oracles), so every field is
    bitwise what those give on the two arrays apart. The two are taken
    together: the magnitudes |u_i| and |(u_{i+1} - u_i)/h| of both are the
    two rows of one real array each, so that each reduction runs once for
    both and sees a whole row, which rounds as a 1-D array does. The complex
    error and differences exist one block of BLOCK nodes at a time only,
    because on a fine grid fresh pages cost more than the arithmetic.
    """
    if u_h.grid != ref.grid:
        raise ValueError("solution and reference live on different grids")
    h = u_h.grid.h
    u, r = u_h.values, ref.values
    m = r.shape[0]
    mag = np.empty((2, m))
    slope = np.empty((2, m - 1))
    width = min(m - 1, BLOCK)
    err = np.empty(width + 1, dtype=complex)
    steps = np.empty((2, width), dtype=complex)
    for i0 in range(0, m - 1, width):
        i1 = min(i0 + width, m - 1)  # slopes i0 .. i1-1, from nodes i0 .. i1
        ref_block = r[i0:i1 + 1]
        err_block = np.subtract(u[i0:i1 + 1], ref_block, out=err[:i1 - i0 + 1])
        np.abs(err_block, out=mag[0, i0:i1 + 1])
        np.abs(ref_block, out=mag[1, i0:i1 + 1])
        step = steps[:, :i1 - i0]
        np.subtract(err_block[1:], err_block[:-1], out=step[0])
        np.subtract(ref_block[1:], ref_block[:-1], out=step[1])
        step /= h
        np.abs(step, out=slope[:, i0:i1])
    a_linf, r_linf = mag.max(axis=1).tolist()
    # Slopes are at most 2 max / h. Where m squares that large could
    # overflow, each row is divided by a power of two near its maximum
    # (exactly) and its norms are multiplied back.
    scaled = 2.0 * max(a_linf, r_linf) / h >= math.sqrt(sys.float_info.max / m)
    if scaled:
        scale = np.ldexp(1.0, [[math.frexp(a_linf)[1] - 1], [math.frexp(r_linf)[1] - 1]])
        mag /= scale
        slope /= scale
    inner = mag[:, 1:-1]
    inner *= inner
    l2 = np.sqrt(h * inner.sum(axis=1))
    slope *= slope
    h1 = np.sqrt(h * slope.sum(axis=1))
    if scaled:
        l2 *= scale[:, 0]
        h1 *= scale[:, 0]
    (a_l2, r_l2), (a_h1, r_h1) = l2.tolist(), h1.tolist()
    # the V norms from the parts above, as the V norm oracle of the tests does
    a_v, r_v = float(np.hypot(k * a_l2, a_h1)), float(np.hypot(k * r_l2, r_h1))
    return ErrorReport(
        abs_linf=a_linf, rel_linf=_ratio(a_linf, r_linf),
        abs_l2h=a_l2, rel_l2h=_ratio(a_l2, r_l2),
        abs_h1=a_h1, rel_h1=_ratio(a_h1, r_h1),
        abs_v=a_v, rel_v=_ratio(a_v, r_v),
    )


def fit_rate(hs, errs) -> float:
    """Least-squares slope of log(err) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if hs.size < 2:
        raise ValueError("rate fit needs at least two mesh sizes")
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def convergence_study(benchmark: str, kind: SchemeKind, k: float, n_list,
                      n_ref: int | None = None) -> ConvergenceTable:
    """Solve one benchmark over a strictly increasing list of at least two
    subinterval counts and fit log-log rates of the relative max and V errors.

    The reference follows the benchmark: its closed form if it has one, else
    a cached fine-grid solve of the same scheme on n_ref subintervals
    (default: the registry's resolution), which every count must divide and
    be less than (check_nested, the one nesting rule, names the first that
    fails). Before any solve, InvalidGrid is raised for fewer than two counts
    or counts not strictly increasing (checked first, ahead of the
    benchmark's guards), for n_ref given with a closed form, and for a count
    that make_grid rejects. Cells run in n_list order.
    """
    n_list = list(n_list)
    if len(n_list) < 2 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InvalidGrid("a convergence study needs at least two subinterval counts, "
                          f"strictly increasing, got {n_list!r}")
    problem, exact = make_benchmark(benchmark, k)
    if exact is not None and n_ref is not None:
        raise InvalidGrid(f"fine resolution n_ref (--n) = {n_ref!r} given, but benchmark "
                          f"{benchmark!r} is compared against its closed form")
    grids = [make_grid(problem.L, n) for n in n_list]
    fine = None
    if exact is None:
        n_ref = BENCHMARKS[benchmark][1] if n_ref is None else n_ref
        check_nested(make_grid(problem.L, n_ref), *grids)
        fine = fine_grid_reference(problem, n_ref, kind)

    def run_cell(n: int) -> ConvergenceRow:
        u_h = solve_scheme(problem, n, kind)
        if fine is None:
            ref = sample(exact.u, u_h.grid)
        else:
            ref = restrict(fine, u_h.grid)
        return ConvergenceRow(k, n, u_h.grid.h, error_report(u_h, ref, k))

    rows = [run_cell(grid.n) for grid in grids]

    hs = [row.h for row in rows]
    rates: dict[str, float] = {}
    for norm in ("linf", "v"):
        errs = [row.errors.rel(norm) for row in rows]
        if all(math.isfinite(e) and e >= ERROR_FLOOR for e in errs):
            rates[norm] = fit_rate(hs, errs)
    return ConvergenceTable(rows, rates)


# ---------------------------------------------------------------------------
# verification suites (wrapped by the CLI's `verify` subcommand)


def _random_grid_function(rng: np.random.Generator, grid: UniformGrid) -> GridFunction:
    vals = rng.standard_normal(grid.n + 1) + 1j * rng.standard_normal(grid.n + 1)
    return GridFunction(grid, vals)


def _rel_mismatch(a, b) -> float:
    """Worst elementwise |a - b| / max(|a|, |b|), taking 0 where both vanish;
    a NaN anywhere gives NaN."""
    scale = np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.abs(np.subtract(a, b)) / np.where(scale > 0, scale, 1.0)))


def _bpf_rows(v: GridFunction, k: float) -> np.ndarray:
    """The assembled BPF rows applied to v: A v - b for zero data."""
    p = HelmholtzProblem(k, v.grid.L, np.zeros_like, 0j, 0j)
    return residual(assemble(p, v.grid.n, SchemeKind.BPF), v.values)


def verify_identities(seed: int = 0) -> list[CheckResult]:
    """Algebraic identity suite: Bernoulli reflection/difference, weight
    consistency, factorization, boundary rewrite, flux-energy relation,
    discrete energy identity, envelope derivative sups."""
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    # Reflection and difference identities on 1e4 random points of |z| <= 10.
    zs = 10.0 * np.sqrt(rng.uniform(0, 1, 10_000)) * np.exp(2j * math.pi * rng.uniform(0, 1, 10_000))
    b_pos, b_neg = bernoulli(zs), bernoulli(-zs)
    checks.append(CheckResult("bernoulli_reflection", _rel_mismatch(b_neg, np.exp(zs) * b_pos), 1e-12))
    checks.append(CheckResult("bernoulli_difference", _rel_mismatch(b_neg - b_pos, zs), 1e-12))

    # Theta against |B(is)|^2 and its range on [0, pi].
    s_grid = np.linspace(1e-3, 2.0 * math.pi - 0.05, 500)
    th = np.array([theta(s) for s in s_grid])
    worst = float(np.max(np.abs(th - np.abs(bernoulli(1j * s_grid)) ** 2) / th))
    checks.append(CheckResult("theta_matches_bernoulli", worst, 1e-13))
    s_grid = np.linspace(0.0, math.pi, 1001)
    vals = np.array([theta(s) for s in s_grid])
    worst = max(float(np.max(1.0 - vals)), float(np.max(vals - math.pi**2 / 4.0)))
    checks.append(CheckResult("theta_range", worst, 1e-12))

    # B(is)/m(s) = s/sin(s) on (0, pi).
    s_grid = np.linspace(0.05, math.pi - 0.05, 200)
    worst = _rel_mismatch(bernoulli(1j * s_grid) / phase_factor_m(s_grid), s_grid / np.sin(s_grid))
    checks.append(CheckResult("key_identity_b_over_m", worst, 1e-13))

    # Factorization of the composed one-way operators into the assembled
    # interior rows Theta(kh) Delta_h v + k^2 v.
    # Each check below reduces its values once: Python's max would drop a NaN.
    ratios = []
    for k, n in ((2.0, 8), (12.5, 24), (32.0, 32)):
        grid = make_grid(1.0, n)
        v = _random_grid_function(rng, grid)
        defect = apply_one_way_composition(v, k) - _bpf_rows(v, k)[1:-1]
        ratios.append(math.sqrt(grid.h * float(np.sum(np.abs(defect) ** 2))) / norm_l2h(v))
    checks.append(CheckResult("factorization_three_point", float(np.max(ratios)), 1e-12))

    # Boundary rewrite: (1/m) (D+ v)_0 and (1/m) (D- v)_n are the assembled
    # closure rows (k/sin kh)(v_1 - e^{ikh} v_0) and (k/sin kh)(e^{ikh} v_n - v_{n-1}).
    lhs, rhs = [], []
    for k, n in ((2.0, 8), (12.5, 24), (32.0, 32)):
        grid = make_grid(1.0, n)
        v = _random_grid_function(rng, grid)
        m = phase_factor_m(k * grid.h)
        rows = _bpf_rows(v, k)
        lhs += [apply_one_way_plus(v, k)[0] / m, apply_one_way_minus(v, k)[-1] / m]
        rhs += [rows[0], rows[-1]]
    checks.append(CheckResult("boundary_rewrite", _rel_mismatch(lhs, rhs), 1e-12))

    # Flux-energy relation for arbitrary grid functions.
    lhs, rhs = [], []
    for k, n in ((2.0, 16), (12.5, 32), (32.0, 64)):
        _, flux, energy = _flux_and_energy(_random_grid_function(rng, make_grid(1.0, n)), k)
        lhs.append(flux)
        rhs.append(2.0 * energy)
    checks.append(CheckResult("flux_energy_relation", _rel_mismatch(lhs, rhs), 1e-12))

    # Discrete energy identity on homogeneous-radiation solves. With the
    # orientation Theta Delta_h u + k^2 u = f adopted throughout, summation
    # by parts puts -Re(f, u)_h on the right-hand side.
    ratios = []
    for bench_k in (2**5, 2**6):
        p, _ = sine_squared_problem(bench_k)
        p = replace(p, g0=0.0 + 0.0j, gL=0.0 + 0.0j)
        ratios.append(energy_identity_mismatch(p, solve_scheme(p, 2**8, SchemeKind.BPF)))
    checks.append(CheckResult("discrete_energy_identity", float(np.max(ratios)), 1e-10))

    for which, limit in (("g", 1.0 / 3.0), ("h", 1.0 / 6.0)):
        sup = envelope_derivative_sup(which)
        bound = limit + 1e-6
        checks.append(CheckResult(f"envelope_sup_{which}", sup, bound))

    return checks


def verify_multipliers(seed: int = 0) -> list[CheckResult]:
    """Multiplier-envelope suite: both uniform bounds over 1000 log-spaced
    frequencies for 20 randomized (k, h) pairs with kh in (0.1, 3.0)."""
    rng = np.random.default_rng(seed)
    L = 1.0
    checks = []
    for j in range(20):
        s = rng.uniform(0.1, 3.0)
        k = 2.0 ** rng.uniform(4.0, 9.0)
        h = s / k
        xi_grid = np.logspace(math.log10(math.pi / L), math.log10(1e3 * k), 1000)
        xi_off = xi_grid[~_near_resonance(xi_grid, k)]  # the interior 0/0 is skipped
        for label, xi, value, bound in (
                ("interior", xi_off, interior_multiplier(xi_off, h, k),
                 interior_multiplier_bound(xi_off, h, k)),
                ("boundary", xi_grid, boundary_multiplier(xi_grid, h, k, L),
                 boundary_multiplier_bound(xi_grid, h, k, L))):
            checks.append(CheckResult(
                f"{label}_multiplier_bound_{j:02d}", float(np.max(np.abs(value) / bound)),
                1.0 + 1e-10, detail=f"kh={s:.4f} k={k:.4f} samples={xi.size}",
            ))
    return checks


def verify_residuals() -> list[CheckResult]:
    """Residual-bound suite on the smooth manufactured benchmark: measured
    ||tau||_{0,h} and |beta0| + |betaL| against their second-order bounds
    for k = 2^4..2^8 and n = 3^5..3^8, where kh = k/n is at most 256/243."""
    checks = []
    for ke in (4, 5, 6, 7, 8):
        k = float(2**ke)
        p, exact = smooth_manufactured_problem(k)
        _, fpp, fppp = smooth_source_derivatives(k)
        for ne in (5, 6, 7, 8):
            for c in residual_report(p, exact, 3**ne, fpp, fppp):
                checks.append(CheckResult(f"{c.name}_bound_k{ke}_n{ne}", _ratio(c.value, c.bound),
                                          1.0, detail=f"k=2^{ke} n=3^{ne}"))
    return checks


def verify_stability() -> list[CheckResult]:
    """Stability suite over all four benchmarks at k = 2^5..2^8, n = 2^7..2^10:
    the two a-priori bounds on the full problems plus the flux and auxiliary
    energy bounds on their homogeneous-radiation counterparts."""
    checks = []
    for bench in BENCHMARKS:
        for ke in (5, 6, 7, 8):
            k = float(2**ke)
            p, _ = make_benchmark(bench, k)
            p_hom = replace(p, g0=0.0 + 0.0j, gL=0.0 + 0.0j)
            ratios: dict[str, list[float]] = {}  # keyed l2, h1, flux, aux in that order
            for ne in (7, 8, 9, 10):
                n = 2**ne
                for c in (*stability_bound_check(p, solve_scheme(p, n, SchemeKind.BPF)),
                          *flux_estimate_check(p_hom, solve_scheme(p_hom, n, SchemeKind.BPF))):
                    ratios.setdefault(c.name, []).append(_ratio(c.value, c.bound))
            slack = 1.0 + 1e-12
            for label, vals in ratios.items():
                checks.append(CheckResult(f"stability_{label}_{bench}_k{ke}", float(np.max(vals)),
                                          slack, detail=f"{bench} k=2^{ke}"))
    return checks


VERIFY_SUITES = {
    "identities": verify_identities,
    "multipliers": verify_multipliers,
    "residuals": lambda seed=0: verify_residuals(),
    "stability": lambda seed=0: verify_stability(),
}
