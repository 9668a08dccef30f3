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
from dataclasses import dataclass, replace

import numpy as np

from .errors import NearResonantFrequency
from .grid import (
    GridFunction,
    UniformGrid,
    check_nested,
    discrete_laplacian,
    make_grid,
    norm_l2h,
    norm_linf,
    restrict,
    sample,
    seminorm_h1h,
)
from .numerics import (
    GUARD_TOL,
    _bernoulli_closed,
    _bernoulli_series,
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
    solve_scheme,
)

QUAD_PANELS = 2**14  # composite-Simpson panels (an even count) for Sobolev norms of sources
ERROR_FLOOR = 1e-11  # below this, rate fitting is meaningless and skipped


# ---------------------------------------------------------------------------
# report containers


@dataclass(frozen=True)
class ResidualReport:
    """Consistency residuals of an exact solution plus their proved bounds."""

    tau_norm: float
    beta0: complex
    betaL: complex
    tau_bound: float
    beta_bound: float


@dataclass(frozen=True)
class MultiplierSample:
    """One (frequency, multiplier value, theoretical bound) triple."""

    xi: float
    value: float
    bound: float


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
    """Per-mesh errors and fitted log-log rates; a norm whose errors all sit
    below ERROR_FLOOR gets no rate."""

    rows: list[ConvergenceRow]
    rates: dict[str, float]


@dataclass(frozen=True)
class StabilityReport:
    """Both sides of the wavenumber-explicit a-priori bounds for one solve."""

    lhs_l2: float
    lhs_h1: float
    rhs: float


@dataclass(frozen=True)
class FluxReport:
    """Flux estimate and auxiliary energy bound for a homogeneous-data solve."""

    flux_lhs: float
    flux_rhs: float
    aux_lhs: float
    aux_rhs: float


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


def interior_residual(exact: ExactSolution, k: float,
                      grid: UniformGrid) -> tuple[np.ndarray, float]:
    """Interior residual tau_i = Theta(kh) (Delta_h u)(x_i) - u''(x_i), i = 1..n-1.

    Returns the nodal residual array and its interior discrete L2 norm.
    """
    nyquist_guard(k, grid.h)
    th = theta(k * grid.h)
    lap = discrete_laplacian(sample(exact.u, grid))
    tau = th * lap - np.asarray(exact.u_doubleprime(grid.nodes()[1:-1]), dtype=complex)
    return tau, float(math.sqrt(grid.h * np.sum(np.abs(tau) ** 2)))


def boundary_residuals(exact: ExactSolution, k: float, h: float,
                       L: float) -> tuple[complex, complex]:
    """Impedance-closure residuals of an exact solution at both endpoints.

    beta0 = k/sin(kh) (u(h) - e^{ikh} u(0)) - (u'(0) - ik u(0)) and the
    mirrored expression at x = L.
    """
    nyquist_guard(k, h)
    s = k * h
    bfac = k / math.sin(s)
    phase = complex(math.cos(s), math.sin(s))
    u0 = complex(exact.u(0.0))
    uh = complex(exact.u(h))
    uL = complex(exact.u(L))
    uLh = complex(exact.u(L - h))
    beta0 = bfac * (uh - phase * u0) - (complex(exact.u_prime(0.0)) - 1j * k * u0)
    betaL = bfac * (phase * uL - uLh) - (complex(exact.u_prime(L)) + 1j * k * uL)
    return beta0, betaL


def residual_report(p: HelmholtzProblem, exact: ExactSolution, n: int, fpp,
                    fppp) -> ResidualReport:
    """Residuals of p's exact solution together with the second-order
    bounds driven by ||f''|| and ||f'''||."""
    grid = make_grid(p.L, n)
    _, tau_norm = interior_residual(exact, p.k, grid)
    beta0, betaL = boundary_residuals(exact, p.k, grid.h, p.L)
    s = p.k * grid.h
    th = theta(s)
    f2 = l2_norm_quad(fpp, p.L)
    f3 = l2_norm_quad(fppp, p.L)
    tau_bound = p.L * th * grid.h**2 / 12.0 * f3
    beta_bound = 2.0 * math.sqrt(p.L * th) * abs(1.0 / math.cos(0.5 * s)) * grid.h**2 / 6.0 * f2
    return ResidualReport(tau_norm, beta0, betaL, tau_bound, beta_bound)


# ---------------------------------------------------------------------------
# Fourier multipliers


def interior_multiplier(xi: float, h: float, k: float) -> float:
    """Interior symbol mismatch ratio
    (Theta(kh) (4/h^2) sin^2(xi h/2) - xi^2) / (xi^2 - k^2)."""
    nyquist_guard(k, h)
    denom = xi * xi - k * k
    if abs(denom) <= 1e-12 * k * k:
        raise NearResonantFrequency(f"xi = {xi!r} too close to k = {k!r}")
    th = theta(k * h)
    num = th * 4.0 / h**2 * math.sin(0.5 * xi * h) ** 2 - xi * xi
    return num / denom


def interior_multiplier_bound(xi: float, h: float, k: float) -> float:
    """Uniform envelope Theta(kh) h^2 xi^2 / 12 for the interior multiplier."""
    return theta(k * h) * h**2 * xi * xi / 12.0


def _sinc_sqrt_derivative(t: float) -> float:
    """Derivative of sin(sqrt t)/sqrt t; series below sqrt(t) = 1/2."""
    s = math.sqrt(t)
    if s < 0.5:
        return -1.0 / 6.0 + t / 60.0 - t * t / 1680.0 + t**3 / 90720.0
    return (s * math.cos(s) - math.sin(s)) / (2.0 * s**3)


def boundary_multiplier(xi: float, h: float, k: float, L: float) -> float:
    """Boundary symbol mismatch
    sqrt(2/L) * ((k/sin kh) sin(xi h) - xi) / (xi^2 - k^2).

    The point xi = k is removable; within |xi - k| h < 1e-4 the difference
    quotient is replaced by a midpoint-derivative series branch.
    """
    nyquist_guard(k, h)
    scale = math.sqrt(2.0 / L)
    a = xi * h
    b = k * h
    if abs(xi - k) * h < 1e-4:
        mid = 0.5 * (a * a + b * b)
        return scale * (h * a * b / math.sin(b)) * _sinc_sqrt_derivative(mid)
    return scale * ((k / math.sin(b)) * math.sin(a) - xi) / (xi * xi - k * k)


def boundary_multiplier_bound(xi: float, h: float, k: float, L: float) -> float:
    """Uniform envelope sqrt(2 Theta / L) (xi h^2 / 6) |sec(kh/2)|."""
    th = theta(k * h)
    return math.sqrt(2.0 * th / L) * xi * h**2 / 6.0 * abs(1.0 / math.cos(0.5 * k * h))


def sample_multipliers(k: float, h: float, L: float, xi_grid: np.ndarray,
                       which: str = "interior") -> list[MultiplierSample]:
    """Evaluate one multiplier family with its bound over a frequency grid.

    Frequencies inside the interior-resonance guard are skipped.
    """
    out = []
    for xi in np.asarray(xi_grid, dtype=float):
        try:
            if which == "interior":
                val = interior_multiplier(xi, h, k)
                bound = interior_multiplier_bound(xi, h, k)
            elif which == "boundary":
                val = boundary_multiplier(xi, h, k, L)
                bound = boundary_multiplier_bound(xi, h, k, L)
            else:
                raise ValueError(f"unknown multiplier family {which!r}")
        except NearResonantFrequency:
            continue
        out.append(MultiplierSample(float(xi), float(val), float(bound)))
    return out


# ---------------------------------------------------------------------------
# stability and flux inequalities


def stability_bound_check(p: HelmholtzProblem, u_h: GridFunction) -> StabilityReport:
    """Evaluate k ||u||_{0,h} and sqrt(Theta) |u|_{1,h} against
    A0(kh, kL) ||f||_{0,h} + sqrt(L)/2 (|g0| + |gL|)."""
    grid = u_h.grid
    s = p.k * grid.h
    t = p.k * p.L
    a0 = stability_constant_a0(s, t, p.L)
    rhs = a0 * norm_l2h(sample(p.f, grid)) + 0.5 * math.sqrt(p.L) * (abs(p.g0) + abs(p.gL))
    lhs_l2 = p.k * norm_l2h(u_h)
    lhs_h1 = math.sqrt(theta(s)) * seminorm_h1h(u_h)
    return StabilityReport(lhs_l2, lhs_h1, rhs)


def flux_estimate_check(p: HelmholtzProblem, u_h: GridFunction) -> FluxReport:
    """Flux bound ||D+ u||^2 + ||D- u||^2 <= (L^2/Theta) ||f||^2 and the
    auxiliary energy bound, both requiring homogeneous radiation data."""
    if abs(p.g0) != 0.0 or abs(p.gL) != 0.0:
        raise ValueError("flux estimate applies to homogeneous radiation data only")
    grid = u_h.grid
    h = grid.h
    s = p.k * h
    th = theta(s)
    dplus = apply_one_way_plus(u_h, p.k)
    dminus = apply_one_way_minus(u_h, p.k)
    flux_lhs = float(h * (np.sum(np.abs(dplus) ** 2) + np.sum(np.abs(dminus) ** 2)))
    fnorm2 = norm_l2h(sample(p.f, grid)) ** 2
    flux_rhs = p.L**2 / th * fnorm2
    u = u_h.values
    aux_lhs = (th * math.cos(s) * seminorm_h1h(u_h) ** 2
               + p.k**2 * norm_l2h(u_h) ** 2
               + 0.5 * p.k**2 * h * (abs(u[0]) ** 2 + abs(u[-1]) ** 2))
    aux_rhs = p.L**2 / (2.0 * th) * fnorm2
    return FluxReport(flux_lhs, flux_rhs, aux_lhs, aux_rhs)


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
    s = p.k * grid.h
    th = theta(s)
    u = u_h.values
    lhs = (th * seminorm_h1h(u_h) ** 2
           - 0.5 * p.k**2 * grid.h * (abs(u[0]) ** 2 + abs(u[-1]) ** 2)
           - p.k**2 * norm_l2h(u_h) ** 2)
    fv = sample(p.f, grid).values[1:-1]
    rhs = -float(np.real(grid.h * np.sum(fv * np.conj(u[1:-1]))))
    scale = max(abs(lhs), abs(rhs), th * seminorm_h1h(u_h) ** 2)
    return abs(lhs - rhs) / scale if scale > 0 else 0.0


# ---------------------------------------------------------------------------
# convergence studies


def _ratio(lhs: float, rhs: float) -> float:
    """lhs / rhs; for rhs <= 0, 0 when lhs <= 0 and inf otherwise."""
    if rhs > 0:
        return lhs / rhs
    return 0.0 if lhs <= 0 else math.inf


def error_report(u_h: GridFunction, ref: GridFunction, k: float) -> ErrorReport:
    """Errors of u_h against a reference on the same grid, in all four norms."""
    if u_h.grid != ref.grid:
        raise ValueError("solution and reference live on different grids")
    diff = GridFunction(u_h.grid, u_h.values - ref.values)
    a_linf, a_l2, a_h1 = norm_linf(diff), norm_l2h(diff), seminorm_h1h(diff)
    r_linf, r_l2, r_h1 = norm_linf(ref), norm_l2h(ref), seminorm_h1h(ref)
    # the V norms from the parts above, as norm_v computes them
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
                      n_ref: int | None = None, tol: float = GUARD_TOL) -> ConvergenceTable:
    """Solve one benchmark over a strictly increasing list of subinterval
    counts and fit log-log rates of the relative max and V errors.

    The reference follows the benchmark: a benchmark with a closed form is
    compared against it, and passing n_ref for one raises ValueError. Any
    other benchmark is compared against a cached fine-grid solve of the same
    scheme on n_ref subintervals (default: the registry's resolution), which
    every entry of n_list must divide; that is checked before anything is
    solved. Cells run in n_list order.
    """
    n_list = [int(n) for n in n_list]
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing and nonempty")
    problem, exact = make_benchmark(benchmark, k)
    if exact is not None:
        if n_ref is not None:
            raise ValueError(f"n_ref sets a fine reference, but benchmark {benchmark!r} "
                             "is compared against its closed form")
        fine = None
    else:
        n_ref = BENCHMARKS[benchmark][1] if n_ref is None else n_ref
        fine_grid = make_grid(problem.L, n_ref)
        for n in n_list:
            check_nested(fine_grid, make_grid(problem.L, n))
        fine = fine_grid_reference(problem, n_ref, kind, tol)

    def run_cell(n: int) -> ConvergenceRow:
        u_h = solve_scheme(problem, n, kind, tol)
        if fine is None:
            ref = sample(exact.u, u_h.grid)
        else:
            ref = restrict(fine, u_h.grid)
        return ConvergenceRow(k, n, u_h.grid.h, error_report(u_h, ref, k))

    rows = [run_cell(n) for n in n_list]

    hs = [row.h for row in rows]
    rates: dict[str, float] = {}
    for norm in ("linf", "v"):
        errs = [row.errors.rel(norm) for row in rows]
        if max(errs) < ERROR_FLOOR:
            continue
        rates[norm] = fit_rate(hs, errs)
    return ConvergenceTable(rows, rates)


# ---------------------------------------------------------------------------
# verification suites (wrapped by the CLI's `verify` subcommand)


def _random_grid_function(rng: np.random.Generator, grid: UniformGrid) -> GridFunction:
    vals = rng.standard_normal(grid.n + 1) + 1j * rng.standard_normal(grid.n + 1)
    return GridFunction(grid, vals)


def _rel_mismatch(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def verify_identities(seed: int = 0) -> list[CheckResult]:
    """Algebraic identity suite: Bernoulli reflection/difference, weight
    consistency, factorization, boundary rewrite, flux-energy relation,
    discrete energy identity, envelope derivative sups."""
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    # Reflection and difference identities on 1e4 random points of |z| <= 10.
    zs = 10.0 * np.sqrt(rng.uniform(0, 1, 10_000)) * np.exp(2j * math.pi * rng.uniform(0, 1, 10_000))
    worst_refl = 0.0
    worst_diff = 0.0
    for z in zs:
        z = complex(z)
        b_pos = bernoulli(z)
        b_neg = bernoulli(-z)
        worst_refl = max(worst_refl, _rel_mismatch(b_neg, np.exp(z) * b_pos))
        worst_diff = max(worst_diff, _rel_mismatch(b_neg - b_pos, z))
    checks.append(CheckResult("bernoulli_reflection", worst_refl, 1e-12))
    checks.append(CheckResult("bernoulli_difference", worst_diff, 1e-12))

    # Series/closed-form crossover continuity on the threshold circle.
    ring = 1e-3 * np.exp(2j * math.pi * np.linspace(0, 1, 64, endpoint=False))
    worst = max(_rel_mismatch(_bernoulli_series(complex(z)), _bernoulli_closed(complex(z)))
                for z in ring)
    checks.append(CheckResult("bernoulli_crossover", worst, 1e-14))

    # Theta against |B(is)|^2 and its range on [0, pi].
    s_grid = np.linspace(1e-3, 2.0 * math.pi - 0.05, 500)
    worst = max(abs(theta(s) - abs(bernoulli(1j * s)) ** 2) / theta(s) for s in s_grid)
    checks.append(CheckResult("theta_matches_bernoulli", worst, 1e-13))
    s_grid = np.linspace(0.0, math.pi, 1001)
    vals = np.array([theta(s) for s in s_grid])
    worst = max(float(np.max(1.0 - vals)), float(np.max(vals - math.pi**2 / 4.0)))
    checks.append(CheckResult("theta_range", worst, 1e-12))

    # B(is)/m(s) = s/sin(s) on (0, pi).
    s_grid = np.linspace(0.05, math.pi - 0.05, 200)
    worst = max(_rel_mismatch(bernoulli(1j * s) / phase_factor_m(s), s / math.sin(s))
                for s in s_grid)
    checks.append(CheckResult("key_identity_b_over_m", worst, 1e-13))

    # Factorization of the composed one-way operators into the three-point form.
    worst = 0.0
    for k, n in ((2.0, 8), (12.5, 24), (32.0, 32)):
        grid = make_grid(1.0, n)
        v = _random_grid_function(rng, grid)
        composed = apply_one_way_composition(v, k)
        direct = theta(k * grid.h) * discrete_laplacian(v) + k * k * v.values[1:-1]
        num = math.sqrt(grid.h * float(np.sum(np.abs(composed - direct) ** 2)))
        worst = max(worst, num / norm_l2h(v))
    checks.append(CheckResult("factorization_three_point", worst, 1e-12))

    # Boundary rewrite (1/m) (D+ v)_0 = (k/sin kh)(v_1 - e^{ikh} v_0).
    worst = 0.0
    for k, n in ((2.0, 8), (12.5, 24), (32.0, 32)):
        grid = make_grid(1.0, n)
        v = _random_grid_function(rng, grid)
        s = k * grid.h
        lhs = apply_one_way_plus(v, k)[0] / phase_factor_m(s)
        rhs = k / math.sin(s) * (v.values[1] - complex(math.cos(s), math.sin(s)) * v.values[0])
        worst = max(worst, _rel_mismatch(lhs, rhs))
    checks.append(CheckResult("boundary_rewrite", worst, 1e-12))

    # Flux-energy relation for arbitrary grid functions.
    worst = 0.0
    for k, n in ((2.0, 16), (12.5, 32), (32.0, 64)):
        grid = make_grid(1.0, n)
        v = _random_grid_function(rng, grid)
        s = k * grid.h
        th = theta(s)
        lhs = grid.h * float(np.sum(np.abs(apply_one_way_plus(v, k)) ** 2)
                             + np.sum(np.abs(apply_one_way_minus(v, k)) ** 2))
        u = v.values
        rhs = (2.0 * th * math.cos(s) * seminorm_h1h(v) ** 2
               + 2.0 * k * k * norm_l2h(v) ** 2
               + k * k * grid.h * (abs(u[0]) ** 2 + abs(u[-1]) ** 2))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    checks.append(CheckResult("flux_energy_relation", worst, 1e-12))

    # Discrete energy identity on homogeneous-radiation solves. With the
    # orientation Theta Delta_h u + k^2 u = f adopted throughout, summation
    # by parts puts -Re(f, u)_h on the right-hand side.
    worst = 0.0
    for bench_k in (2**5, 2**6):
        p, _ = sine_squared_problem(bench_k)
        p = replace(p, g0=0.0 + 0.0j, gL=0.0 + 0.0j)
        u_h = solve_scheme(p, 2**8, SchemeKind.BPF)
        worst = max(worst, energy_identity_mismatch(p, u_h))
    checks.append(CheckResult("discrete_energy_identity", worst, 1e-10))

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
        slack = 1.0 + 1e-10
        for which, label in (("interior", "interior_multiplier"),
                             ("boundary", "boundary_multiplier")):
            samples = sample_multipliers(k, h, L, xi_grid, which)
            worst = max(abs(smp.value) / smp.bound for smp in samples)
            checks.append(CheckResult(
                f"{label}_bound_{j:02d}", worst, slack,
                detail=f"kh={s:.4f} k={k:.4f} samples={len(samples)}",
            ))
    return checks


def verify_residuals() -> list[CheckResult]:
    """Residual-bound suite on the smooth manufactured benchmark: measured
    ||tau||_{0,h} and |beta0| + |betaL| against their second-order bounds
    for k = 2^4..2^8 and n = 3^5..3^8, restricted to kh < pi."""
    checks = []
    for ke in (4, 5, 6, 7, 8):
        k = float(2**ke)
        p, exact = smooth_manufactured_problem(k)
        _, fpp, fppp = smooth_source_derivatives(k)
        for ne in (5, 6, 7, 8):
            n = 3**ne
            if k / n >= math.pi:
                continue
            rep = residual_report(p, exact, n, fpp, fppp)
            tau_ratio = rep.tau_norm / rep.tau_bound
            beta_ratio = (abs(rep.beta0) + abs(rep.betaL)) / rep.beta_bound
            tag = f"k=2^{ke} n=3^{ne}"
            checks.append(CheckResult(f"tau_bound_k{ke}_n{ne}", tau_ratio, 1.0,
                                      detail=tag))
            checks.append(CheckResult(f"beta_bound_k{ke}_n{ne}", beta_ratio, 1.0,
                                      detail=tag))
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
            worst = {"l2": 0.0, "h1": 0.0, "flux": 0.0, "aux": 0.0}
            for ne in (7, 8, 9, 10):
                n = 2**ne
                st = stability_bound_check(p, solve_scheme(p, n, SchemeKind.BPF))
                worst["l2"] = max(worst["l2"], _ratio(st.lhs_l2, st.rhs))
                worst["h1"] = max(worst["h1"], _ratio(st.lhs_h1, st.rhs))
                fx = flux_estimate_check(p_hom, solve_scheme(p_hom, n, SchemeKind.BPF))
                worst["flux"] = max(worst["flux"], _ratio(fx.flux_lhs, fx.flux_rhs))
                worst["aux"] = max(worst["aux"], _ratio(fx.aux_lhs, fx.aux_rhs))
            slack = 1.0 + 1e-12
            for label, val in worst.items():
                checks.append(CheckResult(f"stability_{label}_{bench}_k{ke}", val, slack,
                                          detail=f"{bench} k=2^{ke}"))
    return checks


VERIFY_SUITES = {
    "identities": verify_identities,
    "multipliers": verify_multipliers,
    "residuals": lambda seed=0: verify_residuals(),
    "stability": lambda seed=0: verify_stability(),
}
