"""The benchmark's workloads: inputs drawn from a seed, one op, and its check.

Each workload is a closed loop of ops driven through bpfhelm's public
functions. ``make_ops(seed)`` draws every input the package will receive;
``run(op)`` is the timed part; ``check(op, output)`` runs outside the timed
region and raises ``CheckFailed`` on a wrong answer. The package functions
are always looked up through their modules at call time, so the wrappers
that ``tracing`` installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from bpfhelm import analysis, cli, grid, reference, schemes

# Ops drawn per run. A run stops on time long before it uses them all; if it
# ever does, the harness starts the list again.
CLI_OPS = 1_000
SWEEP_OPS = 60_000

# The two commands of one cli-reference op.
TABLE_K = (32.0, 64.0, 128.0)
TABLE_H = (0.03125, 0.015625, 0.0078125)
BOX_K = 32
BOX_N = (243, 729, 2187, 6561)
VERIFY_SUITES = ("identities", "multipliers", "residuals", "stability")

# sweep cell ranges.
SWEEP_BENCHMARKS = ("planewave", "smooth", "sine2")
SWEEP_SCHEMES = ("bpf", "fd", "fd-dc")
SWEEP_N = (8, 4096)
SWEEP_KH = (0.1, 3.0)
# kh in [0.1, 3.0] stays clear of the guard set pi*Z (3.0 is 4.5 % below pi).
# Draws within this relative distance of the sine2 resonance k = 2*pi are
# excluded.
SINE2_EXCLUSION = 1e-3

# Check tolerances.
# Exact- and fine-reference table entries differ by <= 2e-3 relative on the
# seed code; a wrong answer (an entry doubled) is off by 100 %.
TABLE_REFERENCE_AGREEMENT = 5e-3
# A sweep solution must match an independent banded LAPACK solve of the same
# assembled system. Round-off differences at n <= 4096 are below 1e-12
# relative; a solution scaled by 1 + 1e-6 is off by 1e-6.
SOLVE_AGREEMENT = 1e-9
# Error norms must match the same norms computed here, up to summation order.
NORM_AGREEMENT = 1e-9
# Plane waves: the paper's 1e-12 absolute max error, raised to the float64
# floor of the system where that floor is higher. The floor grows like
# eps * amplitude * k / sin(kh): BPF's boundary rows carry k / sin(kh).
PLANE_WAVE_TOL = 1e-12
PLANE_WAVE_FLOOR_FACTOR = 64.0
PLANE_WAVE_AMPLITUDE = 3.0  # |alpha| + |beta| of make_benchmark("planewave")


class CheckFailed(Exception):
    """An op returned a wrong answer."""


@dataclass(frozen=True)
class Workload:
    name: str
    make_ops: Callable[[int], list]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], None]
    warm_up: Callable[[], None]
    trace_pass: int  # ops in one traced pass: a fixed prefix of the op list
    output_bytes: Callable[[Any], int] = lambda output: 0


# ---------------------------------------------------------------------------
# CLI ops


@dataclass(frozen=True)
class CommandResult:
    argv: tuple[str, ...]
    code: int
    stdout: str


def run_commands(argvs) -> list[CommandResult]:
    """Run each argument list through ``bpfhelm.cli.main`` with a cold
    reference cache and stdout captured."""
    results = []
    for argv in argvs:
        reference.clear_reference_cache()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        results.append(CommandResult(tuple(argv), code, buf.getvalue()))
    return results


def _commands_bytes(results: list[CommandResult]) -> int:
    return sum(len(r.stdout.encode()) for r in results)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line]


def _number(field: str) -> float:
    try:
        value = float(field)
    except ValueError:
        raise CheckFailed(f"expected a number, got {field!r}") from None
    _require(math.isfinite(value), f"non-finite value {field!r}")
    return value


def _check_all_finite(text: str) -> None:
    """Every field that parses as a number is finite."""
    for row in _csv_rows(text):
        for field in row:
            try:
                value = float(field)
            except ValueError:
                continue
            _require(math.isfinite(value), f"non-finite CSV value {field!r}")


def _seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _join(values) -> str:
    return ",".join(repr(v) for v in values)


def cli_reference_ops(seed: int) -> list[tuple[tuple[str, ...], ...]]:
    """The two slow commands; the seed only sets the (unused) --seed flag,
    so every op does the same work."""
    ops = []
    for s in _seeds(seed, CLI_OPS):
        table = ("table", "--k-list", _join(int(k) for k in TABLE_K),
                 "--h-list", _join(TABLE_H), "--seed", str(s))
        box = ("convergence", "--k", str(BOX_K), "--n-list", _join(BOX_N),
               "--benchmark", "box", "--seed", str(s))
        ops.append((table, box))
    return ops


def _parse_table(text: str, n_k: int, n_h: int) -> dict[str, np.ndarray]:
    """Matrices of a ``table`` output keyed by reference kind."""
    matrices: dict[str, list[list[float]]] = {}
    current = None
    for row in _csv_rows(text):
        if row[0] == "# reference":
            current = matrices.setdefault(row[1], [])
        elif row[0].startswith("#") or row[0].startswith("k\\h"):
            continue
        elif current is not None:
            current.append([_number(f) for f in row[1:]])
    out = {}
    for name, rows in matrices.items():
        matrix = np.array(rows, dtype=float)
        _require(matrix.shape == (n_k, n_h),
                 f"{name} matrix has shape {matrix.shape}, expected {(n_k, n_h)}")
        out[name] = matrix
    return out


def check_table(result: CommandResult) -> None:
    _require(result.code == 0, f"table exited {result.code}")
    _check_all_finite(result.stdout)
    matrices = _parse_table(result.stdout, len(TABLE_K), len(TABLE_H))
    _require(set(matrices) == {"exact", "fine"},
             f"table references {sorted(matrices)}, expected exact and fine")
    exact, fine = matrices["exact"], matrices["fine"]
    _require(bool(np.all(exact > 0)), "table has a non-positive error entry")
    worst = float(np.max(np.abs(exact - fine) / exact))
    _require(worst <= TABLE_REFERENCE_AGREEMENT,
             f"exact and fine references disagree by {worst:.3e} relative")


def check_box_convergence(result: CommandResult) -> None:
    _require(result.code == 0, f"convergence exited {result.code}")
    _check_all_finite(result.stdout)
    rows = _csv_rows(result.stdout)
    data = [r for r in rows[1:] if not r[0].startswith("#")]
    _require(len(data) == len(BOX_N), f"{len(data)} convergence rows, expected {len(BOX_N)}")
    errors = [_number(r[3]) for r in data]
    _require(all(b < a for a, b in zip(errors, errors[1:])),
             f"V errors do not decrease under refinement: {errors}")
    rates = {r[1]: r[2] for r in rows if r[0] == "# rate_fit"}
    for norm in ("err_linf_rel", "err_v_rel"):
        _require(norm in rates, f"rate-fit line for {norm} missing")
        _number(rates[norm])


def check_cli_reference(op, results: list[CommandResult]) -> None:
    _require(len(results) == 2, f"{len(results)} command results, expected 2")
    check_table(results[0])
    check_box_convergence(results[1])


def _warm_up_cli_reference() -> None:
    run_commands([
        ("table", "--k-list", "4", "--h-list", "0.25,0.125", "--n", "64"),
        ("convergence", "--k", "4", "--n-list", "3,9", "--benchmark", "box", "--n", "81"),
    ])


# ---------------------------------------------------------------------------
# verify


def verify_ops(seed: int) -> list[tuple[tuple[str, ...], ...]]:
    return [tuple(("verify", suite, "--seed", str(s)) for suite in VERIFY_SUITES)
            for s in _seeds(seed, CLI_OPS)]


def check_verify(op, results: list[CommandResult]) -> None:
    _require(len(results) == len(VERIFY_SUITES),
             f"{len(results)} suite results, expected {len(VERIFY_SUITES)}")
    for result in results:
        suite = result.argv[1]
        _require(result.code == 0, f"verify {suite} exited {result.code}")
        rows = _csv_rows(result.stdout)
        _require(bool(rows) and rows[0][0] == "status", f"verify {suite}: no header")
        checks = [r for r in rows[1:] if not r[0].startswith("#")]
        _require(bool(checks), f"verify {suite} ran no checks")
        failing = [r[1] for r in checks if r[0] != "PASS"]
        _require(not failing, f"verify {suite}: not PASS: {failing}")
        summary = [r for r in rows if r[0] == "# summary"]
        _require(len(summary) == 1 and summary[0][3] == str(len(checks))
                 and summary[0][5] == "0",
                 f"verify {suite}: summary line does not match {len(checks)} passed checks")


def _warm_up_verify() -> None:
    run_commands([("verify", "identities"), ("verify", "residuals")])


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class Cell:
    benchmark: str
    scheme: str
    n: int
    k: float


@dataclass(frozen=True)
class CellOutput:
    problem: Any
    exact: Any
    u_h: Any
    ref: Any
    report: Any


def sweep_ops(seed: int) -> list[Cell]:
    """Library cells: benchmark and scheme uniform, n log-uniform on
    [8, 4096], kh uniform on [0.1, 3.0], k = kh * n on (0, 1)."""
    rng = np.random.default_rng(seed)
    size = SWEEP_OPS + SWEEP_OPS // 10
    bench = rng.integers(0, len(SWEEP_BENCHMARKS), size)
    scheme = rng.integers(0, len(SWEEP_SCHEMES), size)
    n = np.rint(np.exp(rng.uniform(math.log(SWEEP_N[0]), math.log(SWEEP_N[1]), size))).astype(int)
    kh = rng.uniform(SWEEP_KH[0], SWEEP_KH[1], size)
    k = kh * n
    sine2 = bench == SWEEP_BENCHMARKS.index("sine2")
    keep = ~(sine2 & (np.abs(k / (2.0 * math.pi) - 1.0) <= SINE2_EXCLUSION))
    cells = [Cell(SWEEP_BENCHMARKS[b], SWEEP_SCHEMES[s], int(nn), float(kk))
             for b, s, nn, kk in zip(bench[keep], scheme[keep], n[keep], k[keep])]
    return cells[:SWEEP_OPS]


def run_cell(cell: Cell) -> CellOutput:
    problem, exact = reference.make_benchmark(cell.benchmark, cell.k)
    u_h = schemes.solve_scheme(problem, cell.n, schemes.SchemeKind(cell.scheme))
    ref = grid.sample(exact.u, u_h.grid)
    report = analysis.error_report(u_h, ref, cell.k)
    return CellOutput(problem, exact, u_h, ref, report)


def banded_solve(system) -> np.ndarray:
    """Solve an assembled tridiagonal system with LAPACK's banded solver."""
    from scipy.linalg import solve_banded

    m = len(system.diag)
    ab = np.zeros((3, m), dtype=complex)
    ab[0, 1:] = system.upper
    ab[1] = system.diag
    ab[2, :-1] = system.lower
    return solve_banded((1, 1), ab, system.rhs)


def _norms(v: np.ndarray, h: float, k: float) -> dict[str, float]:
    """Max, interior discrete L2, H1 seminorm and V norms of nodal values."""
    linf = float(np.max(np.abs(v)))
    l2h = math.sqrt(h * float(np.sum(np.abs(v[1:-1]) ** 2)))
    h1 = math.sqrt(h * float(np.sum(np.abs(np.diff(v) / h) ** 2)))
    return {"linf": linf, "l2h": l2h, "h1": h1, "v": math.hypot(k * l2h, h1)}


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b)) or a == b


def plane_wave_bound(cell: Cell) -> float:
    kh = cell.k / cell.n
    floor = (PLANE_WAVE_FLOOR_FACTOR * np.finfo(float).eps * PLANE_WAVE_AMPLITUDE
             * cell.k / abs(math.sin(kh)))
    return max(PLANE_WAVE_TOL, floor)


def check_cell(cell: Cell, out: CellOutput) -> None:
    u = np.asarray(out.u_h.values)
    _require(u.shape == (cell.n + 1,), f"solution has shape {u.shape}")
    _require(bool(np.all(np.isfinite(u))), "solution is not finite")
    system = schemes.assemble(out.problem, cell.n, schemes.SchemeKind(cell.scheme))
    x = banded_solve(system)
    scale = float(np.max(np.abs(x)))
    gap = float(np.max(np.abs(u - x))) / scale
    _require(gap <= SOLVE_AGREEMENT,
             f"solution differs from a banded solve by {gap:.3e} relative")

    nodes = np.arange(cell.n + 1) / cell.n
    exact = np.asarray(out.exact.u(nodes), dtype=complex)
    sampled_gap = float(np.max(np.abs(np.asarray(out.ref.values) - exact)))
    _require(sampled_gap <= 1e-13 * float(np.max(np.abs(exact))),
             f"sampled reference differs from the exact solution by {sampled_gap:.3e}")
    h = 1.0 / cell.n
    err = _norms(u - exact, h, cell.k)
    ref = _norms(exact, h, cell.k)
    rep = out.report
    for norm, reported in (("linf", rep.abs_linf), ("l2h", rep.abs_l2h),
                           ("h1", rep.abs_h1), ("v", rep.abs_v)):
        _require(_close(reported, err[norm], NORM_AGREEMENT),
                 f"abs_{norm} = {reported!r}, recomputed {err[norm]!r}")
    for norm, reported in (("linf", rep.rel_linf), ("v", rep.rel_v)):
        expected = err[norm] / ref[norm]
        _require(_close(reported, expected, NORM_AGREEMENT),
                 f"rel_{norm} = {reported!r}, recomputed {expected!r}")

    if cell.benchmark == "planewave" and cell.scheme == "bpf":
        bound = plane_wave_bound(cell)
        _require(err["linf"] <= bound,
                 f"plane wave reproduced to {err['linf']:.3e}, bound {bound:.3e}")


def _warm_up_sweep() -> None:
    for benchmark in SWEEP_BENCHMARKS:
        for scheme in SWEEP_SCHEMES:
            run_cell(Cell(benchmark, scheme, 16, 8.0))


# ---------------------------------------------------------------------------

# Why each workload is there: BENCHMARK.json and README.md.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="cli-reference",
            make_ops=cli_reference_ops,
            run=run_commands,
            check=check_cli_reference,
            warm_up=_warm_up_cli_reference,
            trace_pass=1,
            output_bytes=_commands_bytes,
        ),
        Workload(
            name="sweep",
            make_ops=sweep_ops,
            run=run_cell,
            check=check_cell,
            warm_up=_warm_up_sweep,
            trace_pass=400,
        ),
        Workload(
            name="verify",
            make_ops=verify_ops,
            run=run_commands,
            check=check_verify,
            warm_up=_warm_up_verify,
            trace_pass=1,
            output_bytes=_commands_bytes,
        ),
    )
}
