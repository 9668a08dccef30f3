"""Command-line front end: benchmarks, sweeps and verification suites.

Subcommands
-----------
exactness    plane-wave reproduction test at one (k, n)
convergence  mesh-refinement study for one benchmark/scheme
table        relative V-error matrix over k_list x h_list (sine2 benchmark)
compare      scheme comparison at paired (k, n) lists
verify       run one of the named verification suites

All numeric output is CSV with 17-significant-digit scientific notation so
runs diff cleanly. Exit codes: 0 success, 1 check failure, 2 usage error
(a mesh too large for the host's memory included), 3 numerical guard
(near-Nyquist or resonant parameters, a singular system, a source that
overflows at the grid nodes).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .analysis import VERIFY_SUITES, convergence_study, error_report
from .errors import (InvalidGrid, NonFiniteSample, NonNestedGrids, NumericalGuardError,
                     SingularSystem)
from .grid import check_nested, make_grid, restrict, sample
from .reference import BENCHMARKS, fine_grid_reference, make_benchmark
from .schemes import SchemeKind, solve_scheme

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

_SCHEMES = {kind.value: kind for kind in SchemeKind}
_NORMS = ("linf", "l2h", "h1", "v")


class UsageError(Exception):
    """Command-line input that no subcommand can run; main exits with EXIT_USAGE."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print its usage block and
    exit, so that main reports every usage error as one line; subcommand
    parsers are of the same class."""

    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def wavenumber(text: str) -> float:
    """Parse a wavenumber: finite and positive, with a square k^2 that does
    not overflow (k up to about 1.34e154). ArgumentTypeError, unlike
    ValueError, keeps its reason in argparse's message."""
    k = float(text)
    if not math.isfinite(k) or k <= 0:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    if not math.isfinite(k * k):
        raise argparse.ArgumentTypeError(f"must have a finite square, got {text!r}")
    return k


def non_negative(text: str) -> int:
    """Parse a seed, which numpy's generators require to be an integer >= 0."""
    x = int(text)
    if x < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return x


def _parse_list(text: str, cast):
    try:
        values = [cast(tok) for tok in text.replace(",", " ").split()]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"bad list {text!r}: {exc}") from None
    if not values:
        raise UsageError(f"empty list {text!r}")
    return values


def _n_from_h(h: float) -> int:
    """Subinterval count for mesh size h, which must divide L = 1."""
    n = round(1.0 / h) if h > 0 and math.isfinite(1.0 / h) else 0
    if n < 1 or not math.isclose(n * h, 1.0, rel_tol=1e-9):
        raise UsageError(f"mesh size {h!r} does not divide L = 1")
    return n


def _check_out(out_path: str | None) -> None:
    """Fail before any work when --out cannot be opened for writing. Opens
    in append mode, so an existing file keeps its contents, and removes the
    file again if this check created it."""
    if not out_path:
        return
    existed = os.path.exists(out_path)
    try:
        with open(out_path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise UsageError(f"cannot write --out: {exc}") from None
    if not existed:
        os.remove(out_path)


def _emit(lines: list[str], out_path: str | None) -> None:
    payload = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(payload)


def _resolve_n_list(args) -> list[int]:
    """Subinterval counts from --n-list or --h-list, which the parser keeps
    mutually exclusive."""
    if args.n_list:
        return _parse_list(args.n_list, int)
    if args.h_list:
        return [_n_from_h(h) for h in _parse_list(args.h_list, float)]
    raise UsageError("give --n-list or --h-list")


def cmd_exactness(args) -> int:
    """Solve the homogeneous plane-wave benchmark and report the absolute
    max-norm error; fails (exit 1) above 1e-12."""
    k = args.k
    n = args.n
    problem, exact = make_benchmark("planewave", k)
    u_h = solve_scheme(problem, n, SchemeKind.BPF)
    ref = sample(exact.u, u_h.grid)
    err = float(np.max(np.abs(u_h.values - ref.values)))
    lines = ["k,n,h,err_linf_abs",
             f"{_fmt(k)},{n},{_fmt(1.0 / n)},{_fmt(err)}"]
    _emit(lines, args.out)
    return EXIT_OK if err <= 1e-12 else EXIT_CHECK_FAILED


def cmd_convergence(args) -> int:
    """Refinement study; rates are appended as comment footer lines. The
    mesh sizes are sorted here and checked by convergence_study."""
    table = convergence_study(args.benchmark, _SCHEMES[args.scheme], args.k,
                              sorted(_resolve_n_list(args)), n_ref=args.n)
    lines = ["k,h,err_linf_rel,err_v_rel"]
    for row in table.rows:
        lines.append(f"{_fmt(row.k)},{_fmt(row.h)},"
                     f"{_fmt(row.errors.rel_linf)},{_fmt(row.errors.rel_v)}")
    for norm in ("linf", "v"):
        if norm in table.rates:
            lines.append(f"# rate_fit,err_{norm}_rel,{_fmt(table.rates[norm])}")
        else:
            lines.append(f"# rate_fit,err_{norm}_rel,floored")
    _emit(lines, args.out)
    return EXIT_OK


def _diagonal_summary(k_list, h_list, matrix) -> list[str]:
    """Group entries by fixed k*h and report whether each diagonal decays."""
    diagonals: dict[float, list[tuple[float, float]]] = {}
    for i, k in enumerate(k_list):
        for j, h in enumerate(h_list):
            key = round(k * h, 12)
            diagonals.setdefault(key, []).append((k, matrix[i][j]))
    lines = []
    for kh in sorted(diagonals):
        entries = sorted(diagonals[kh])
        errs = [e for _, e in entries]
        increases = sum(1 for a, b in zip(errs, errs[1:]) if b >= a)
        lines.append(f"# diagonal_kh,{_fmt(kh)},entries,{len(errs)},"
                     f"nonmonotone_steps,{increases}")
    return lines


def cmd_table(args) -> int:
    """Relative error matrix (rows k_list, columns h = 1/n) for the sine2
    benchmark. Each cell is solved once and measured against both the
    closed form and a fine-grid BPF reference on --n subintervals (default:
    the registry's resolution), which every n must divide and be less than:
    one check_nested call, the one nesting rule, before anything is solved.
    The diagonal summary reads the closed-form matrix."""
    k_list = _parse_list(args.k_list, wavenumber)
    n_list = _resolve_n_list(args)
    if len(set(k_list)) < len(k_list) or len(set(n_list)) < len(n_list):
        raise UsageError("table needs each wavenumber and each mesh size given once")
    n_ref = BENCHMARKS["sine2"][1] if args.n is None else args.n
    check_nested(make_grid(1.0, n_ref), *(make_grid(1.0, n) for n in n_list))
    matrices = {"exact": [], "fine": []}
    for k in k_list:
        problem, exact = make_benchmark("sine2", k)
        exact_row, fine_row = [], []
        for n in n_list:
            u_h = solve_scheme(problem, n, SchemeKind.BPF)
            fine = fine_grid_reference(problem, n_ref, SchemeKind.BPF)
            exact_row.append(error_report(u_h, sample(exact.u, u_h.grid), k).rel(args.norm))
            fine_row.append(error_report(u_h, restrict(fine, u_h.grid), k).rel(args.norm))
        matrices["exact"].append(exact_row)
        matrices["fine"].append(fine_row)
    h_list = [1.0 / n for n in n_list]
    header = "k\\h," + ",".join(_fmt(h) for h in h_list)
    lines = []
    for reference, matrix in matrices.items():
        lines.append(f"# reference,{reference},norm,{args.norm}")
        lines.append(header)
        for k, row in zip(k_list, matrix):
            lines.append(",".join([_fmt(k)] + [_fmt(v) for v in row]))
    lines.extend(_diagonal_summary(k_list, h_list, matrices["exact"]))
    _emit(lines, args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    """All three schemes on paired (k, n) lists; one CSV row per scheme and
    pair, reporting the relative error in the selected norm. Each pair's
    reference is built once and shared by the three schemes: the closed form
    sampled on the pair's grid, or, for a benchmark without one, a fine-grid
    BPF reference at the registry's resolution restricted to it; every n
    must then be a proper divisor of that resolution, which one check_nested
    call, the one nesting rule, checks before anything is solved."""
    k_list = _parse_list(args.k_list, wavenumber)
    n_list = _resolve_n_list(args)
    if len(k_list) != len(n_list):
        raise UsageError(f"{len(k_list)} wavenumbers but {len(n_list)} mesh sizes")
    kinds = (SchemeKind.BPF, SchemeKind.DISPERSION_CORRECTED_FD, SchemeKind.CLASSICAL_FD)
    rows = {kind: [] for kind in kinds}
    n_ref = BENCHMARKS[args.benchmark][1]
    pairs = [(k, n, *make_benchmark(args.benchmark, k)) for k, n in zip(k_list, n_list)]
    _, _, problem, exact = pairs[0]  # the pairs share one benchmark
    if exact is None:
        check_nested(make_grid(problem.L, n_ref), *(make_grid(problem.L, n) for n in n_list))
    for k, n, problem, exact in pairs:
        grid = make_grid(problem.L, n)
        if exact is None:
            ref = restrict(fine_grid_reference(problem, n_ref, SchemeKind.BPF), grid)
        else:
            ref = sample(exact.u, grid)
        for kind in kinds:
            err = error_report(solve_scheme(problem, n, kind), ref, k).rel(args.norm)
            h = 1.0 / n
            rows[kind].append(f"{kind.value},{_fmt(k)},{_fmt(h)},{_fmt(k * h)},{_fmt(err)}")
    lines = [f"scheme,k,h,kh,err_{args.norm}_rel"]
    for kind in kinds:
        lines.extend(rows[kind])
    _emit(lines, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    """Run one verification suite; one machine-readable line per check."""
    suite = VERIFY_SUITES[args.suite]
    checks = suite(seed=args.seed)
    lines = ["status,check,value,bound,detail"]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status},{c.name},{_fmt(c.value)},{_fmt(c.bound)},{c.detail}")
    n_failed = sum(1 for c in checks if not c.passed)
    lines.append(f"# summary,{args.suite},checks,{len(checks)},failed,{n_failed}")
    _emit(lines, args.out)
    return EXIT_OK if n_failed == 0 else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call: parsing
    leaves no state in it, and the cmd_* functions it dispatches to look up
    the package's names when they run."""
    parser = _Parser(
        prog="bpfhelm",
        description="Phase-fitted finite differences for the 1D Helmholtz "
                    "equation with impedance boundary conditions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_help=None):
        p.add_argument("--out", default=None, help="write CSV here instead of stdout")
        if seed_help:
            p.add_argument("--seed", type=non_negative, default=0, help=seed_help)

    def mesh_lists(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--n-list", default=None, help="comma-separated subinterval counts")
        group.add_argument("--h-list", default=None, help="comma-separated mesh sizes (L=1)")

    p = sub.add_parser("exactness", help="plane-wave reproduction test")
    p.add_argument("--k", type=wavenumber, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_exactness)

    p = sub.add_parser("convergence", help="mesh-refinement study")
    p.add_argument("--k", type=wavenumber, required=True)
    mesh_lists(p)
    p.add_argument("--n", type=int, default=None,
                   help="fine-reference resolution override (box benchmark)")
    p.add_argument("--scheme", choices=sorted(_SCHEMES), default="bpf")
    p.add_argument("--benchmark", choices=tuple(BENCHMARKS), default="smooth")
    common(p, seed_help="accepted and unused")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("table", help="relative V-error matrix (sine2 benchmark)")
    p.add_argument("--k-list", required=True)
    mesh_lists(p)
    p.add_argument("--n", type=int, default=None,
                   help="fine-reference resolution override (default 2^18)")
    p.add_argument("--norm", choices=_NORMS, default="v")
    common(p, seed_help="accepted and unused")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("compare", help="scheme comparison at paired (k, n) lists")
    p.add_argument("--k-list", required=True)
    mesh_lists(p)
    p.add_argument("--benchmark", choices=tuple(BENCHMARKS), default="sine2")
    p.add_argument("--norm", choices=_NORMS, default="linf")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(VERIFY_SUITES))
    common(p, seed_help="seed of the identities and multipliers suites "
                        "(residuals and stability ignore it)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_out(args.out)
        return args.func(args)
    except SystemExit as exc:  # --help
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (NumericalGuardError, SingularSystem, NonFiniteSample) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (UsageError, InvalidGrid, NonNestedGrids) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a mesh count an array can hold but this host cannot
        print(f"usage error: out of memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
