"""Record what a source tree computes, so that two trees can be compared
bit for bit, or rewrite the committed CLI record in tests/golden.

Usage:
    python tools/record.py SRC_ROOT OUT_DIR
    python tools/record.py --update

SRC_ROOT is a checkout of this repository. OUT_DIR/<name>.txt receives the
argv, the exit code, stdout and stderr of CLI run <name>, each a fresh
`python -m bpfhelm.cli ...` process that imports the package from
SRC_ROOT/src. OUT_DIR/cells.txt receives one line per cell of the library
path, computed in this process with the package from SRC_ROOT/src. Each
coarse cell takes the path of a sweep cell (`make_benchmark`,
`solve_scheme`, `sample` of the exact solution, `error_report`); its line
holds the cell, a digest of the solution u_h and of the sampled exact
solution, the eight ErrorReport fields to the last bit (`float.hex`) and
the warnings the cell raised, or the error it raised instead. A short fixed
list of fine cells follows, whose grids span more than one block of
`trisolve.BLOCK` nodes: each line holds the cell and digests of the
assembled right-hand side and of u_h, or the error raised; the fixed list
of branch cells after it, each of which takes one branch of the solver, is
digested the same way. Run it on two trees (say a parent commit unpacked
with `git archive` and the working tree) and compare them with
`diff -r OUT_PARENT OUT_CHANGE`.

Before anything is written, this process puts SRC_ROOT/src first on its
path and imports the package, which must then live under SRC_ROOT/src
(exit 2 otherwise), so that no record is of another tree than the one
named.

`--update` rewrites tests/golden/<name>.txt, in the same format, from runs
through `bpfhelm.cli.main` in this process with this tree's package. The
tier-1 suite makes the same runs and compares them with the record byte for
byte, so a change that moves an output regenerates the record and states
what moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

_SMOOTH = ["convergence", "--k", "32", "--n-list", "16,32,64,128", "--benchmark", "smooth"]
_CONVERGENCE = ["convergence", "--k", "32", "--n-list", "16,32,64,128"]
_PAIRS = ["--k-list", "16,32", "--n-list", "64,128"]
# k = 8*pi: on n = 8 subintervals kh = pi, where the Nyquist guard fires.
_GUARD = ["convergence", "--k", "25.132741228718345", "--n-list", "8,16",
          "--benchmark", "smooth"]
_TINY_K = ["convergence", "--k", "1e-160", "--n-list", "8,16", "--scheme", "fd"]

# name -> argv. Every subcommand, every benchmark and every scheme, the
# table exit-2 path, the four verify suites, the Nyquist guard at kh = pi
# (exit 3 for bpf and fd-dc; fd has no guard and solves), fd's boundary
# determinant underflowing to zero at k = 1e-170 (exit 3), fd at
# k = 1e-160, whose smooth errors near 1e156 must not overflow in their
# squares and whose planewave error of 0.0 at n = 8 gets no rate, fd on
# smooth at k = 5e-324, where kh underflows to 0 and the boundary
# determinant falls below its threshold (exit 3; a box study stops earlier,
# at the Nyquist guard of its BPF fine reference), and smooth at
# k = 1.3e154, whose source coefficients overflow while k^2 is finite
# (exit 3).
RUNS: dict[str, list[str]] = {
    "exactness-k64": ["exactness", "--k", "64", "--n", "400"],
    "exactness-k1000": ["exactness", "--k", "1000", "--n", "400"],
    "convergence-smooth-bpf": _SMOOTH + ["--scheme", "bpf"],
    "convergence-smooth-fd": _SMOOTH + ["--scheme", "fd"],
    "convergence-smooth-fd-dc": _SMOOTH + ["--scheme", "fd-dc"],
    "convergence-planewave": _CONVERGENCE + ["--benchmark", "planewave"],
    "convergence-sine2": _CONVERGENCE + ["--benchmark", "sine2"],
    "convergence-box": ["convergence", "--k", "32", "--n-list", "243,729,2187",
                        "--benchmark", "box"],
    "convergence-box-n6561": ["convergence", "--k", "32", "--n-list", "27,81,243",
                              "--benchmark", "box", "--n", "6561"],
    "table-h-list": ["table", "--k-list", "32,64,128",
                     "--h-list", "0.03125,0.015625,0.0078125"],
    "table-linf": ["table", "--k-list", "8,16", "--n-list", "16,32", "--norm", "linf"],
    "table-not-nested": ["table", "--k-list", "4", "--n-list", "3"],
    "compare-sine2": ["compare", *_PAIRS, "--benchmark", "sine2"],
    "compare-smooth": ["compare", *_PAIRS, "--benchmark", "smooth"],
    "compare-box": ["compare", "--k-list", "16,32", "--n-list", "81,243", "--benchmark", "box"],
    "compare-box-k8": ["compare", "--k-list", "8", "--n-list", "27", "--benchmark", "box"],
    "compare-fd-roots": ["compare", "--k-list", "100,300", "--n-list", "40,100"],
    "verify-identities": ["verify", "identities"],
    "verify-identities-seed3": ["verify", "identities", "--seed", "3"],
    "verify-multipliers": ["verify", "multipliers"],
    "verify-residuals": ["verify", "residuals"],
    "verify-stability": ["verify", "stability"],
    "guard-exactness": ["exactness", "--k", "25.132741228718345", "--n", "8"],
    "guard-convergence-fd": _GUARD + ["--scheme", "fd"],
    "guard-convergence-fd-dc": _GUARD + ["--scheme", "fd-dc"],
    "singular-convergence-fd": ["convergence", "--k", "1e-170", "--n-list", "8,16",
                                "--benchmark", "smooth", "--scheme", "fd"],
    "tiny-k-convergence-smooth-fd": _TINY_K + ["--benchmark", "smooth"],
    "tiny-k-convergence-planewave-fd": _TINY_K + ["--benchmark", "planewave"],
    "zero-kh-convergence-smooth-fd": ["convergence", "--k", "5e-324", "--n-list", "8,16",
                                      "--benchmark", "smooth", "--scheme", "fd"],
    "overflow-convergence-smooth": ["convergence", "--k", "1.3e154", "--n-list", "8,16",
                                    "--benchmark", "smooth"],
}

SEED = 20260416
CELLS = 3000
BENCHMARKS = ("planewave", "smooth", "sine2")
SCHEMES = ("bpf", "fd", "fd-dc")
N_RANGE = (8, 4096)
KH_RANGE = (0.1, 3.0)
# (benchmark, scheme, n, k): the two fine references of the CLI, and the
# smallest grids of two blocks (BLOCK = 2**13 nodes per block).
FINE_CELLS = (("sine2", "bpf", 2**18, 64.0), ("box", "bpf", 3**12, 32.0),
              ("smooth", "bpf", 2**13, 32.0), ("smooth", "bpf", 2**13 + 1, 32.0))
# (benchmark, scheme, n, k) -> the solver path and correction step count the
# cell takes: fd's double root at kh = 2, its two-step and one-step
# correction bands just above (kh = k / 64 is exact on n = 64), the kernel
# angle next to pi, a streamed, corrected kernel solve, and a root-path
# solve of more than one block.
BRANCH_CELLS = {
    ("smooth", "fd", 64, 128.0): "root-2",
    ("smooth", "fd", 64, (2.0 + 1e-12) * 64): "root-2",
    ("smooth", "fd", 64, 2.001 * 64): "root-1",
    ("planewave", "bpf", 400, math.pi * (1.0 - 1e-4) * 400): "kernel-1",
    ("sine2", "bpf", 2**16, 2000.0): "kernel-1",
    ("sine2", "fd", 2**14, 2.5 * 2**14): "root-0",
}


def tree_problem(src_root: Path) -> str | None:
    """Why this process does not import bpfhelm from SRC_ROOT/src, or None
    if it does. SRC_ROOT/src goes first on sys.path."""
    src = src_root.resolve() / "src"
    sys.path.insert(0, str(src))
    try:
        import bpfhelm
    except ImportError as exc:
        return f"cannot import bpfhelm from {src}: {exc}"
    where = bpfhelm.__file__  # None for a directory without __init__.py
    if where is None or src not in Path(where).resolve().parents:
        return f"bpfhelm was imported from {where}, not {src}"
    return None


def _record(argv: list[str], code: int, stdout: str, stderr: str) -> str:
    return f"argv: {shlex.join(argv)}\nexit: {code}\n--- stdout\n{stdout}--- stderr\n{stderr}"


def run(src_root: Path, argv: list[str]) -> str:
    """One CLI run in a fresh process, as the text written for it. The
    process starts in SRC_ROOT/src, which `-m` puts first on its path."""
    src = src_root / "src"
    proc = subprocess.run([sys.executable, "-m", "bpfhelm.cli", *argv], capture_output=True,
                          text=True, cwd=src, env={**os.environ, "PYTHONPATH": str(src)})
    return _record(argv, proc.returncode, proc.stdout, proc.stderr)


def run_in_process(argv: list[str]) -> str:
    """One CLI run through bpfhelm.cli.main in this process, as the text
    run() writes for it. Warnings print to the captured stderr, as they
    would in a fresh process, whatever filters the caller has set."""
    from bpfhelm import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr)):
        warnings.simplefilter("default")
        code = cli.main(list(argv))
    return _record(argv, code, stdout.getvalue(), stderr.getvalue())


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def numeric_moves(expected: str, actual: str) -> tuple[int, float] | None:
    """How many numbers moved from one record to another, and the largest
    relative change among them; None when the text outside the numbers
    differs, so that the numbers cannot be paired."""
    if _NUMBER.sub("#", expected) != _NUMBER.sub("#", actual):
        return None
    moved = [(float(a), float(b))
             for a, b in zip(_NUMBER.findall(expected), _NUMBER.findall(actual)) if a != b]
    worst = max((abs(b - a) / max(abs(a), abs(b)) if a != b else 0.0 for a, b in moved),
                default=0.0)
    return len(moved), worst


def cells() -> list[tuple[str, str, int, float]]:
    """(benchmark, scheme, n, k): benchmark and scheme uniform, n
    log-uniform on N_RANGE, kh uniform on KH_RANGE and k = kh * n, drawn
    from SEED."""
    rng = np.random.default_rng(SEED)
    bench = rng.integers(0, len(BENCHMARKS), CELLS)
    scheme = rng.integers(0, len(SCHEMES), CELLS)
    n = np.rint(np.exp(rng.uniform(*np.log(N_RANGE), CELLS))).astype(int)
    kh = rng.uniform(*KH_RANGE, CELLS)
    return [(BENCHMARKS[b], SCHEMES[s], int(nn), float(h * nn))
            for b, s, nn, h in zip(bench, scheme, n, kh)]


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()[:16]


def digest(cell: tuple[str, str, int, float]) -> str:
    """One line for one coarse cell (see the module docstring)."""
    from bpfhelm import analysis, grid, reference, schemes

    benchmark, scheme, n, k = cell
    head = f"{benchmark},{scheme},{n},{k.hex()}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            problem, exact = reference.make_benchmark(benchmark, k)
            u_h = schemes.solve_scheme(problem, n, schemes.SchemeKind(scheme))
            ref = grid.sample(exact.u, u_h.grid)
            report = analysis.error_report(u_h, ref, k)
        except Exception as exc:  # the error is part of the cell's record
            return f"{head},error,{type(exc).__name__}"
    values = [getattr(report, f.name).hex() for f in fields(report)]
    raised = "|".join(w.category.__name__ for w in caught) or "none"
    return ",".join([head, _digest(u_h.values), _digest(ref.values), *values, raised])


def fine_digest(cell: tuple[str, str, int, float]) -> str:
    """One line for one fine or branch cell: digests of the assembled rhs
    and of u_h."""
    from bpfhelm import reference, schemes

    benchmark, scheme, n, k = cell
    head = f"{benchmark},{scheme},{n},{k.hex()}"
    try:
        problem, _ = reference.make_benchmark(benchmark, k)
        kind = schemes.SchemeKind(scheme)
        rhs = schemes.assemble(problem, n, kind).rhs
        u_h = schemes.solve_scheme(problem, n, kind)
    except Exception as exc:  # the error is part of the cell's record
        return f"{head},error,{type(exc).__name__}"
    return ",".join([head, _digest(rhs), _digest(u_h.values)])


def main(args: list[str]) -> int:
    update = args == ["--update"]
    if not update and len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src_root = ROOT if update else Path(args[0]).resolve()
    problem = tree_problem(src_root)
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    if update:
        GOLDEN.mkdir(exist_ok=True)
        for stale in GOLDEN.glob("*.txt"):
            stale.unlink()
        for name, argv in RUNS.items():
            (GOLDEN / f"{name}.txt").write_text(run_in_process(argv), encoding="utf-8")
        return 0
    out_dir = Path(args[1])
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, argv in RUNS.items():
        (out_dir / f"{name}.txt").write_text(run(src_root, argv), encoding="utf-8")
    lines = ([digest(cell) for cell in cells()]
             + [fine_digest(cell) for cell in (*FINE_CELLS, *BRANCH_CELLS)])
    (out_dir / "cells.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
