"""Digest the library path of a fixed list of cells, one line per cell.

Usage:
    python tools/cell_digests.py SRC_ROOT OUT

SRC_ROOT is a checkout of this repository; the package is imported from
SRC_ROOT/src. Each cell takes the path of a coarse sweep cell
(`make_benchmark`, `solve_scheme`, `sample` of the exact solution,
`error_report`), and OUT receives one line per cell: the cell, a digest of
the solution u_h and of the sampled exact solution, the eight ErrorReport
fields to the last bit (`float.hex`) and the warnings the cell raised, or
the error it raised instead. A short fixed list of fine cells follows,
whose grids span more than one block of `trisolve.BLOCK` nodes: each line
holds the cell and digests of the assembled right-hand side and of u_h, or
the error raised; the fixed list of branch cells after it, each of which
takes one branch of the solver, is digested the same way. The package must
live under SRC_ROOT/src (exit 2 otherwise), so that no run digests another
tree than the one named. It is the library-path twin of
`tools/cli_runs.py`: run it on two trees (say a parent commit unpacked with
`git archive` and the working tree) and compare them with
`diff OUT_PARENT OUT_CHANGE`.
"""

from __future__ import annotations

import hashlib
import math
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

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
    """One line for one cell (see the module docstring)."""
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
    """One line for one fine cell: digests of the assembled rhs and of u_h."""
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
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(args[0]).resolve() / "src"
    sys.path.insert(0, str(src))
    try:
        import bpfhelm
    except ImportError as exc:
        print(f"cannot import bpfhelm from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(bpfhelm.__file__).resolve().parents:
        print(f"bpfhelm was imported from {bpfhelm.__file__}, not {src}", file=sys.stderr)
        return 2
    lines = ([digest(cell) for cell in cells()]
             + [fine_digest(cell) for cell in (*FINE_CELLS, *BRANCH_CELLS)])
    Path(args[1]).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
