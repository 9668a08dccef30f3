"""The CLI reference runs: recorded against a source tree, or checked
against the committed record in tests/golden.

Usage:
    python tools/cli_runs.py SRC_ROOT OUT_DIR
    python tools/cli_runs.py --update

SRC_ROOT is a checkout of this repository; each run is a fresh
`python -m bpfhelm.cli ...` process that imports the package from
SRC_ROOT/src. OUT_DIR/<name>.txt receives the argv, the exit code, stdout
and stderr of run <name>. Run it on two trees (say a parent commit unpacked
with `git archive` and the working tree) and compare them with
`diff -r OUT_PARENT OUT_CHANGE`. Before any run, a probe process checks that
the package the runs import lives under SRC_ROOT/src (exit 2 otherwise).

`--update` rewrites tests/golden/<name>.txt, in the same format, from runs
through `bpfhelm.cli.main` in this process with this tree's package. The
tier-1 suite makes the same runs and compares them with the record byte for
byte, so a change that moves an output regenerates the record and states
what moved.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

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
# squares and whose planewave error of 0.0 at n = 8 gets no rate, fd at
# k = 5e-324, where kh underflows to 0 (exit 3), and smooth at k = 1.3e154,
# whose source coefficients overflow while k^2 is finite (exit 3).
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
    "zero-kh-convergence-box-fd": ["convergence", "--k", "5e-324", "--n-list", "27,81",
                                   "--benchmark", "box", "--scheme", "fd"],
    "overflow-convergence-smooth": ["convergence", "--k", "1.3e154", "--n-list", "8,16",
                                    "--benchmark", "smooth"],
}


def _record(argv: list[str], code: int, stdout: str, stderr: str) -> str:
    return f"argv: {shlex.join(argv)}\nexit: {code}\n--- stdout\n{stdout}--- stderr\n{stderr}"


def _run_process(src_root: Path, args: list[str]) -> subprocess.CompletedProcess:
    """`python ARGS` in a fresh process that imports the package from
    SRC_ROOT/src."""
    env = {**os.environ, "PYTHONPATH": str(src_root / "src")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run(src_root: Path, argv: list[str]) -> str:
    """One CLI run in a fresh process, as the text written for it."""
    proc = _run_process(src_root, ["-m", "bpfhelm.cli", *argv])
    return _record(argv, proc.returncode, proc.stdout, proc.stderr)


def tree_problem(src_root: Path) -> str | None:
    """Why a run would not import bpfhelm from SRC_ROOT/src, or None if it
    would."""
    src = src_root.resolve() / "src"
    proc = _run_process(src_root, ["-c", "import bpfhelm; print(bpfhelm.__file__)"])
    if proc.returncode != 0:
        reason = proc.stderr.strip().rsplit("\n", 1)[-1]
        return f"cannot import bpfhelm from {src}: {reason}"
    if src not in Path(proc.stdout.strip()).resolve().parents:
        return f"bpfhelm was imported from {proc.stdout.strip()}, not {src}"
    return None


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


def main(args: list[str]) -> int:
    if args == ["--update"]:
        sys.path.insert(0, str(ROOT / "src"))
        GOLDEN.mkdir(exist_ok=True)
        for stale in GOLDEN.glob("*.txt"):
            stale.unlink()
        for name, argv in RUNS.items():
            (GOLDEN / f"{name}.txt").write_text(run_in_process(argv), encoding="utf-8")
        return 0
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src_root, out_dir = Path(args[0]).resolve(), Path(args[1])
    problem = tree_problem(src_root)
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, argv in RUNS.items():
        (out_dir / f"{name}.txt").write_text(run(src_root, argv), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
