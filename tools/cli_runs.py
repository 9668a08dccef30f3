"""Run the CLI reference runs against one source tree, one file per run.

Usage:
    python tools/cli_runs.py SRC_ROOT OUT_DIR

SRC_ROOT is a checkout of this repository; each run is a fresh
`python -m bpfhelm.cli ...` process that imports the package from
SRC_ROOT/src. OUT_DIR/<name>.txt receives the argv, the exit code, stdout
and stderr of run <name>. Run it on two trees (say a parent commit unpacked
with `git archive` and the working tree) and compare them with
`diff -r OUT_PARENT OUT_CHANGE`.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path

_SMOOTH = ["convergence", "--k", "32", "--n-list", "16,32,64,128", "--benchmark", "smooth"]
_CONVERGENCE = ["convergence", "--k", "32", "--n-list", "16,32,64,128"]
_PAIRS = ["--k-list", "16,32", "--n-list", "64,128"]
# k = 8*pi: on n = 8 subintervals kh = pi, where the Nyquist guard fires.
_GUARD = ["convergence", "--k", "25.132741228718345", "--n-list", "8,16",
          "--benchmark", "smooth"]

# name -> argv. Every subcommand, every benchmark and every scheme, the
# table exit-2 path, the four verify suites and the Nyquist guard at kh = pi
# (exit 3 for bpf and fd-dc; fd has no guard and solves).
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
}


def run(src_root: Path, argv: list[str]) -> str:
    """One CLI run in a fresh process, as the text written for it."""
    env = {**os.environ, "PYTHONPATH": str(src_root / "src")}
    proc = subprocess.run([sys.executable, "-m", "bpfhelm.cli", *argv],
                          capture_output=True, text=True, env=env)
    return (f"argv: {shlex.join(argv)}\nexit: {proc.returncode}\n"
            f"--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}")


def main(args: list[str]) -> int:
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src_root, out_dir = Path(args[0]).resolve(), Path(args[1])
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, argv in RUNS.items():
        (out_dir / f"{name}.txt").write_text(run(src_root, argv), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
