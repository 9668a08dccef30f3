"""Test tooling: the pytest configuration and the CLI run recorder."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from bpfhelm.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def _load_cli_runs():
    spec = importlib.util.spec_from_file_location("cli_runs", ROOT / "tools" / "cli_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_failing_given_test_does_not_abort_the_run(tmp_path):
    # Hypothesis imports libcst to write a patch for a failing @given test;
    # the import's DeprecationWarning used to end the run in an INTERNALERROR
    # before any later test ran
    (tmp_path / "test_a_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n")
    (tmp_path / "test_b_passes.py").write_text("def test_passes():\n    assert True\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "test_a_fails.py", "test_b_passes.py"],
        capture_output=True, text=True, cwd=tmp_path)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output


def test_cli_runs_cover_every_subcommand_and_parse():
    runs = _load_cli_runs().RUNS
    assert len(runs) == 25
    assert {argv[0] for argv in runs.values()} == {
        "exactness", "convergence", "table", "compare", "verify"}
    for argv in runs.values():
        build_parser().parse_args(argv)


def test_cli_run_record():
    module = _load_cli_runs()
    text = module.run(ROOT, ["table", "--k-list", "4", "--n-list", "3"])
    lines = text.splitlines()
    assert lines[:4] == ["argv: table --k-list 4 --n-list 3", "exit: 2", "--- stdout",
                         "--- stderr"]
    assert lines[4].startswith("usage error: ") and len(lines) == 5
