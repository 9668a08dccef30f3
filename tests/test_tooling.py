"""Test tooling: the pytest configuration, the CLI run recorder and its
committed record, the library-path cell digests, and the rule that no
package module imports another's private names."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

from bpfhelm.analysis import error_report
from bpfhelm.cli import build_parser
from bpfhelm.grid import sample
from bpfhelm.reference import make_benchmark
from bpfhelm.schemes import SchemeKind, assemble, solve_scheme
from bpfhelm.trisolve import BLOCK

ROOT = Path(__file__).resolve().parents[1]


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_cli_runs():
    return _load_tool("cli_runs")


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


def test_cli_runs_match_the_golden_record():
    # the record was written from the runs' fresh processes; in-process
    # runs through cli.main must reproduce it byte for byte
    module = _load_cli_runs()
    assert sorted(path.stem for path in module.GOLDEN.glob("*.txt")) == sorted(module.RUNS)
    differ = []
    for name, argv in module.RUNS.items():
        expected = (module.GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        actual = module.run_in_process(argv)
        if actual != expected:
            moves = module.numeric_moves(expected, actual)
            differ.append(f"{name}.txt: " + (
                "text outside the numbers differs" if moves is None else
                f"{moves[0]} numeric fields moved, largest relative change {moves[1]:.3e}"))
    assert not differ, ("outputs differ from tests/golden (after an intended change, run "
                        "`python tools/cli_runs.py --update` and state what moved):\n"
                        + "\n".join(differ))


def test_numeric_moves_counts_fields_and_largest_change():
    module = _load_cli_runs()
    before = "argv: x\nk,err\n8.0000e+00,1.0000000000000000e-03,2.0\n"
    after = "argv: x\nk,err\n8.0000e+00,1.0000000000000002e-03,2.5\n"
    count, worst = module.numeric_moves(before, after)
    assert count == 2 and worst == (2.5 - 2.0) / 2.5
    assert module.numeric_moves(before, before) == (0, 0.0)
    assert module.numeric_moves(before, after.replace("err", "rel")) is None


def test_cell_digests_smoke(tmp_path):
    module = _load_tool("cell_digests")
    cells = module.cells()
    assert len(cells) >= 3000 and cells == module.cells()
    assert {c[:2] for c in cells} == {(b, s) for b in module.BENCHMARKS for s in module.SCHEMES}
    assert all(8 <= n <= 4096 and 0.1 <= k / n <= 3.0 for _, _, n, k in cells)
    lines = [module.digest(cell) for cell in cells[:12]]
    assert lines == [module.digest(cell) for cell in cells[:12]]
    benchmark, scheme, n, k = cells[0]
    problem, exact = make_benchmark(benchmark, k)
    u_h = solve_scheme(problem, n, SchemeKind(scheme))
    report = error_report(u_h, sample(exact.u, u_h.grid), k)
    fields = lines[0].split(",")
    assert fields[:4] == [benchmark, scheme, str(n), k.hex()]
    assert [float.fromhex(v) for v in fields[6:14]] == [
        report.abs_linf, report.rel_linf, report.abs_l2h, report.rel_l2h,
        report.abs_h1, report.rel_h1, report.abs_v, report.rel_v]
    assert fields[14] == "none"
    assert module.main([str(ROOT)]) == 2
    # the fine cells reach the blocked sampling path
    assert all(n + 1 > BLOCK for _, _, n, _ in module.FINE_CELLS)
    benchmark, scheme, n, k = module.FINE_CELLS[-1]
    problem, _ = make_benchmark(benchmark, k)
    kind = SchemeKind(scheme)
    assert module.fine_digest(module.FINE_CELLS[-1]).split(",") == [
        benchmark, scheme, str(n), k.hex(), module._digest(assemble(problem, n, kind).rhs),
        module._digest(solve_scheme(problem, n, kind).values)]


def test_no_module_imports_another_modules_private_name():
    # an underscore name is its own module's business: importing it ties two
    # modules together through what neither of them exports
    offenders = []
    for path in sorted((ROOT / "src" / "bpfhelm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "bpfhelm"):
                offenders += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
    assert offenders == []
