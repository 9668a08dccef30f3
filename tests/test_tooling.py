"""Test tooling: the pytest configuration, the CLI run recorder and its
committed record, the library-path cell digests, the benchmark pair runner's
verdict, the check that every tool reads the tree it is given, and the rules
that no package module imports another's private names and that the package
does not import numpy.polynomial."""

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
    assert len(runs) == 30
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


def test_cell_digests_branch_cells_take_their_listed_paths(solve_routes):
    module = _load_tool("cell_digests")
    assert len(module.BRANCH_CELLS) == 6
    for cell, route in module.BRANCH_CELLS.items():
        solve_routes.clear()
        assert ",error," not in module.fine_digest(cell)
        assert solve_routes == [route], cell


def test_cell_digests_reject_a_tree_without_the_package(tmp_path, child_env):
    # with this tree's package on the path, a wrong SRC_ROOT used to digest
    # this tree, so that a parent-vs-change diff compared a tree with itself
    out = tmp_path / "digests.txt"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cell_digests.py"), str(tmp_path / "no-tree"),
         str(out)], capture_output=True, text=True, env=child_env)
    assert proc.returncode == 2, proc.stderr
    assert "not " + str(tmp_path / "no-tree" / "src") in proc.stderr
    assert not out.exists()


def test_cli_runs_reject_a_tree_without_the_package(tmp_path):
    # a wrong SRC_ROOT used to write one ModuleNotFoundError record per run
    out = tmp_path / "runs"
    assert _load_cli_runs().main([str(tmp_path / "no-tree"), str(out)]) == 2
    assert not out.exists()


def test_bench_pairs_reject_a_tree_without_the_package(tmp_path):
    # before any run: a wrong root would pair a tree with itself or fail late
    main = _load_tool("bench_pairs").main
    out = tmp_path / "bench.json"
    for roots in ((tmp_path / "no-tree", ROOT), (ROOT, tmp_path / "no-tree")):
        assert main([*map(str, roots), str(out), "--workload", "sweep"]) == 2
    assert not out.exists()


def test_bench_pairs_verdict_on_canned_runs():
    pair_verdict = _load_tool("bench_pairs").pair_verdict

    def verdict(parent, change, better, bound):
        return pair_verdict(parent, change, better, bound, {"parent": 0.0, "change": 0.0})

    parent = [100.0, 104, 98, 102, 110, 101, 99, 103, 97, 105]  # quartiles 99.25, 103.75
    faster = [p - 12 for p in parent]
    met = verdict(parent, faster, "lower", 0.25)
    assert met["parent"] == {"q1": 99.25, "median": 101.5, "q3": 103.75}
    assert (met["change_better_pairs"], met["parent_iqr"], met["median_gap"]) == (10, 4.5, 12)
    assert met["met"] and not met["worse_than_bound"]
    assert met["runs"] == {"parent": parent, "change": faster}
    # a gap inside the parent's IQR, or two lost pairs and a tie, fails the rule
    assert not verdict(parent, [p - 3 for p in parent], "lower", 0.25)["met"]
    lost_two = [101, 92, 86, 90, 111, 89, 87, 91, 85, 105]
    lost = verdict(parent, lost_two, "lower", 0.25)
    assert lost["change_better_pairs"] == 7 and lost["median_gap"] > 4.5 and not lost["met"]
    # the better direction decides wins, gap and the bound
    assert verdict(parent, [p + 12 for p in parent], "higher", 0.25)["met"]
    slower = verdict(parent, [1.3 * p for p in parent], "lower", 0.25)
    assert slower["change_better_pairs"] == 0 and slower["worse_than_bound"]
    assert not verdict(parent, [1.2 * p for p in parent], "lower", 0.25)["worse_than_bound"]
    # the rule asks for ten pairs: nine clear wins in nine pairs are not enough
    assert not verdict(parent[:9], faster[:9], "lower", 0.25)["met"]
    # a gain does not count when a larger share of the change's ops fails
    assert pair_verdict(parent, faster, "lower", 0.25, {"parent": 0.01, "change": 0.01})["met"]
    more_failed = pair_verdict(parent, faster, "lower", 0.25, {"parent": 0.01, "change": 0.02})
    assert not more_failed["met"] and more_failed["change_better_pairs"] == 10


def test_package_does_not_import_numpy_polynomial(child_env):
    # the package evaluates and differentiates its polynomials itself, so
    # no process pays for importing numpy.polynomial
    proc = subprocess.run(
        [sys.executable, "-c",
         "import bpfhelm, sys; assert 'numpy.polynomial' not in sys.modules"],
        capture_output=True, text=True, timeout=60, env=child_env)
    assert proc.returncode == 0, proc.stderr


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
