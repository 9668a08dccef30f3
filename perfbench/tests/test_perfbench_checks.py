"""Self-tests of the benchmark: each checker passes the real answer and a
round-off-level change to it, rejects a wrong answer, and a rejected op is
counted as failed. Tracing counts repeat exactly and the wrappers leave
no trace behind.

Run with ``python3 -m pytest perfbench/tests -q`` from the checkout root.
"""

import dataclasses
import functools

import pytest

import bpfhelm
from bpfhelm import schemes, trisolve
import run
import workloads
from tracing import Tracer
from workloads import WORKLOADS, Cell, CheckFailed, CommandResult

SWEEP_CELLS = [
    Cell("planewave", "bpf", 64, 80.0),
    Cell("planewave", "bpf", 3418, 9843.78),
    Cell("smooth", "fd", 100, 150.0),
    Cell("sine2", "fd-dc", 37, 20.5),
]


@functools.lru_cache(maxsize=None)
def real_output(workload_name, op_index=0):
    wl = WORKLOADS[workload_name]
    op = wl.make_ops(0)[op_index]
    return op, wl.run(op)


def failed_with(workload_name, op, perturb):
    """Run one op through the harness loop with its output perturbed."""
    wl = WORKLOADS[workload_name]
    bad = dataclasses.replace(wl, run=lambda o: perturb(wl.run(o)))
    tally = run.run_loop(bad, [op], count=1)
    return tally.attempted, tally.failed


def _edit_stdout(results, index, edit):
    results = list(results)
    r = results[index]
    results[index] = CommandResult(r.argv, r.code, edit(r.stdout))
    return results


# -- sweep --------------------------------------------------------------------


@pytest.mark.parametrize("cell", SWEEP_CELLS)
def test_sweep_accepts_real_cells(cell):
    workloads.check_cell(cell, workloads.run_cell(cell))


def test_sweep_ops_are_seeded():
    assert workloads.sweep_ops(5)[:50] == workloads.sweep_ops(5)[:50]
    assert workloads.sweep_ops(5)[:50] != workloads.sweep_ops(6)[:50]


@pytest.mark.parametrize("cell", SWEEP_CELLS)
def test_sweep_rejects_scaled_solution(cell):
    def scale(out):
        u = out.u_h
        scaled = bpfhelm.GridFunction(u.grid, u.values * (1 + 1e-6))
        return dataclasses.replace(out, u_h=scaled)

    with pytest.raises(CheckFailed):
        workloads.check_cell(cell, scale(workloads.run_cell(cell)))
    assert failed_with("sweep", cell, scale) == (1, 1)


def test_sweep_rejects_wrong_error_report():
    cell = SWEEP_CELLS[2]

    def inflate(out):
        return dataclasses.replace(
            out, report=dataclasses.replace(out.report, abs_v=out.report.abs_v * 1.001))

    assert failed_with("sweep", cell, inflate) == (1, 1)


def test_plane_wave_bound_is_the_papers_on_coarse_grids():
    assert workloads.plane_wave_bound(Cell("planewave", "bpf", 8, 16.0)) == 1e-12


def test_op_that_raises_counts_as_failed():
    def boom(out):
        raise RuntimeError("boom")

    assert failed_with("sweep", SWEEP_CELLS[0], boom) == (1, 1)


# -- cli-reference --------------------------------------------------------------


def test_cli_reference_accepts_real_output():
    op, results = real_output("cli-reference")
    workloads.check_cli_reference(op, results)


def _double_first_entry(text):
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("3.2"))
    fields = lines[row].split(",")
    fields[1] = repr(2 * float(fields[1]))
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("perturb", [
    lambda r: _edit_stdout(r, 0, _double_first_entry),
    lambda r: _edit_stdout(r, 0, lambda t: t.replace("e-05", "e+nan", 1)),
    lambda r: _edit_stdout(r, 1, lambda t: "\n".join(
        line for line in t.splitlines() if "rate_fit,err_v_rel" not in line)),
    lambda r: [dataclasses.replace(r[0], code=3), r[1]],
], ids=["table-entry-doubled", "non-finite", "rate-line-missing", "exit-code"])
def test_cli_reference_rejects_wrong_output(perturb):
    op, results = real_output("cli-reference")
    with pytest.raises(CheckFailed):
        workloads.check_cli_reference(op, perturb(results))
    assert failed_with("cli-reference", op, perturb) == (1, 1)


# -- verify ---------------------------------------------------------------------


def test_verify_accepts_real_output():
    op, results = real_output("verify")
    workloads.check_verify(op, results)


def test_verify_rejects_flipped_check():
    op, results = real_output("verify")
    flip = functools.partial(_edit_stdout, index=2,
                             edit=lambda t: t.replace("\nPASS,", "\nFAIL,", 1))
    with pytest.raises(CheckFailed):
        workloads.check_verify(op, flip(results))
    assert failed_with("verify", op, lambda r: flip(r)) == (1, 1)


# -- round-off-level change -------------------------------------------------------


def _lapack_solve(system):
    from scipy.linalg import lapack

    *_, x, info = lapack.zgtsv(system.lower, system.diag, system.upper, system.rhs)
    assert info == 0
    return x


def test_a_lapack_solver_passes_every_check(monkeypatch):
    """Swapping the Thomas loop for LAPACK zgtsv changes answers at round-off
    level only; every checker must accept it."""
    monkeypatch.setattr(schemes, "solve_tridiagonal", _lapack_solve)
    for cell in SWEEP_CELLS:
        workloads.check_cell(cell, workloads.run_cell(cell))
    for name in ("cli-reference", "verify"):
        op = WORKLOADS[name].make_ops(0)[0]
        WORKLOADS[name].check(op, WORKLOADS[name].run(op))


# -- tracing ----------------------------------------------------------------------


def _traced_counts(workload_name, ops):
    tracer = Tracer()
    with tracer.installed():
        tally = run.run_loop(WORKLOADS[workload_name], ops, count=len(ops), tracer=tracer)
    assert tally.failed == 0
    return tracer.summary()


def test_trace_counts_repeat_and_wrappers_are_removed():
    originals = (schemes.solve_scheme, schemes.solve_tridiagonal, trisolve.solve_tridiagonal,
                 bpfhelm.numerics.theta, dict(bpfhelm.analysis.VERIFY_SUITES))
    ops = workloads.sweep_ops(3)[:30]
    first, timings = _traced_counts("sweep", ops)
    second, _ = _traced_counts("sweep", ops)
    assert first == second
    assert first["schemes.solve_scheme.calls"] == 30
    assert first["trisolve.solve_tridiagonal.unknowns"] == sum(c.n + 1 for c in ops)
    assert timings["trisolve.solve_tridiagonal.self_s"] > 0
    assert originals == (schemes.solve_scheme, schemes.solve_tridiagonal,
                         trisolve.solve_tridiagonal, bpfhelm.numerics.theta,
                         dict(bpfhelm.analysis.VERIFY_SUITES))


def test_trace_counts_cache_hits_of_cli_reference():
    op = WORKLOADS["cli-reference"].make_ops(0)[0]
    counts, timings = _traced_counts("cli-reference", [op])
    assert counts["reference.fine_grid_reference.calls"] == 10
    assert counts["reference.fine_grid_reference.misses"] == 4
    assert counts["reference.fine_grid_reference.hit_ratio"] == 0.6
    assert counts["cli.output_bytes"] > 0
    layer_self = {k: v for k, v in timings.items() if k.endswith(".self_s")}
    assert max(layer_self, key=layer_self.get) == "trisolve.solve_tridiagonal.self_s"


def test_counted_failure_is_visible_in_trace():
    """A wrong answer under tracing is still a failed op."""
    wl = WORKLOADS["sweep"]
    bad = dataclasses.replace(wl, check=lambda op, out: workloads._require(False, "wrong"))
    tracer = Tracer()
    with tracer.installed():
        tally = run.run_loop(bad, workloads.sweep_ops(1)[:3], count=3, tracer=tracer)
    assert (tally.attempted, tally.failed) == (3, 3)
