"""CLI subcommands: CSV schemas, exit codes, determinism."""

import argparse
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bpfhelm import analysis, cli, reference
from bpfhelm.analysis import verify_stability
from bpfhelm.cli import build_parser, main
from bpfhelm.reference import BENCHMARKS, clear_reference_cache, make_benchmark


def _run(tmp_path, args, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestExactness:
    def test_success(self, tmp_path):
        code, text = _run(tmp_path, ["exactness", "--k", str(2.0**7), "--n", "8"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "k,n,h,err_linf_abs"
        fields = lines[1].split(",")
        assert int(fields[1]) == 8
        assert float(fields[3]) <= 1e-12

    def test_any_admissible_grid(self, tmp_path):
        code, text = _run(tmp_path, ["exactness", "--k", str(2.0**5), "--n", "4"])
        assert code == 0
        assert float(text.strip().splitlines()[1].split(",")[3]) <= 1e-12

    def test_nyquist_guard_exit_code(self, tmp_path):
        code = main(["exactness", "--k", str(math.pi * 8), "--n", "8",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3

    # ROADMAP item 1: a step against rows written from c and theta mends
    # them all, and xfail_strict then fails them until this mark goes
    @pytest.mark.xfail(raises=AssertionError,
                       reason="the correction step reads the rounded interior diagonal, "
                              "whose kernel angle drifts by eps/|sin kh|, and the stored "
                              "boundary rows, whose rounding 1/|sin kh| amplifies")
    @pytest.mark.parametrize("k, n", [
        ("1.2565113977297738e3", "400"),    # kh near pi: 1.06e-9
        ("0.055759719708555706", "1000"),   # kh = 5.6e-5: 7.2e-10
        ("402.1238600616174", "8"),         # kh = 16 pi + 5e-8: 3.98e-9
        ("0.001", "10"),                    # kh = 1e-4, the boundary rows: 8.2e-12
    ], ids=["kh-near-pi", "kh-near-0", "kh-near-16pi", "kh-1e-4"])
    def test_plane_wave_exact_at_both_ends_of_the_guard_domain(self, tmp_path, k, n):
        code, text = _run(tmp_path, ["exactness", "--k", k, "--n", n])
        assert code == 0, text


class TestConvergence:
    def test_smooth_csv(self, tmp_path):
        code, text = _run(tmp_path, [
            "convergence", "--k", "32", "--n-list", "243,729,2187",
            "--benchmark", "smooth", "--scheme", "bpf"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "k,h,err_linf_rel,err_v_rel"
        assert len([ln for ln in lines if not ln.startswith("#")]) == 4
        footers = [ln for ln in lines if ln.startswith("# rate_fit")]
        assert len(footers) == 2
        rate_v = float(footers[1].split(",")[2])
        assert 1.9 <= rate_v <= 2.1

    @pytest.mark.parametrize("argv, reason", [
        (["--k", "1e-170", "--benchmark", "smooth"], "zero"),     # det and threshold underflow
        (["--k", "1e150", "--benchmark", "planewave"], "inf"),   # det overflows
    ], ids=["tiny-k", "huge-k"])
    def test_singular_boundary_system_exit_3(self, tmp_path, capsys, argv, reason):
        code = main(["convergence", "--n-list", "8,16", "--scheme", "fd", *argv,
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"numerical guard: boundary system determinant is {reason}\n")

    def test_guard_at_huge_kh_prints_one_short_line(self, tmp_path, capsys):
        # the message used to name the multiple of pi in all 148 digits,
        # though floats near kh = 2.4e148 are 2.8e132 apart
        code = main(["convergence", "--k", "1.3e154", "--n-list", "27,81",
                     "--benchmark", "box", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == ("numerical guard: kh = 2.446179350106597e+148 is too large to place "
                       "against pi*Z (float spacing 2.84e+132 exceeds pi)\n")

    @pytest.mark.parametrize("k", ["3.3e20", "7.7e40", "1e100"])
    def test_guard_rejects_every_kh_floats_cannot_place(self, capsys, k):
        # above kh = 2^54 floats are more than pi apart, so the distance to
        # the rounded m*pi (above GUARD_TOL*pi at 7.7e40) says nothing
        code = main(["exactness", "--k", k, "--n", "8"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1 and "too large to place against pi*Z" in err

    def test_floored_footer(self, tmp_path):
        code, text = _run(tmp_path, [
            "convergence", "--k", "128", "--n-list", "8,16",
            "--benchmark", "planewave"])
        assert code == 0
        assert "floored" in text

    @pytest.mark.parametrize("name, floored", [("smooth", 0), ("planewave", 2)])
    def test_tiny_k_prints_no_inf_or_nan(self, capsys, name, floored):
        # at k = 1e-160 fd's smooth errors near 1e156 must not overflow in
        # their squares, and planewave's exact 0.0 at n = 8 gets no rate
        code = main(["convergence", "--k", "1e-160", "--n-list", "8,16",
                     "--benchmark", name, "--scheme", "fd"])
        out = capsys.readouterr().out
        assert code == 0
        values = [f for line in out.splitlines()[1:] for f in line.split(",")
                  if not f.startswith(("#", "err_"))]
        assert all(f == "floored" or math.isfinite(float(f)) for f in values)
        assert values.count("floored") == floored

    def test_h_list_accepted(self, tmp_path):
        code, text = _run(tmp_path, [
            "convergence", "--k", "32", "--h-list", "0.04,0.02",
            "--benchmark", "smooth"])
        assert code == 0
        assert "err_v_rel" in text

    def test_box_benchmark_uses_fine_reference(self, tmp_path):
        clear_reference_cache()
        code, text = _run(tmp_path, [
            "convergence", "--k", "32", "--n-list", "27,81",
            "--benchmark", "box", "--n", "2187"])
        assert code == 0
        body = [ln for ln in text.strip().splitlines()
                if ln and not ln.startswith("#") and not ln.startswith("k,")]
        errs = [float(ln.split(",")[3]) for ln in body]
        assert errs[0] > errs[1] > 0.0

    def test_missing_lists_usage_error(self, tmp_path):
        code = main(["convergence", "--k", "32",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_norm_option_rejected(self, tmp_path, capsys):
        # the CSV always reports linf and v, so --norm has nothing to select
        code = main(["convergence", "--k", "32", "--n-list", "8,16", "--norm", "l2h",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "--norm" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["sine2", "smooth", "planewave"])
    def test_n_rejected_for_closed_form_benchmark(self, tmp_path, capsys, name):
        code = main(["convergence", "--k", "4", "--n-list", "8,16", "--benchmark", name,
                     "--n", "12345", "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1 and "--n" in err
        assert not (tmp_path / "x.csv").exists()


class TestTable:
    def test_matrix_layout(self, tmp_path):
        clear_reference_cache()
        code, text = _run(tmp_path, [
            "table", "--k-list", "32,64", "--h-list", "0.03125,0.015625",
            "--n", "4096"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0].startswith("# reference,exact")
        assert lines[1].startswith("k\\h,")
        # two k rows after the header
        assert len(lines[1].split(",")) == 3
        fine_idx = lines.index("# reference,fine,norm,v")
        assert fine_idx > 0
        diag_lines = [ln for ln in lines if ln.startswith("# diagonal_kh")]
        assert len(diag_lines) == 3  # kh in {0.5, 1, 2}

    def test_deterministic_output(self, tmp_path):
        clear_reference_cache()
        _, first = _run(tmp_path, [
            "table", "--k-list", "32", "--h-list", "0.03125", "--n", "1024"],
            name="a.csv")
        clear_reference_cache()
        _, second = _run(tmp_path, [
            "table", "--k-list", "32", "--h-list", "0.03125", "--n", "1024"],
            name="b.csv")
        assert first == second

    def test_each_cell_solved_once(self, tmp_path, monkeypatch):
        # 2 x 2 coarse solves plus one fine reference per wavenumber
        clear_reference_cache()
        calls = {"solve": 0, "benchmark": 0}
        real_solve, real_benchmark = cli.solve_scheme, cli.make_benchmark

        def solve_spy(*args):
            calls["solve"] += 1
            return real_solve(*args)

        def benchmark_spy(*args):
            calls["benchmark"] += 1
            return real_benchmark(*args)

        monkeypatch.setattr(cli, "solve_scheme", solve_spy)
        monkeypatch.setattr(reference, "solve_scheme", solve_spy)
        monkeypatch.setattr(cli, "make_benchmark", benchmark_spy)
        code, text = _run(tmp_path, ["table", "--k-list", "4,8", "--h-list", "0.25,0.125",
                                     "--n", "64"])
        assert code == 0
        assert calls == {"solve": 6, "benchmark": 2}
        assert text.count("# reference,") == 2

    def test_header_is_the_solved_mesh_size(self, tmp_path):
        # 0.3333333333 is accepted as 1/3; the columns report h = 1/n
        code, text = _run(tmp_path, ["table", "--k-list", "4", "--h-list",
                                     "0.3333333333,0.25", "--n", "12"])
        assert code == 0
        header = text.splitlines()[1]
        assert header == "k\\h,3.3333333333333331e-01,2.5000000000000000e-01"

    def test_n_list_and_h_list_agree(self, tmp_path):
        _, by_h = _run(tmp_path, ["table", "--k-list", "4", "--h-list", "0.25,0.125",
                                  "--n", "64"], name="h.csv")
        _, by_n = _run(tmp_path, ["table", "--k-list", "4", "--n-list", "4,8",
                                  "--n", "64"], name="n.csv")
        assert by_h == by_n

    def test_requires_h_or_n_list(self, tmp_path):
        code = main(["table", "--k-list", "32", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_resonant_wavenumber_guard_exit(self, tmp_path):
        # sine2 particular solution blows up at k = 2*pi
        code = main(["table", "--k-list", str(2.0 * math.pi), "--h-list", "0.03125",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3


class TestCompare:
    def test_rows_per_scheme(self, tmp_path):
        code, text = _run(tmp_path, [
            "compare", "--k-list", "32,64", "--n-list", "64,128"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "scheme,k,h,kh,err_linf_rel"
        body = [ln for ln in lines[1:] if ln]
        assert len(body) == 6  # 3 schemes x 2 pairs
        schemes = {ln.split(",")[0] for ln in body}
        assert schemes == {"bpf", "fd", "fd-dc"}
        # kh column constant at 0.5
        for ln in body:
            assert float(ln.split(",")[3]) == pytest.approx(0.5)

    def test_single_pair(self, tmp_path):
        code, text = _run(tmp_path, ["compare", "--k-list", "32", "--n-list", "64"])
        assert code == 0
        assert len([ln for ln in text.strip().splitlines()[1:] if ln]) == 3

    def test_mismatched_lists_usage_error(self, tmp_path):
        code = main(["compare", "--k-list", "32,64", "--n-list", "64",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_ordering_at_fixed_resolution(self, tmp_path):
        code, text = _run(tmp_path, ["compare", "--k-list", "64", "--n-list", "128"])
        assert code == 0
        errs = {ln.split(",")[0]: float(ln.split(",")[4])
                for ln in text.strip().splitlines()[1:] if ln}
        assert errs["bpf"] < errs["fd-dc"] < errs["fd"]

    def test_classical_error_grows_with_k_at_fixed_resolution(self, tmp_path):
        # same kh = 1/2 at both wavenumbers; dispersion accumulates with k
        code, text = _run(tmp_path, [
            "compare", "--k-list", "32,512", "--n-list", "64,1024"])
        assert code == 0
        fd_errs = [float(ln.split(",")[4]) for ln in text.strip().splitlines()[1:]
                   if ln.startswith("fd,")]
        bpf_errs = [float(ln.split(",")[4]) for ln in text.strip().splitlines()[1:]
                    if ln.startswith("bpf,")]
        assert fd_errs[1] > fd_errs[0]      # classical deteriorates
        assert bpf_errs[1] < bpf_errs[0]    # phase-fitted improves

    def test_box_against_shared_fine_reference(self, tmp_path, monkeypatch):
        clear_reference_cache()
        built, refs = [], []
        real_benchmark, real_reference = cli.make_benchmark, cli.fine_grid_reference

        def benchmark_spy(name, k):
            built.append(k)
            return real_benchmark(name, k)

        def reference_spy(p, n_ref, kind):
            refs.append((p.k, n_ref, kind))
            return real_reference(p, n_ref, kind)

        monkeypatch.setattr(cli, "make_benchmark", benchmark_spy)
        monkeypatch.setattr(cli, "fine_grid_reference", reference_spy)
        code, text = _run(tmp_path, ["compare", "--k-list", "8,16", "--n-list", "81,243",
                                     "--benchmark", "box"])
        assert code == 0
        body = text.strip().splitlines()[1:]
        assert len(body) == 6  # 3 schemes x 2 pairs
        assert [ln.split(",")[0] for ln in body] == ["bpf", "bpf", "fd-dc", "fd-dc", "fd", "fd"]
        assert built == [8.0, 16.0]
        n_ref = BENCHMARKS["box"][1]
        assert refs == [(8.0, n_ref, cli.SchemeKind.BPF), (16.0, n_ref, cli.SchemeKind.BPF)]
        assert all(0.0 < float(ln.split(",")[4]) < 1e-2 for ln in body)

    def test_closed_form_sampled_once_per_pair(self, tmp_path, monkeypatch):
        # the closed form used to be sampled once per scheme: three times a pair
        sampled, real_sample = [], cli.sample

        def sample_spy(fn, grid):
            sampled.append(grid.n)
            return real_sample(fn, grid)

        monkeypatch.setattr(cli, "sample", sample_spy)
        code, text = _run(tmp_path, ["compare", "--k-list", "8,16", "--n-list", "32,64",
                                     "--benchmark", "sine2"])
        assert code == 0
        assert len(text.strip().splitlines()) == 1 + 6
        assert sampled == [32, 64]

    def test_box_mesh_must_divide_fine_reference(self, tmp_path, monkeypatch, capsys):
        factory, _ = BENCHMARKS["box"]
        monkeypatch.setitem(BENCHMARKS, "box", (factory, 81))
        code = main(["compare", "--k-list", "8", "--n-list", "64", "--benchmark", "box",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


class TestVerify:
    def test_residual_suite_passes(self, tmp_path):
        code, text = _run(tmp_path, ["verify", "residuals"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "status,check,value,bound,detail"
        assert all(ln.startswith("PASS") for ln in lines[1:] if not ln.startswith("#"))
        assert lines[-1].startswith("# summary,residuals")

    def test_identities_suite_passes(self, tmp_path):
        code, text = _run(tmp_path, ["verify", "identities"])
        assert code == 0
        assert "bernoulli_reflection" in text

    def test_unknown_suite_usage_error(self):
        assert main(["verify", "nonsense"]) == 2


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["exactness", "--k", "8", "--n", "1"],
        ["exactness", "--k", "8", "--n", "0"],
        ["convergence", "--k", "32", "--h-list", "0.3"],
        ["convergence", "--k", "32", "--h-list", "0.3,0.1"],
        ["convergence", "--k", "32", "--n-list", "8,8,16"],
        ["convergence", "--k", "32", "--n-list", "10,20", "--benchmark", "box"],
        ["convergence", "--k", "32"],
        ["table", "--k-list", "32"],
        ["table", "--k-list", "32", "--h-list", "0.3"],
        ["table", "--k-list", "4", "--h-list", "0.25", "--n", "0"],
        ["convergence", "--k", "4", "--n-list", "3,9", "--benchmark", "box", "--n", "0"],
        ["compare", "--k-list", "32,64", "--n-list", "64"],
        ["compare", "--k-list", "nan", "--n-list", "64"],
        ["table", "--k-list", ",", "--h-list", "0.25"],
        ["table", "--k-list", "4", "--n-list", "4,4"],
        ["table", "--k-list", "4,4", "--n-list", "4"],
        ["compare", "--k-list", ",", "--n-list", ","],
        ["convergence", "--k", "1", "--h-list", "0.5,5e-324", "--scheme", "fd"],
        ["convergence", "--k", "1", "--h-list", "0.5,1e-300", "--scheme", "fd"],
        ["convergence", "--k", "32", "--n-list", "8"],
        ["convergence", "--k", "32", "--n-list", "8,16", "--n", "64"],
    ], ids=["n-1", "n-0", "single-h", "h-not-dividing", "repeated-n", "not-nested",
            "convergence-no-list", "table-no-list", "table-h-not-dividing",
            "table-fine-n-0", "box-fine-n-0", "compare-unpaired", "compare-nan-k",
            "table-empty-k", "table-repeated-n", "table-repeated-k", "compare-empty-lists",
            "h-inverse-overflows", "n-beyond-any-array", "single-n",
            "fine-n-for-closed-form"])
    def test_exit_2_with_one_line_reason(self, tmp_path, capsys, argv):
        code = main(argv + ["--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("message, reason", [
        ("Unable to allocate 7.28 TiB for an array with shape (1000000000001,) "
         "and data type float64", "Unable to allocate 7.28 TiB"),
        ("", "MemoryError"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_exit_2_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                message, reason):
        # a mesh count that an array can hold but the host cannot allocate;
        # the solve is stubbed so that no real allocation is made
        def solve(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "convergence_study", solve)
        code = main(["convergence", "--k", "1", "--scheme", "fd", "--benchmark", "planewave",
                     "--h-list", "0.5,1e-12", "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("usage error: out of memory: " + reason)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["compare", "--k-list", "8", "--n-list", "64", "--benchmark", "box"],
        ["convergence", "--k", "8", "--n-list", "27,64", "--benchmark", "box"],
    ], ids=["compare", "convergence"])
    def test_box_nesting_checked_before_any_solve(self, tmp_path, capsys, monkeypatch, argv):
        # 64 does not divide the 3^12 fine reference: exit before the fine
        # solve, not after it
        clear_reference_cache()
        solves = []

        def spy(*args):
            solves.append(args[1])
            raise AssertionError("solve_scheme called")

        for module in (cli, analysis, reference):
            monkeypatch.setattr(module, "solve_scheme", spy)
        code = main(argv + ["--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert solves == []
        assert capsys.readouterr().err == (
            "usage error: 531441 subintervals are not a multiple of 64\n")

    def test_table_nesting_checked_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # 3 does not divide the 2^18 fine reference: exit before the first
        # solve, not after the coarse and fine solves
        clear_reference_cache()
        solves = []

        def spy(*args):
            solves.append(args[1])
            raise AssertionError("solve_scheme called")

        for module in (cli, analysis, reference):
            monkeypatch.setattr(module, "solve_scheme", spy)
        code = main(["table", "--k-list", "4", "--n-list", "8,3", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert solves == []
        assert capsys.readouterr().err == (
            "usage error: 262144 subintervals are not a multiple of 3\n")

    @pytest.mark.parametrize("argv", [
        ["convergence", "--k", "8", "--n-list", "7,1", "--benchmark", "box"],
        ["table", "--k-list", "4", "--n-list", "3,1"],
        ["compare", "--k-list", "8,8", "--n-list", "7,1", "--benchmark", "box"],
    ], ids=["convergence", "table", "compare"])
    def test_rejected_count_reported_ahead_of_non_nested_one(self, tmp_path, capsys, argv):
        # every count is made a grid before the one nesting check, so 1
        # is named ahead of the 7 or 3 that does not divide the reference
        code = main(argv + ["--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "usage error: need an integer subinterval count >= 2, got 1\n")

    @pytest.mark.parametrize("argv,n", [
        (["convergence", "--k", "8", "--n-list", "81,729", "--benchmark", "box", "--n", "729"], 729),
        (["table", "--k-list", "8", "--h-list", "0.5,0.25", "--n", "4"], 4),
        (["compare", "--k-list", "8", "--n-list", "531441", "--benchmark", "box"], 531441),
    ], ids=["convergence", "table", "compare"])
    def test_mesh_equal_to_fine_reference_rejected_before_any_solve(
            self, tmp_path, capsys, monkeypatch, argv, n):
        # the mesh used to be compared with itself: a 0.0 error, and in
        # convergence a log(0) rate fit that wrote nan rates with exit 0
        clear_reference_cache()

        def spy(*args):
            raise AssertionError("solve_scheme called")

        for module in (cli, analysis, reference):
            monkeypatch.setattr(module, "solve_scheme", spy)
        code = main(argv + ["--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"usage error: {n} subintervals are not finer than {n}\n")

    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code = main(["convergence", "--k", "4", "--n-list", "4,8", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: cannot write --out: ")

    def test_unwritable_out_checked_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # table would otherwise solve its 2^18 fine references first
        solves = []
        monkeypatch.setattr(cli, "solve_scheme", lambda *args: solves.append(args[1]))
        out = tmp_path / "missing" / "x.csv"
        code = main(["table", "--k-list", "4", "--n-list", "8", "--out", str(out)])
        assert code == 2
        assert solves == []
        assert capsys.readouterr().err.startswith("usage error: cannot write --out: ")

    @pytest.mark.parametrize("existing", [True, False])
    def test_out_untouched_by_a_later_failure(self, tmp_path, existing):
        # the up-front check neither truncates an existing file nor leaves
        # an empty one behind when the command then fails (here exit 3)
        out = tmp_path / "x.csv"
        if existing:
            out.write_text("earlier run\n")
        code = main(["exactness", "--k", str(math.pi * 8), "--n", "8", "--out", str(out)])
        assert code == 3
        assert (out.read_text() == "earlier run\n") if existing else not out.exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "identities", "--seed", "-1"],
        ["exactness", "--k", "nan", "--n", "8"],
        ["exactness", "--k", "8"],
        ["nosuchcommand"],
    ], ids=["negative-seed", "nan-k", "missing-n", "unknown-command"])
    def test_parser_errors_are_one_line(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: ")

    def test_help_exits_0(self, capsys):
        assert main(["exactness", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: bpfhelm exactness")

    @pytest.mark.parametrize("suite", ["identities", "multipliers"])
    def test_negative_seed_rejected_by_parser(self, capsys, suite):
        # numpy's generators reject negative seeds; that is a usage error,
        # not a failed check
        assert main(["verify", suite, "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err.strip().splitlines()[-1]

    def test_non_finite_wavenumber_rejected_by_parser(self, capsys):
        assert main(["exactness", "--k", "nan", "--n", "8"]) == 2
        assert "--k" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["convergence", "--k", "1e200", "--n-list", "8,16", "--scheme", "fd"],
        ["exactness", "--k", "1e308", "--n", "8"],
        ["compare", "--k-list", "2e154", "--n-list", "8", "--benchmark", "smooth"],
        ["table", "--k-list", "4,1.35e154", "--n-list", "4"],
    ], ids=["convergence", "exactness", "compare", "table"])
    def test_wavenumber_whose_square_overflows_rejected_by_parser(self, capsys, argv):
        # k^2 overflows above about 1.34e154: the solve used to die with an
        # OverflowError, a ValueError on the impedance data or a RuntimeWarning
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == ""
        assert len(lines) == 1 and lines[0].startswith("usage error: ")
        assert "wavenumber" in lines[0] or "finite square" in lines[0]

    def test_largest_wavenumbers_with_a_finite_square_parse(self):
        assert cli.wavenumber("1.3e154") == 1.3e154
        with pytest.raises(argparse.ArgumentTypeError, match="finite square"):
            cli.wavenumber("1.35e154")

    @pytest.mark.parametrize("argv, reason", [
        (["exactness", "--k", "1e308", "--n", "8"], "argument --k: must have a finite square"),
        (["convergence", "--k", "inf", "--n-list", "8,16"],
         "argument --k: must be finite and positive"),
        (["compare", "--k-list", "2e154", "--n-list", "8"], "must have a finite square"),
        (["verify", "identities", "--seed", "-1"], "argument --seed: must be non-negative"),
    ], ids=["k-square", "k-inf", "k-list-square", "seed"])
    def test_type_error_keeps_its_reason(self, capsys, argv, reason):
        # argparse replaces a ValueError's text by "invalid <type> value"
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == ""
        assert len(lines) == 1 and lines[0].startswith("usage error: ")
        assert reason in lines[0]

    @pytest.mark.parametrize("suite", ["identities", "multipliers", "residuals", "stability"])
    def test_verify_rejects_nyquist_tol(self, capsys, suite):
        # no verify suite reads a guard tolerance; it used to be accepted
        # and ignored
        assert main(["verify", suite, "--nyquist-tol", "0.5"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: ")
        assert "--nyquist-tol" in lines[0]

    @pytest.mark.parametrize("argv", [
        ["exactness", "--k", str(8.0 * math.pi), "--n", "8"],
        ["convergence", "--k", "32", "--n-list", "16,32"],
        ["table", "--k-list", "8", "--n-list", "16"],
        ["compare", "--k-list", "8", "--n-list", "16"],
    ], ids=["exactness", "convergence", "table", "compare"])
    def test_solving_commands_reject_nyquist_tol(self, capsys, argv):
        # the guard distance is the constant numerics.GUARD_TOL
        assert main(argv + ["--nyquist-tol", "0.5"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == ""
        assert len(lines) == 1 and lines[0].startswith("usage error: ")
        assert "--nyquist-tol" in lines[0]

    @pytest.mark.parametrize("argv", [
        ["convergence", "--k", "4"],
        ["table", "--k-list", "4"],
        ["compare", "--k-list", "4"],
    ], ids=["convergence", "table", "compare"])
    def test_mesh_lists_are_exclusive(self, tmp_path, capsys, argv):
        code = main(argv + ["--n-list", "4", "--h-list", "0.25",
                            "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestParser:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_stdout_default(self, capsys):
        code = main(["exactness", "--k", "128", "--n", "8"])
        assert code == 0
        assert "err_linf_abs" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [["exactness", "--k", "128", "--n", "8"],
                                      ["compare", "--k-list", "32", "--n-list", "64"]],
                             ids=lambda args: args[0])
    def test_seed_rejected_where_unread(self, args, capsys):
        assert main(args + ["--seed", "3"]) == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["convergence", "--k", "32", "--n-list", "8,16"],
                                      ["table", "--k-list", "32", "--n-list", "64"],
                                      ["verify", "identities"]],
                             ids=lambda args: args[0])
    def test_seed_accepted(self, args):
        assert build_parser().parse_args(args + ["--seed", "3"]).seed == 3

    def test_main_builds_its_parser_once(self, capsys):
        # one parser per process, whose parses leave no state in it
        assert main(["exactness", "--k", "128", "--n", "8", "--seed", "3"]) == 2
        assert main(["exactness", "--k", "128", "--n", "8"]) == 0
        assert build_parser() is build_parser()

    def test_module_entry_point(self, child_env):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "bpfhelm.cli", "exactness", "--k", "128", "--n", "8"],
            capture_output=True, text=True, env=child_env)
        assert proc.returncode == 0
        assert "err_linf_abs" in proc.stdout


def _option_choices(command, dest):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions if a.dest == dest)
    return tuple(action.choices)


class TestBenchmarkRegistry:
    def test_every_list_of_benchmarks_is_the_registry(self):
        names = tuple(BENCHMARKS)
        assert names == ("planewave", "smooth", "box", "sine2")
        assert _option_choices("convergence", "benchmark") == names
        assert _option_choices("compare", "benchmark") == names
        with pytest.raises(ValueError) as info:
            make_benchmark("gaussian", 4.0)
        assert str(names) in str(info.value)
        checks = verify_stability()
        covered = tuple(dict.fromkeys(c.detail.split()[0] for c in checks))
        assert covered == names

    def test_table_default_fine_resolution_from_registry(self, tmp_path, monkeypatch):
        factory, n_ref = BENCHMARKS["sine2"]
        assert n_ref == 2**18
        monkeypatch.setitem(BENCHMARKS, "sine2", (factory, 64))
        seen = []
        real = cli.fine_grid_reference

        def spy(p, n, *args):
            seen.append(n)
            return real(p, n, *args)

        monkeypatch.setattr(cli, "fine_grid_reference", spy)
        code, _ = _run(tmp_path, ["table", "--k-list", "4", "--h-list", "0.25,0.125"])
        assert code == 0
        assert seen == [64, 64]


def _extreme_wavenumber_runs():
    """Every command at the smallest subnormal k and at the largest k the
    parser takes, on grids each benchmark accepts."""
    runs = []
    for k in ("5e-324", "1.3e154"):
        for name in BENCHMARKS:
            n_list = "27,81" if name == "box" else "8,16"
            runs += [["convergence", "--k", k, "--n-list", n_list, "--benchmark", name,
                      "--scheme", scheme]
                     for scheme in _option_choices("convergence", "scheme")]
            runs.append(["compare", "--k-list", k, "--n-list", n_list.split(",")[0],
                         "--benchmark", name])
        runs += [["exactness", "--k", k, "--n", "8"],
                 ["table", "--k-list", k, "--n-list", "8", "--n", "16"]]
    return runs


class TestExtremeWavenumbers:
    @pytest.mark.parametrize("argv", _extreme_wavenumber_runs(), ids=" ".join)
    def test_exit_code_without_a_traceback(self, capsys, argv):
        # fd used to hand a kernel angle of 0 to the solver when kh underflowed,
        # and smooth's source coefficients overflow while k^2 is still finite:
        # both raised out of main instead of reporting a guard
        assert main(argv) in (0, 2, 3)
        err = capsys.readouterr().err.splitlines()
        assert len(err) <= 1


# Values of the CLI contract test: finite, tiny, huge, NaN, inf, zero,
# negative, not a number at all, and kh = k/n within or just outside the
# guard's 1e-8 pi of a multiple of pi on the meshes drawn below. Valid
# values are drawn more often than the others, so that every subcommand
# also gets as far as solving.
_NUMBERS = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3).map(repr),
    st.floats(min_value=1e-3, max_value=1e3).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-2.5", "5e-324", "1e-160", "1e154",
                     "1.35e154", "1e300", "x", ""]),
    st.builds(lambda j, n, rel: repr(j * math.pi * n * (1.0 + rel)),
              st.integers(1, 3), st.sampled_from([8, 27, 64, 81, 1000]),
              st.sampled_from([0.0, 1e-12, -1e-9, 2e-8, -1e-6, 4e-6])),
)
_MESHES = st.sampled_from([8, 16, 32, 64, 128, 256, 512, 27, 81, 243])
_COUNTS = st.one_of(_MESHES, _MESHES, st.integers(-2, 1024))
_COUNT_TOKENS = st.one_of(_COUNTS.map(str), _COUNTS.map(str), _COUNTS.map(str),
                          st.sampled_from(["x", "2.5", "1e3", "nan", str(10**400)]))
_H_TOKENS = st.one_of(_COUNTS.filter(lambda n: n != 0).map(lambda n: repr(1.0 / n)),
                      st.sampled_from(["0.3", "0", "-0.5", "nan", "inf", "1e-300", "5e-324",
                                       "x"]))


@st.composite
def _cli_argv(draw):
    """One run of any subcommand; every run solves on at most 1024 cells and
    no run needs box's 3^12 reference."""
    command = draw(st.sampled_from(["exactness", "convergence", "table", "compare", "verify"]))
    if command == "verify":
        argv = ["verify", draw(st.sampled_from(sorted(analysis.VERIFY_SUITES) + ["all"]))]
        if draw(st.booleans()):
            argv += ["--seed", draw(st.one_of(st.integers(-3, 2**70).map(str), st.just("x")))]
        return argv
    if command == "exactness":
        return ["exactness", "--k", draw(_NUMBERS), "--n", draw(_COUNT_TOKENS)]
    argv = [command]
    size = draw(st.sampled_from([1, 2, 2, 3, 3, 4]))
    unique = draw(st.integers(0, 3)) > 0  # a repeated value is a usage error in most lists
    if command == "convergence":
        benchmark = draw(st.sampled_from(tuple(BENCHMARKS)))
        argv += ["--k", draw(_NUMBERS), "--benchmark", benchmark,
                 "--scheme", draw(st.sampled_from(_option_choices("convergence", "scheme")))]
        if benchmark == "box" or draw(st.integers(0, 4)) == 0:
            argv += ["--n", draw(st.sampled_from(["729", "729", "1024", "0"]))]
    else:
        size = min(size, 3)
        argv += ["--k-list", ",".join(draw(st.lists(_NUMBERS, min_size=size, max_size=size,
                                                    unique=unique))),
                 "--norm", draw(st.sampled_from(_option_choices(command, "norm")))]
        if command == "table":
            argv += ["--n", draw(st.sampled_from(["1024", "1024", "1024", "729", "100", "1"]))]
        else:
            argv += ["--benchmark", draw(st.sampled_from(
                [name for name in BENCHMARKS if name != "box"]))]
            size = draw(st.sampled_from([size, size, size, 4 - size]))
    mesh = draw(st.sampled_from(["n", "n", "h", "none", "both"]))
    if mesh in ("n", "both"):
        argv += ["--n-list", ",".join(draw(st.lists(_COUNT_TOKENS, min_size=size,
                                                    max_size=size, unique=unique)))]
    if mesh in ("h", "both"):
        argv += ["--h-list", ",".join(draw(st.lists(_H_TOKENS, min_size=size, max_size=size,
                                                    unique=unique)))]
    return argv


class TestContract:
    @settings(max_examples=500, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_cli_argv())
    def test_exit_code_and_output(self, capsys, argv):
        # exit 0 to 3, nothing raised out of main, a one-line reason on
        # stderr for exits 2 and 3, finite numbers on exit 0, and exit 1 only
        # for a failed exactness or verify check
        capsys.readouterr()
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3)
        if code in (2, 3):
            assert len(err.splitlines()) == 1 and "Traceback" not in err
        else:
            assert err == ""
        if code == 0:
            assert re.search(r"(?i)\b(nan|inf)\b", out) is None
        if code == 1:
            assert argv[0] == "exactness" or (argv[0] == "verify" and "\nFAIL," in out)
