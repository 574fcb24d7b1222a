"""Command line behavior: flags, exit codes, files, summary output."""

import json
import os

import pytest

import sstep.harness
from sstep.cli import build_parser, main


# a 2 x 2 matrix whose ILU(0) elimination overflows: l_10 = 1e10 / 1e-300
ILU_OVERFLOW_MTX = ("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 4\n1 1 1e-300\n1 2 1e10\n2 1 1e10\n2 2 1\n")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success_run(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "--matrix", "diag:40:0.5:5.0", "--s0", "5",
            "--restart", "20", "--out", str(tmp_path))
        assert code == 0
        assert "converged after" in out
        assert "final relative residual" in out
        assert os.path.exists(tmp_path / "adaptive-monomial.csv")
        assert os.path.exists(tmp_path / "adaptive-monomial.json")

    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--matrix", "diag:4:1:2", "--solver", "cgs"])
        assert exc.value.code == 1

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_missing_matrix_file(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "--matrix", str(tmp_path / "nope.mtx"), "--out", str(tmp_path))
        assert code == 1
        assert "error" in err

    def test_bad_generator_spec(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "--matrix", "diag:10:1", "--out", str(tmp_path))
        assert code == 1
        assert "diag spec" in err

    @pytest.mark.parametrize("argv,msg", [
        (["--matrix", "lap2d:3:4"], "lap2d spec must be lap2d:n, got 'lap2d:3:4'"),
        (["--matrix", "diag:5:a:2"], "got 'diag:5:a:2'"),
        (["--matrix", "diag:5:nan:2"], "got 'diag:5:nan:2'"),
        (["--matrix", "lap2d:0"], "got 'lap2d:0'"),
        (["--matrix", "diag:40:0.5:5.0", "--equilibrate", "scalar", "--s0", "0"],
         "initial_step"),
        (["--matrix", "diag:40:0.5:5.0", "--tol", "inf"], "rel_tol"),
        (["--matrix", "diag:40:0.5:5.0", "--rhs", "random", "--seed", "-1"], "seed"),
        # finite entries, but the norm of b = A @ ones overflows
        (["--matrix", "diag:50:1e300:1e300"], "the first residual b has norm inf"),
        (["--matrix", "diag:50:1e300:1e300", "--equilibrate", "scalar"],
         "cannot harvest from rhs of norm inf"),
        (["--matrix", "ilu-overflow.mtx", "--precond", "ilu0"],
         "ilu0: row 1: factor entry is not finite"),
        # the adaptive solver's harvest cycle of s0 = 10 columns must fit
        (["--matrix", "lap2d:8", "--restart", "5"], "initial_step cannot exceed restart_len"),
    ], ids=["extra-field", "bad-float", "nan-field", "zero-n", "s0-zero-scalar", "tol-inf",
            "seed-negative", "overflowing-b", "overflowing-b-scalar-harvest", "ilu0-overflow",
            "s0-above-restart"])
    def test_bad_input_names_it(self, tmp_path, capsys, monkeypatch, argv, msg):
        # matrix files are read from the working directory; the run writes nothing
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ilu-overflow.mtx").write_text(ILU_OVERFLOW_MTX)
        code, out, err = run_cli(capsys, *argv, "--out", "out")
        assert code == 1
        assert err.startswith("sstep: error:") and msg in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_ilu_missing_diagonal_is_one(self, tmp_path, capsys):
        path = tmp_path / "nodiag.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "3 3 4\n1 2 1.0\n2 2 3.0\n3 3 2.0\n2 1 1.0\n")
        code, out, err = run_cli(
            capsys, "--matrix", str(path), "--precond", "ilu0", "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("sstep: error:")
        assert "row 0" in err and "diagonal" in err

    def test_oversized_matrix_market_size_is_one(self, tmp_path, capsys):
        # the size line alone would have CSR storage ask for hundreds of TiB
        path = tmp_path / "big.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "100000000000000 100000000000000 1\n1 1 1.0\n")
        code, out, err = run_cli(capsys, "--matrix", str(path), "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("sstep: error: line 2:")

    def test_size_line_beyond_int64_is_one(self, tmp_path, capsys):
        # the second entry's row index is within 1..n, and 5e19 does not fit
        # the int64 entry arrays: the size line is refused before any entry
        path = tmp_path / "huge.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "99999999999999999999 99999999999999999999 99999999999999999999\n"
                        "1 1 1.0\n50000000000000000000 2 1.0\n")
        code, out, err = run_cli(capsys, "--matrix", str(path), "--out", str(tmp_path))
        assert code == 1
        assert err.startswith(f"sstep: error: line 2: dimensions must be at most {2**63 - 1}\n")

    def test_problem_too_large_for_memory_is_one(self, tmp_path, capsys, monkeypatch):
        # stands in for numpy refusing lap2d:100000; a real allocation that
        # size would be filled on a host that overcommits memory
        def refuse(spec):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(sstep.harness, "resolve_matrix", refuse)
        code, out, err = run_cli(capsys, "--matrix", "lap2d:100000", "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("sstep: error: the problem does not fit in memory: Unable")
        assert not os.listdir(tmp_path)

    def test_baseline_runs_at_a_restart_below_the_initial_step(self, tmp_path, capsys):
        # the baseline never reads initial_step, whose default 10 exceeds 5
        code, out, err = run_cli(capsys, "--matrix", "lap2d:8", "--solver", "gmres",
                                 "--restart", "5", "--out", str(tmp_path))
        assert code == 0 and not err
        with open(tmp_path / "gmres-monomial.json") as f:
            meta = json.load(f)
        assert (meta["solver"]["initial_step"], meta["solver"]["restart_len"]) == (10, 5)
        assert meta["result"]["iterations"] > 0

    @pytest.mark.parametrize("solver", ["adaptive", "gmres"])
    def test_breakdown_is_two(self, tmp_path, capsys, solver):
        # singular matrix with a right hand side outside its range
        code, out, err = run_cli(
            capsys, "--matrix", "diag:2:0:1", "--solver", solver,
            "--rhs", "random", "--seed", "4", "--restart", "8",
            "--s0", "3", "--out", str(tmp_path))
        assert code == 2
        assert "broke down" in out

    @pytest.mark.parametrize("flags", [["--basis", "scaled-newton"],
                                       ["--basis", "monomial", "--estimator", "on"]],
                             ids=["scaled-newton", "estimator"])
    def test_zero_ritz_values_are_a_breakdown_not_an_error(self, tmp_path, capsys, flags):
        # A = [[0, 1], [0, 0]] with b = A @ ones: the harvest's only Ritz
        # value is 0, so the solve runs monomial, and its exhausted space
        # is a breakdown
        path = tmp_path / "nilpotent.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 2 1.0\n2 2 0.0\n")
        code, out, err = run_cli(capsys, "--matrix", str(path), *flags, "--s0", "2",
                                 "--restart", "4", "--out", str(tmp_path))
        assert (code, err) == (2, "")
        assert "broke down" in out

    def test_zero_rhs_with_newton_basis_is_zero(self, tmp_path, capsys):
        # b = A @ ones is zero, so there is nothing to solve and no shifts to harvest
        code, out, err = run_cli(
            capsys, "--matrix", "diag:5:0:0", "--basis", "scaled-newton",
            "--s0", "2", "--restart", "4", "--out", str(tmp_path))
        assert code == 0
        assert "converged after 0 iterations" in out

    def test_budget_exhaustion_is_zero(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "--matrix", "lap2d:12", "--restart", "10",
            "--max-restarts", "0", "--tol", "1e-14", "--out", str(tmp_path))
        assert code == 0
        assert "stopped after" in out


class TestFlagsReachTheRun:
    def test_summary_reflects_choices(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "--matrix", "diag:30:1:3", "--solver", "gmres",
            "--basis", "monomial", "--s0", "4", "--restart", "15",
            "--tol", "1e-8", "--rhs", "random", "--seed", "11",
            "--loo", "on", "--out", str(tmp_path))
        assert code == 0
        with open(tmp_path / "gmres-monomial.json") as f:
            meta = json.load(f)
        assert meta["solver"]["kind"] == "gmres"
        assert meta["solver"]["restart_len"] == 15
        assert meta["solver"]["rel_tol"] == 1e-8
        assert meta["solver"]["track_loo"] is True
        assert meta["problem"]["seed"] == 11
        with open(tmp_path / "gmres-monomial.csv") as f:
            header = f.readline().strip()
        assert header == "iter,rel_res,loo,block_size,reductions_cum,spmv_cum"

    def test_estimator_flag(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "--matrix", "diag:50:0.5:5", "--s0", "8",
            "--restart", "30", "--estimator", "on", "--out", str(tmp_path))
        assert code == 0
        with open(tmp_path / "adaptive-monomial.json") as f:
            meta = json.load(f)
        assert meta["result"]["s0_star"] is not None
        assert meta["solver"]["use_step_estimator"] is True
        # the estimate's harvest cycle ran first, and it is not a restart
        assert meta["result"]["blocks"][0]["phase"] == "harvest"
        assert f"({meta['result']['restarts']} restart" in out

    def test_help_lists_every_generator_form(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for *_, form in sstep.harness.GENERATORS.values():
            assert form in out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["--matrix", "diag:4:1:2"])
        assert args.solver == "adaptive"
        assert args.basis == "monomial"
        assert args.s0 == 10
        assert args.restart == 100
        assert args.tol == 1e-10
        assert args.omega == 1e7
        assert args.rhs == "ones"
