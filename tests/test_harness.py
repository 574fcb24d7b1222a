"""Reduction counter, manifest execution, file round-trips, run comparison."""

import json
import time

import numpy as np
import numpy.testing as npt
import pytest

import sstep.harness
from sstep import (
    ReductionCounter,
    RunManifest,
    build_rhs,
    compare_runs,
    gen_diagonal,
    load_run,
    resolve_matrix,
    run_experiment,
)


class TestReductionCounter:
    def test_add_get_and_totals(self):
        c = ReductionCounter()
        c.add("projections", "ortho", 3)
        c.add("projections", "mpk")
        c.add("norms", "residual", 2)
        c.add("spmv", "harvest", 5)
        c.add("spmv", "mpk", 7)
        assert c.get("projections", "ortho") == 3
        assert c.kind_total("projections") == 4
        assert c.kind_total("spmv") == 12
        # spmv is bookkeeping, not a reduction
        assert c.phase_reductions("ortho") == 3
        assert c.phase_reductions("harvest") == 0
        assert c.total_reductions() == 6
        assert c.solve_spmv() == 7
        assert c.projections == 4 and c.norms == 2 and c.spmv_count == 12
        assert c.gram_products == 0 and c.true_residual_checks == 0

    def test_as_dict_shape(self):
        c = ReductionCounter()
        c.add("gram_products", "ortho", 2)
        d = c.as_dict()
        assert set(d) == {"harvest", "mpk", "ortho", "residual", "fallback"}
        assert d["ortho"]["gram_products"] == 2
        assert d["mpk"]["spmv"] == 0
        d["ortho"]["gram_products"] = 99  # the export is a copy
        assert c.get("gram_products", "ortho") == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError, match="unknown counter kind"):
            ReductionCounter().add("flops", "ortho")


class TestProblemBuilding:
    def test_diag_spec(self):
        a = resolve_matrix("diag:8:1.0:2.0")
        npt.assert_array_equal(a.to_dense(), gen_diagonal(8, 1.0, 2.0).to_dense())

    def test_laplace_specs(self):
        assert resolve_matrix("lap2d:3").n == 9
        assert resolve_matrix("lap3d:2").n == 8

    def test_matrix_market_path(self, tmp_path):
        p = tmp_path / "t.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 3\n1 1 4.0\n2 2 5.0\n1 2 -1.0\n")
        a = resolve_matrix(str(p))
        npt.assert_array_equal(a.to_dense(), [[4.0, -1.0], [0.0, 5.0]])

    def test_bad_specs(self, tmp_path):
        with pytest.raises(ValueError, match="diag spec"):
            resolve_matrix("diag:8:1.0")
        with pytest.raises(FileNotFoundError):
            resolve_matrix(str(tmp_path / "missing.mtx"))

    def test_rhs_modes(self):
        a = gen_diagonal(6, 1.0, 3.0)
        npt.assert_array_equal(build_rhs(a, "ones", 0), a.matvec(np.ones(6)))
        b1 = build_rhs(a, "random", 7)
        b2 = build_rhs(a, "random", 7)
        b3 = build_rhs(a, "random", 8)
        npt.assert_array_equal(b1, b2)
        assert np.any(b1 != b3)
        assert np.linalg.norm(b1) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("kwargs,msg", [
        (dict(solver="bicg"), "unknown solver"),
        (dict(precond="jacobi"), "unknown preconditioner"),
        (dict(equilibrate="row"), "unknown equilibration"),
        (dict(rhs="zeros"), "unknown rhs"),
    ])
    def test_manifest_validation(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            RunManifest(matrix="diag:4:1:2", **kwargs)


def small_manifest(**over):
    base = dict(matrix="diag:40:0.5:5.0", solver="adaptive", basis="monomial",
                initial_step=5, restart_len=20, rhs="random", seed=3,
                track_loo=True)
    base.update(over)
    return RunManifest(**base)


class TestRunExperiment:
    def test_files_written_and_readable(self, tmp_path):
        res = run_experiment(small_manifest(), str(tmp_path))
        assert res.csv_path.endswith("adaptive-monomial.csv")
        data = load_run(res)
        tr = res.trace
        assert tr.converged
        npt.assert_array_equal(data.iter, np.arange(1, tr.iterations + 1))
        # repr round-trip keeps every residual bit
        npt.assert_array_equal(data.rel_res, tr.residuals)
        npt.assert_array_equal(data.loo, tr.loo)
        npt.assert_array_equal(data.block_size, tr.block_size)
        npt.assert_array_equal(data.spmv_cum, tr.spmv_cum)
        assert data.meta["result"]["converged"] is True
        assert data.meta["problem"]["n"] == 40
        assert data.meta["counters"] == res.summary["counters"]

    def test_rerun_is_byte_identical(self, tmp_path):
        r1 = run_experiment(small_manifest(), str(tmp_path / "a"))
        r2 = run_experiment(small_manifest(), str(tmp_path / "b"))
        with open(r1.csv_path, "rb") as f1, open(r2.csv_path, "rb") as f2:
            assert f1.read() == f2.read()

    def test_label_controls_stem(self, tmp_path):
        res = run_experiment(small_manifest(label="probe"), str(tmp_path))
        assert res.csv_path.endswith("probe.csv")
        assert res.json_path.endswith("probe.json")

    def test_baseline_solver_runs(self, tmp_path):
        res = run_experiment(small_manifest(solver="gmres"), str(tmp_path))
        assert res.summary["result"]["converged"]
        assert res.summary["solver"]["kind"] == "gmres"

    def test_ilu_preconditioning_cuts_iterations(self, tmp_path):
        plain = run_experiment(small_manifest(matrix="lap2d:16", rhs="ones",
                                              restart_len=60), str(tmp_path / "p"))
        prec = run_experiment(small_manifest(matrix="lap2d:16", rhs="ones",
                                             restart_len=60, precond="ilu0"),
                              str(tmp_path / "m"))
        assert prec.summary["result"]["converged"]
        assert prec.summary["result"]["iterations"] < plain.summary["result"]["iterations"]

    @pytest.mark.parametrize("mode,basis", [("scalar", "monomial"), ("column", "monomial"),
                                            ("scalar", "scaled-newton")],
                             ids=["scalar", "column", "scalar-scaled-newton"])
    def test_equilibration_recovers_original_solution(self, tmp_path, mode, basis):
        man = small_manifest(matrix="diag:30:0.5:50.0", equilibrate=mode, basis=basis)
        res = run_experiment(man, str(tmp_path))
        assert res.summary["result"]["converged"]
        a = resolve_matrix(man.matrix)
        b = build_rhs(a, man.rhs, man.seed)
        gap = np.linalg.norm(b - a.matvec(res.trace.x)) / np.linalg.norm(b)
        assert gap < 1e-8
        if mode == "scalar":
            # the scaling factor comes from a spectral probe of the operator,
            # whose Ritz values the solver reuses instead of harvesting again
            assert res.summary["counters"]["harvest"]["spmv"] == man.initial_step

    def test_setup_time_covers_matrix_build(self, tmp_path, monkeypatch):
        build = sstep.harness.resolve_matrix

        def slow_build(spec):
            time.sleep(0.05)
            return build(spec)

        monkeypatch.setattr(sstep.harness, "resolve_matrix", slow_build)
        res = run_experiment(small_manifest(), str(tmp_path))
        assert res.summary["result"]["setup_time_s"] >= 0.05


class TestLoadAndCompare:
    def test_header_is_checked(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("iter,res\n1,0.5\n")
        with pytest.raises(ValueError, match="unexpected header"):
            load_run(str(p))

    def test_stem_and_empty_body(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("iter,rel_res,loo,block_size,reductions_cum,spmv_cum\n")
        data = load_run(str(tmp_path / "empty"))
        assert len(data.iter) == 0 and len(data.rel_res) == 0
        assert data.meta == {}

    def test_identical_runs_compare_clean(self, tmp_path):
        r1 = run_experiment(small_manifest(label="x"), str(tmp_path / "a"))
        r2 = run_experiment(small_manifest(label="y"), str(tmp_path / "b"))
        cmp = compare_runs(r1, r2)
        assert cmp.max_log10_gap == 0.0
        assert cmp.first_divergence is None
        assert cmp.reduction_ratio == 1.0
        assert cmp.iterations[0] == cmp.iterations[1]

    def test_solvers_differ_but_problem_matches(self, tmp_path):
        ra = run_experiment(small_manifest(), str(tmp_path / "a"))
        rb = run_experiment(small_manifest(solver="gmres"), str(tmp_path / "b"))
        cmp = compare_runs(ra, rb)
        assert np.isfinite(cmp.max_log10_gap)
        assert cmp.max_log10_gap < 2.0  # same problem, same story
        assert cmp.reduction_ratio < 1.0  # the blocked solver synchronizes less

    def test_first_divergence_index(self, tmp_path):
        res = run_experiment(small_manifest(label="orig"), str(tmp_path))
        with open(res.csv_path) as f:
            lines = f.read().splitlines()
        row = lines[5].split(",")
        row[1] = "0.123"
        lines[5] = ",".join(row)
        forked = tmp_path / "fork.csv"
        forked.write_text("\n".join(lines) + "\n")
        with open(res.json_path) as f:
            (tmp_path / "fork.json").write_text(f.read())
        cmp = compare_runs(res, str(forked))
        assert cmp.first_divergence == 4
        assert cmp.max_log10_gap > 0

    def test_shorter_run_divergence_is_common_length(self, tmp_path):
        res = run_experiment(small_manifest(label="orig"), str(tmp_path))
        with open(res.csv_path) as f:
            lines = f.read().splitlines()
        cut = tmp_path / "cut.csv"
        cut.write_text("\n".join(lines[:-3]) + "\n")
        with open(res.json_path) as f:
            (tmp_path / "cut.json").write_text(f.read())
        cmp = compare_runs(res, str(cut))
        assert cmp.first_divergence == len(lines) - 1 - 3
        assert cmp.max_log10_gap == 0.0
        assert cmp.iterations == (len(lines) - 1, len(lines) - 4)

    def test_problem_mismatch_raises(self, tmp_path):
        ra = run_experiment(small_manifest(), str(tmp_path / "a"))
        rb = run_experiment(small_manifest(seed=4), str(tmp_path / "b"))
        with pytest.raises(ValueError, match="problem mismatch on 'seed'"):
            compare_runs(ra, rb)

    def test_missing_sidecar_raises(self, tmp_path):
        res = run_experiment(small_manifest(), str(tmp_path))
        lone = tmp_path / "lone.csv"
        with open(res.csv_path) as f:
            lone.write_text(f.read())
        with pytest.raises(ValueError, match="sidecars"):
            compare_runs(res, str(lone))
