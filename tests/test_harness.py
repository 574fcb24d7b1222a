"""Reduction counter, manifest execution, file round-trips, run comparison."""

import json
import math
import platform
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import sstep.harness
from sstep import (
    ReductionCounter,
    RunManifest,
    SolverConfig,
    build_rhs,
    compare_runs,
    gen_convdiff2d,
    gen_diagonal,
    load_run,
    resolve_matrix,
    run_experiment,
)
from sstep.harness import PHASES


class TestReductionCounter:
    def test_add_get_and_totals(self):
        c = ReductionCounter()
        with c.phase("ortho"):
            c.add("projections", 3)
        with c.phase("mpk"):
            c.add("projections")
            c.add("spmv", 7)
        with c.phase("residual"):
            c.add("norms", 2)
        with c.phase("harvest"):
            c.add("spmv", 5)
        assert c.get("projections", "ortho") == 3
        assert c.kind_total("projections") == 4
        assert c.kind_total("spmv") == 12
        # spmv is bookkeeping, not a reduction
        assert c.phase_reductions("ortho") == 3
        assert c.phase_reductions("harvest") == 0
        assert c.total_reductions() == 6
        assert c.solve_spmv() == 7
        assert c.kind_total("norms") == 2
        assert c.kind_total("gram_products") == 0 and c.kind_total("true_residual_checks") == 0

    def test_as_dict_shape(self):
        c = ReductionCounter()
        with c.phase("ortho"):
            c.add("gram_products", 2)
        d = c.as_dict()
        assert set(d) == {"harvest", "mpk", "ortho", "residual", "fallback"}
        assert d["ortho"]["gram_products"] == 2
        assert d["mpk"]["spmv"] == 0
        d["ortho"]["gram_products"] = 99  # the export is a copy
        assert c.get("gram_products", "ortho") == 2

    def test_unknown_kind_rejected(self):
        c = ReductionCounter()
        with pytest.raises(KeyError, match="unknown counter kind"):
            with c.phase("ortho"):
                c.add("flops")

    def test_add_outside_every_phase_raises(self):
        c = ReductionCounter()
        with pytest.raises(RuntimeError, match="'norms' event outside every counter phase"):
            c.add("norms")
        assert c.as_dict() == ReductionCounter().as_dict()

    def test_unknown_phase_rejected_by_name(self):
        c = ReductionCounter()
        with pytest.raises(KeyError) as err:
            with c.phase("bogus"):
                pass
        assert err.value.args == ("unknown phase 'bogus'",)

    def test_outermost_phase_takes_counts_and_seconds(self):
        c = ReductionCounter()
        with c.phase("harvest"):
            c.add("norms")
            with c.phase("fallback"):
                c.add("spmv", 2)
                time.sleep(0.01)
        assert c.get("norms", "harvest") == 1 and c.get("spmv", "harvest") == 2
        assert c.total_reductions() == 1 and c.kind_total("spmv") == 2
        assert c.seconds["harvest"] >= 0.01
        assert c.seconds["fallback"] == 0.0
        assert [c.seconds[ph] for ph in ("mpk", "ortho", "residual")] == [0.0] * 3

    def test_exception_closes_phase(self):
        c = ReductionCounter()
        with pytest.raises(ZeroDivisionError):
            with c.phase("residual"):
                c.add("norms")
                raise ZeroDivisionError
        with pytest.raises(RuntimeError, match="outside every counter phase"):
            c.add("norms")
        with c.phase("ortho"):
            c.add("norms")
        assert c.get("norms", "residual") == 1 and c.get("norms", "ortho") == 1
        assert c.seconds["residual"] >= 0.0 and c.seconds["harvest"] == 0.0


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

    @pytest.mark.parametrize("spec,form", [
        ("lap2d:3:4", "lap2d:n"), ("lap3d:5:1", "lap3d:n"), ("lap2d:", "lap2d:n"),
        ("diag:5:1:2:3", "diag:n:lo:hi"),
        ("convdiff2d:16:0.5:0.3", "convdiff2d:n:pex:pey:reaction"),
    ])
    def test_extra_or_missing_field_names_spec(self, spec, form):
        with pytest.raises(ValueError, match=f"must be {form}, got '{spec}'"):
            resolve_matrix(spec)

    @pytest.mark.parametrize("spec", ["lap2d:abc", "lap3d:2.5", "diag:5:a:2", "diag:x:1:2",
                                      "diag:5:nan:2", "diag:5:1:inf", "lap2d:0", "lap3d:-1",
                                      "diag:0:1:2", "convdiff2d:0:0.5:0.3:0.0",
                                      "convdiff2d:16:nan:0.3:0.0"])
    def test_unparsable_field_names_spec(self, spec):
        with pytest.raises(ValueError, match=f"got '{spec}'"):
            resolve_matrix(spec)

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
        (dict(precond="jacobi"), "unknown precond 'jacobi'"),
        (dict(equilibrate="row"), "unknown equilibrate 'row'"),
        (dict(rhs="zeros"), "unknown rhs"),
        (dict(seed=-1), "seed"),
        # solver settings fail when the manifest is built, before any matrix is read
        (dict(basis="cheb"), "unknown basis"),
        (dict(initial_step=0), "initial_step"),
        (dict(rel_tol=math.inf), "rel_tol"),
        # the adaptive solver's harvest cycle of initial_step columns must fit
        (dict(initial_step=40, restart_len=30), "initial_step cannot exceed restart_len"),
    ])
    def test_manifest_validation(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            RunManifest(matrix="diag:4:1:2", **kwargs)

    def test_baseline_manifest_takes_initial_step_above_restart(self):
        # the baseline never reads initial_step
        man = RunManifest(matrix="diag:4:1:2", solver="gmres", initial_step=40, restart_len=30)
        assert (man.initial_step, man.restart_len) == (40, 30)

    @pytest.mark.parametrize("kwargs,msg", [
        (dict(initial_step=2.5), "initial_step must be an integer, got 2.5"),
        (dict(restart_len=True), "restart_len must be an integer, got True"),
        (dict(track_loo="no"), "track_loo must be a bool, got 'no'"),
        (dict(use_step_estimator=1), "use_step_estimator must be a bool, got 1"),
        (dict(rel_tol="1e-8"), "rel_tol must be a real number, got '1e-8'"),
        (dict(cond_limit=False), "cond_limit must be a real number, got False"),
    ])
    def test_settings_are_type_checked(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            SolverConfig(**kwargs)
        with pytest.raises(ValueError, match=msg):
            RunManifest(matrix="diag:4:1:2", **kwargs)

    @pytest.mark.parametrize("kwargs,msg", [
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(seed=np.float64(2.0)), "seed must be an integer"),
        (dict(label=7), "label must be a str or None, got 7"),
        (dict(matrix=5), "matrix must be a str, got 5"),
    ])
    def test_manifest_fields_are_type_checked(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            RunManifest(**{"matrix": "lap2d:5", "rhs": "random", **kwargs})

    def test_numpy_scalars_and_ints_for_floats_pass(self):
        cfg = SolverConfig(initial_step=np.int64(3), max_restarts=np.int32(0), rel_tol=1,
                           cond_limit=np.float32(1e5), growth_limit=np.inf,
                           track_loo=np.bool_(True))
        assert cfg.initial_step == 3 and cfg.track_loo
        assert RunManifest(matrix="lap2d:5", seed=np.uint8(4), label=None).seed == 4

    def test_manifest_takes_keywords_only(self):
        # a positional matrix would otherwise land in an inherited solver field
        with pytest.raises(TypeError):
            RunManifest("diag:4:1:2")

    def test_manifest_is_the_solver_config(self, tmp_path):
        man = small_manifest(cond_limit=1e5, growth_limit=1e200)
        assert isinstance(man, SolverConfig)
        res = run_experiment(man, str(tmp_path))
        block = res.summary["solver"]
        assert block.pop("kind") == "adaptive"
        assert block == {f.name: getattr(man, f.name) for f in fields(SolverConfig)}
        assert block["growth_limit"] == 1e200 and block["cond_limit"] == 1e5
        # the overflow guard is a library constant, not a setting
        assert len(block) == 9 and "overflow_limit" not in block


def small_manifest(**over):
    base = dict(matrix="diag:40:0.5:5.0", solver="adaptive", basis="monomial",
                initial_step=5, restart_len=20, rhs="random", seed=3,
                track_loo=True)
    base.update(over)
    return RunManifest(**base)


class TestRunExperiment:
    def test_singular_harvest_stays_monomial_without_warning(self, tmp_path):
        # the fingerprint's singular-scaled-newton run: the harvest's first
        # block keeps one column of diag(0, 1), whose one Ritz value lies on
        # its own scaling floor, so the next harvest block stays monomial
        # instead of warning that all scale factors hit the floor
        man = RunManifest(matrix="diag:2:0:1", basis="scaled-newton", initial_step=2,
                          restart_len=8, max_restarts=5, rhs="random", seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = run_experiment(man, str(tmp_path)).trace
        assert [(blk.phase, blk.kept) for blk in tr.blocks[:2]] == [("harvest", 1),
                                                                    ("harvest", 0)]
        assert tr.breakdown and not tr.converged

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

    def test_convdiff_spec_and_its_matrix_market_file_run_alike(self, tmp_path):
        # the spec path and the parser path solve the same matrix
        a = gen_convdiff2d(16, 0.5, 0.3, 0.0)
        rows = np.repeat(np.arange(a.n), np.diff(a.indptr))
        path = tmp_path / "convdiff16.mtx"
        with open(path, "w", encoding="ascii") as f:
            f.write(f"%%MatrixMarket matrix coordinate real general\n{a.n} {a.n} {a.nnz}\n")
            np.savetxt(f, np.column_stack([rows + 1, a.indices + 1, a.data]), fmt="%d %d %.17g")
        runs = [run_experiment(small_manifest(matrix=spec, basis="scaled-newton", initial_step=40,
                                              restart_len=40, use_step_estimator=True, label=label),
                               str(tmp_path))
                for spec, label in (("convdiff2d:16:0.5:0.3:0.0", "spec"), (str(path), "file"))]
        csv = [Path(r.csv_path).read_bytes() for r in runs]
        assert csv[0] == csv[1] and csv[0].count(b"\n") > 10
        assert runs[0].summary["counters"] == runs[1].summary["counters"]
        assert runs[0].summary["result"]["converged"]

    def test_sidecar_times_every_phase(self, tmp_path):
        runs = {"baseline": small_manifest(solver="gmres"),
                "adaptive": small_manifest(basis="scaled-newton"),
                # the set-up harvest for the scale, with a monomial solve
                # that harvests nothing more
                "scalar": small_manifest(equilibrate="scalar")}
        for name, man in runs.items():
            r1 = run_experiment(man, str(tmp_path / name / "a"))
            r2 = run_experiment(man, str(tmp_path / name / "b"))
            with open(r1.csv_path, "rb") as f1, open(r2.csv_path, "rb") as f2:
                assert f1.read() == f2.read(), name
            with open(r1.json_path, encoding="ascii") as f:
                side = json.load(f)
            assert side["counters"] == r2.summary["counters"], name
            timings, out = side["timings"], side["result"]
            assert set(timings) == set(PHASES) == set(side["counters"]), name
            assert all(math.isfinite(t) and t >= 0.0 for t in timings.values()), name
            assert sum(timings.values()) <= out["setup_time_s"] + out["wall_time_s"], name
            if name == "baseline":
                assert timings["harvest"] == timings["fallback"] == 0.0
            else:
                assert timings["harvest"] > 0.0 and side["counters"]["harvest"]["spmv"] > 0, name

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
            # whose Ritz values the solver reuses instead of harvesting again;
            # its width-5 block keeps 4 columns and a width-1 block the fifth
            assert res.summary["counters"]["harvest"]["spmv"] == 5 + 1

    def test_column_equilibrated_identity_keeps_no_noise_columns(self, tmp_path):
        # column equilibration turns diag(d) into I, so every candidate of
        # the first block lies in span(q_0) and none may become a basis vector
        res = run_experiment(RunManifest(matrix="diag:300:0.1:1000.0", equilibrate="column"),
                             str(tmp_path))
        out = res.summary["result"]
        assert out["converged"] and out["block_sizes"] == [] and out["wasted_columns"] == 10
        # the block that fell back has no condition value, and its seconds
        [blk] = out["blocks"]
        assert blk.pop("mpk_s") >= 0.0 and blk.pop("qr_s") >= 0.0
        assert blk == dict(phase="solve", asked=10, kept=0, stopped_by="breakdown",
                           last_cond=None)

    def test_sidecar_records_every_block(self, tmp_path):
        man = small_manifest(matrix="lap2d:12", basis="scaled-newton", initial_step=12,
                             restart_len=24)
        res = run_experiment(man, str(tmp_path))
        with open(res.json_path, encoding="ascii") as f:
            out = json.load(f)["result"]
        blocks = out["blocks"]
        assert out["converged"] and len(blocks) == len(res.trace.blocks)
        # the harvest cycle comes first; block_sizes and wasted_columns
        # count the solve blocks alone
        phases = [blk["phase"] for blk in blocks]
        assert phases[0] == "harvest" and phases[-1] == "solve"
        assert phases == sorted(phases)  # every harvest block before every solve block
        solve = [blk for blk in blocks if blk["phase"] == "solve"]
        assert [blk["kept"] for blk in solve if blk["kept"]] == out["block_sizes"]
        assert sum(blk["asked"] - blk["kept"] for blk in solve) == out["wasted_columns"]
        for blk, rec in zip(blocks, res.trace.blocks):
            assert (blk["asked"], blk["kept"], blk["stopped_by"]) == (rec.asked, rec.kept,
                                                                     rec.stopped_by)
            assert blk["last_cond"] == float(rec.cond_trace[-1])

    def test_block_seconds_are_parts_of_the_phase_seconds(self, tmp_path):
        man = small_manifest(matrix="lap2d:12", basis="scaled-newton", initial_step=12,
                             restart_len=24)
        res = run_experiment(man, str(tmp_path))
        with open(res.json_path, encoding="ascii") as f:
            meta = json.load(f)
        blocks, timings = meta["result"]["blocks"], meta["timings"]
        for blk in blocks:
            assert all(math.isfinite(blk[key]) and blk[key] >= 0.0 for key in ("mpk_s", "qr_s"))
        harvest = [blk for blk in blocks if blk["phase"] == "harvest"]
        solve = [blk for blk in blocks if blk["phase"] == "solve"]
        assert harvest and solve
        # each block's clocks read inside its phase, outermost phase first
        assert sum(blk["mpk_s"] + blk["qr_s"] for blk in harvest) <= timings["harvest"]
        assert sum(blk["mpk_s"] for blk in solve) <= timings["mpk"]
        assert sum(blk["qr_s"] for blk in solve) <= timings["ortho"]
        # the seconds take no part in comparing records
        rec = res.trace.blocks[0]
        assert replace(rec, mpk_s=rec.mpk_s + 1.0, qr_s=-1.0) == rec

    def test_setup_time_covers_matrix_build(self, tmp_path, monkeypatch):
        build = sstep.harness.resolve_matrix

        def slow_build(spec):
            time.sleep(0.05)
            return build(spec)

        monkeypatch.setattr(sstep.harness, "resolve_matrix", slow_build)
        res = run_experiment(small_manifest(), str(tmp_path))
        assert res.summary["result"]["setup_time_s"] >= 0.05

    def test_numpy_scalar_settings_write_a_plain_sidecar(self, tmp_path):
        man = RunManifest(matrix="diag:50:1:2", initial_step=np.int64(3), restart_len=20)
        res = run_experiment(man, str(tmp_path))
        with open(res.json_path, encoding="ascii") as f:
            meta = json.load(f)
        assert meta["solver"]["initial_step"] == 3
        assert type(res.summary["solver"]["initial_step"]) is int

    def test_serialization_error_leaves_no_sidecar(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sstep.harness.ReductionCounter, "as_dict",
                            lambda self: {"unserializable": object()})
        with pytest.raises(TypeError, match="not JSON serializable"):
            run_experiment(small_manifest(), str(tmp_path))
        assert list(tmp_path.glob("*.json")) == []

    def test_freed_setup_memory_released_before_the_solve(self, tmp_path, monkeypatch):
        import sstep.solvers

        calls = []
        factor, release, solve = (sstep.harness.ilu0, sstep.harness._release_freed_memory,
                                  sstep.solvers.gmres_baseline)
        monkeypatch.setattr(sstep.harness, "ilu0",
                            lambda a: calls.append("ilu0") or factor(a))
        monkeypatch.setattr(sstep.harness, "_release_freed_memory",
                            lambda: calls.append("release") or release())
        monkeypatch.setattr(sstep.solvers, "gmres_baseline",
                            lambda *a, **k: calls.append("solve") or solve(*a, **k))
        res = run_experiment(RunManifest(matrix="lap2d:8", solver="gmres", precond="ilu0"),
                             str(tmp_path))
        assert calls == ["ilu0", "release", "solve"]
        assert res.summary["result"]["converged"]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
    def test_heap_trim_found_on_glibc(self):
        assert sstep.harness._malloc_trim is not None


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
