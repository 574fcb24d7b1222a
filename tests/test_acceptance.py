"""Acceptance gate: one test per advertised behavior, each printing a
single pass/fail line with the measured numbers next to the required ones.

The heavy cases (the 160000-row grid problems) run in minutes; everything
else is seconds.  Problem sizes, step sizes, and thresholds are fixed; do
not tune them to make a red line green.
"""

import glob
import os
import time
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from sstep import (
    ConditionEstimator,
    ReductionCounter,
    RitzSet,
    RunManifest,
    SolverConfig,
    SparseMatrix,
    adaptive_gmres,
    assemble_hessenberg,
    bcgs2_partial_cholqr,
    build_change_of_basis,
    build_rhs,
    estimate_initial_step,
    gen_diagonal,
    gen_laplace2d,
    gmres_baseline,
    matrix_powers,
    partial_cholesky,
    ritz_harvest,
    run_experiment,
    svd_condition,
)


def report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def block_pattern_holds(block_sizes, adapted, cycle_len):
    """Every block has the adapted width except cycle-final remainders."""
    cols = 0
    for p in block_sizes:
        room = cycle_len - cols
        if p != min(adapted, room):
            return False
        cols += p
        if cols == cycle_len:
            cols = 0
    return True


def max_log10_gap(ra, rb):
    k = min(len(ra), len(rb))
    tiny = np.finfo(np.float64).tiny
    la = np.log10(np.maximum(np.asarray(ra[:k]), tiny))
    lb = np.log10(np.maximum(np.asarray(rb[:k]), tiny))
    return float(np.max(np.abs(la - lb)))


def test_criterion_1_diagonal_adapts_to_six():
    t0 = time.perf_counter()
    a = gen_diagonal(10000, 0.1, 10.0)
    b = build_rhs(a, "random", 42)
    cfg = SolverConfig(basis="monomial", initial_step=10, restart_len=100,
                       max_restarts=10)
    tr = adaptive_gmres(a.matvec, b, config=cfg)
    trb = gmres_baseline(a.matvec, b, config=cfg)
    elapsed = time.perf_counter() - t0
    trace0 = tr.blocks[0].cond_trace
    crossing = len(trace0) == 7 and trace0[5] <= cfg.cond_limit < trace0[6]
    gap = max_log10_gap(tr.residuals, trb.residuals)
    ok = (tr.converged and trb.converged
          and block_pattern_holds(tr.block_sizes, 6, 100)
          and tr.block_sizes[0] == 6
          and crossing
          and gap < 1.0
          and elapsed < 30.0)
    report(1, ok, f"adapted step {tr.block_sizes[0]} (want 6), condition trace "
                  f"crosses 1e7 at column 7 ({crossing}), residual gap to the "
                  f"column-wise solver {gap:.2f} decades (< 1), {elapsed:.1f}s (< 30)")


def test_criterion_2_wide_scaled_newton_block():
    t0 = time.perf_counter()
    a = gen_diagonal(10000, 0.1, 10.0)
    b = build_rhs(a, "random", 42)
    cfg = SolverConfig(basis="scaled-newton", initial_step=100, restart_len=100,
                       max_restarts=10, track_loo=True)
    tr = adaptive_gmres(a.matvec, b, config=cfg)
    elapsed = time.perf_counter() - t0
    loo = float(np.nanmax(tr.loo))
    one_block_per_cycle = len(tr.block_sizes) == tr.restarts + 1
    ok = (tr.converged
          and one_block_per_cycle
          and set(tr.block_sizes) == {100}
          and tr.wasted_columns == 0
          and loo <= 1e-12 * np.sqrt(100.0)
          and elapsed < 60.0)
    report(2, ok, f"one untruncated step-100 block per cycle ({tr.block_sizes}), "
                  f"orthogonality loss {loo:.2e} (<= 1e-11), {elapsed:.1f}s (< 60)")


@pytest.mark.slow
def test_criterion_3_laplace_grid_orthogonality():
    t0 = time.perf_counter()
    a = gen_laplace2d(400)
    b = build_rhs(a, "random", 42)
    cfg = SolverConfig(basis="monomial", initial_step=10, restart_len=100,
                       max_restarts=5, track_loo=True)
    tr = adaptive_gmres(a.matvec, b, config=cfg)
    elapsed = time.perf_counter() - t0
    loo = float(np.nanmax(tr.loo))
    ok = (loo <= 1e-12
          and block_pattern_holds(tr.block_sizes, 6, 100)
          and tr.block_sizes[0] == 6
          and tr.restarts == 5
          and elapsed < 300.0)
    report(3, ok, f"orthogonality loss {loo:.2e} over {tr.iterations} recorded "
                  f"iterations (<= 1e-12), constant adapted step 6 "
                  f"({block_pattern_holds(tr.block_sizes, 6, 100)}), {elapsed:.0f}s (< 300)")


@pytest.mark.slow
def test_criterion_4_preconditioned_full_width_block(tmp_path):
    t0 = time.perf_counter()
    common = dict(matrix="lap2d:400", precond="ilu0", rhs="random", seed=42,
                  restart_len=400, max_restarts=10)
    ra = run_experiment(RunManifest(solver="adaptive", basis="scaled-newton",
                                    initial_step=400, label="wide", **common),
                        str(tmp_path))
    rb = run_experiment(RunManifest(solver="gmres", basis="monomial",
                                    initial_step=10, label="base", **common),
                        str(tmp_path))
    elapsed = time.perf_counter() - t0
    res = ra.summary["result"]
    gap = max_log10_gap(ra.trace.residuals, rb.trace.residuals)
    ok = (res["converged"] and rb.summary["result"]["converged"]
          and set(res["block_sizes"]) == {400}
          and len(res["block_sizes"]) == res["restarts"] + 1
          and res["wasted_columns"] == 0
          and gap < 1.0
          and elapsed < 600.0)
    report(4, ok, f"single step-400 block per cycle ({res['block_sizes']}), "
                  f"residual gap to baseline {gap:.2f} decades (< 1), "
                  f"{elapsed:.0f}s (< 600)")


def test_criterion_5_step_estimate_integers():
    t0 = time.perf_counter()
    uniform = estimate_initial_step(
        RitzSet.from_values(np.arange(1.0, 201.0)), 1e7).s0_star
    outlier = estimate_initial_step(
        RitzSet.from_values(np.concatenate([np.arange(1.0, 200.0), [2000.0]])),
        1e7).s0_star
    elapsed = time.perf_counter() - t0
    ok = (uniform, outlier) == (134, 17) and elapsed < 1.0
    report(5, ok, f"uniform spectrum s0*={uniform} (want exactly 134), "
                  f"outlier spectrum s0*={outlier} (want exactly 17), "
                  f"{elapsed:.2f}s (< 1)")


def test_criterion_6_condition_estimate_accuracy():
    t0 = time.perf_counter()
    n_total, within, over = 1000, 0, 0
    for t in range(n_total):
        rng = np.random.default_rng(1000 + t)
        j = int(rng.integers(2, 51))
        kappa = 10.0 ** rng.uniform(0.0, 10.0)
        sig = np.geomspace(1.0, 1.0 / kappa, j)
        m = np.linalg.qr(rng.standard_normal((j, j)))[0] @ np.diag(sig)
        m = m @ np.linalg.qr(rng.standard_normal((j, j)))[0].T
        r = np.linalg.qr(m)[1]
        est = ConditionEstimator()
        for c in range(j):
            est.update(r[:c, c], float(r[c, c]))
        truth = svd_condition(r)
        if est.estimate > truth * (1 + 1e-12):
            over += 1
        if 0.1 <= est.estimate / truth <= 10.0:
            within += 1
    elapsed = time.perf_counter() - t0
    ok = within >= 990 and elapsed < 60.0
    report(6, ok, f"{within}/{n_total} estimates within a factor of 10 of SVD "
                  f"truth (>= 990), {over} overestimates, {elapsed:.1f}s (< 60)")


def test_criterion_7_reduction_accounting_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    n, m = 40, 10
    a = SparseMatrix.from_dense(rng.standard_normal((n, n)) + 6 * np.eye(n))
    b = rng.standard_normal(n)
    tra = adaptive_gmres(a.matvec, b, config=SolverConfig(
        basis="monomial", initial_step=5, restart_len=20))
    ok_a = tra.counter.phase_reductions("ortho") == 4 * len(tra.block_sizes)
    trb = gmres_baseline(a.matvec, b, config=SolverConfig(
        basis="monomial", initial_step=5, restart_len=m, max_restarts=1,
        rel_tol=1e-15))
    want = 2 * sum(i + 1 for i in range(1, m + 1))
    ok_b = (trb.iterations == 2 * m
            and trb.counter.phase_reductions("ortho") == want)
    elapsed = time.perf_counter() - t0
    ok = ok_a and ok_b and elapsed < 1.0
    report(7, ok, f"block solver {tra.counter.phase_reductions('ortho')} == "
                  f"4 x {len(tra.block_sizes)} blocks ({ok_a}); column solver "
                  f"{trb.counter.phase_reductions('ortho')} == {want} over two "
                  f"cycles ({ok_b}); {elapsed:.2f}s (< 1)")


class TestCriterion8Properties:
    """Five structural properties; the shared pass/fail line prints last."""

    results = {}

    def test_a_block_qr_matches_householder(self):
        rng = np.random.default_rng(81)
        n, i, s = 64, 9, 7
        # basis and candidates stored one vector per row, as the solver does
        q0 = np.ascontiguousarray(np.linalg.qr(rng.standard_normal((n, i)))[0].T)
        cand = rng.standard_normal((s, n))
        q_new = cand.copy()
        out = bcgs2_partial_cholqr(q0, q_new, 1e7)
        full = np.linalg.qr(np.vstack([q0, cand]).T)[0][:, : i + out.p]
        ang = float(np.max(sla.subspace_angles(np.vstack([q0, q_new[: out.p]]).T, full)))
        self.results["a"] = ang <= 1e-10
        assert self.results["a"], f"principal angle {ang:.2e}"

    def test_b_basis_recurrence_residual(self):
        rng = np.random.default_rng(82)
        n, s = 48, 8
        ad = 0.3 * rng.standard_normal((n, n)) + np.diag(rng.uniform(1, 3, n))
        a = SparseMatrix.from_dense(ad)
        v0 = rng.standard_normal(n)
        v0 /= np.linalg.norm(v0)
        ritz = ritz_harvest(a.matvec, v0, s)
        assert np.any(ritz.values.imag != 0)
        eps = np.finfo(np.float64).eps
        ok = True
        for kind in ("monomial", "newton", "scaled-newton"):
            cob = build_change_of_basis(kind, s, ritz if kind != "monomial" else None)
            rows = np.empty((s + 1, n))
            rows[0] = v0
            v = np.vstack([v0, matrix_powers(a.matvec, rows, cob).v])  # one vector per row
            gap = np.linalg.norm(v[:s] @ ad.T - cob.dense().T @ v)
            bound = 32 * s * eps * np.linalg.norm(ad) * np.max(
                np.linalg.norm(v, axis=1))
            ok = ok and gap <= bound
        self.results["b"] = ok
        assert ok

    def test_c_arnoldi_relation_after_every_block(self):
        rng = np.random.default_rng(83)
        n, s = 40, 5
        ad = 0.25 * rng.standard_normal((n, n)) + np.diag(rng.uniform(1, 2, n))
        b = rng.standard_normal(n)
        ritz = ritz_harvest(SparseMatrix.from_dense(ad).matvec, b, s)
        ok = True
        for kind in ("monomial", "scaled-newton"):
            # one basis vector per row; each block is generated into the
            # rows it occupies
            q = np.zeros((1 + 3 * s, n))
            h = np.zeros((1 + 3 * s, 3 * s))
            q[0] = b / np.linalg.norm(b)
            i = 1
            for _ in range(3):
                cob = build_change_of_basis(
                    kind, s, ritz.cycled(s) if kind != "monomial" else None)
                blk = matrix_powers(lambda v: ad @ v, q[i - 1 : i + s], cob)
                out = bcgs2_partial_cholqr(q[:i], blk.v, 1e7)
                h[: i + out.p, i - 1 : i - 1 + out.p] = assemble_hessenberg(
                    out.r_hat, cob.dense(), h[:i, : i - 1])
                i += out.p
                k = i - 1
                gap = np.linalg.norm(q[:k] @ ad.T - h[:i, :k].T @ q[:i])
                ok = ok and gap <= 1e-8
        self.results["c"] = ok
        assert ok

    def test_d_partial_factorization_prefix_bitwise(self):
        rng = np.random.default_rng(84)
        x = rng.standard_normal((30, 8))
        g = x.T @ x
        full = partial_cholesky(g, 1e30)
        head = partial_cholesky(g[:5, :5], 1e30)
        same = (full.r[:5, :5] == head.r).all() and np.array_equal(
            full.cond_trace[:5], head.cond_trace)
        self.results["d"] = bool(same)
        assert same

    def test_e_reruns_are_byte_identical(self, tmp_path):
        man = dict(matrix="diag:60:0.5:5.0", solver="adaptive", basis="monomial",
                   initial_step=6, restart_len=30, rhs="random", seed=3,
                   track_loo=True)
        r1 = run_experiment(RunManifest(**man), str(tmp_path / "a"))
        r2 = run_experiment(RunManifest(**man), str(tmp_path / "b"))
        with open(r1.csv_path, "rb") as f1, open(r2.csv_path, "rb") as f2:
            same = f1.read() == f2.read()
        self.results["e"] = same
        assert same

    def test_summary_line(self):
        parts = ", ".join(f"({k}) {'ok' if self.results.get(k) else 'FAILED'}"
                          for k in "abcde")
        ok = all(self.results.get(k) for k in "abcde")
        report(8, ok, f"property suite: {parts}")


def test_criterion_9_driven_cavity_matrix():
    candidates = []
    for pat in ("e20r5000*", "E20R5000*", "data/e20r5000*", "data/E20R5000*"):
        candidates += glob.glob(os.path.join(os.path.dirname(__file__), "..", pat))
    if not candidates:
        msg = ("criterion 9 skipped: driven-cavity matrix E20R5000 not present "
               "in the repository; place e20r5000.mtx next to the package to "
               "enable this check")
        warnings.warn(msg)
        print(f"[SKIP] criterion 9: {msg}")
        pytest.skip(msg)
    t0 = time.perf_counter()
    from sstep import parse_matrix_market
    a = parse_matrix_market(candidates[0])
    b = build_rhs(a, "random", 42)
    cfg = SolverConfig(basis="scaled-newton", initial_step=150, restart_len=150,
                       max_restarts=10)
    tr = adaptive_gmres(a.matvec, b, config=cfg)
    ritz = ritz_harvest(a.matvec, b / np.linalg.norm(b), 150)
    s0 = estimate_initial_step(ritz, 1e7).s0_star
    elapsed = time.perf_counter() - t0
    first = tr.block_sizes[0]
    ok = 90 <= first <= 110 and s0 == 113
    report(9, ok, f"first adapted step {first} (want 90..110), "
                  f"a priori estimate s0*={s0} (want exactly 113), {elapsed:.0f}s")
