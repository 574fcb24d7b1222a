"""Both solver drivers: correctness, adaptation, accounting, edge behavior."""

import itertools
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sstep.blockqr
import sstep.solvers
from sstep import (
    ReductionCounter,
    RitzSet,
    SolverConfig,
    SparseMatrix,
    adaptive_gmres,
    assemble_hessenberg,
    bcgs2_partial_cholqr,
    build_change_of_basis,
    gen_diagonal,
    gen_laplace2d,
    gmres_baseline,
    ilu0,
    matrix_powers,
    ritz_harvest,
)
from sstep.dense import negligible


def unit_rhs(rng, n):
    b = rng.standard_normal(n)
    return b / np.linalg.norm(b)


def diag_problem(n=200, seed=42):
    a = gen_diagonal(n, 0.1, 10.0)
    return a, unit_rhs(np.random.default_rng(seed), n)


def _forced_fallback():
    rng = np.random.default_rng(5)
    n = 40
    a = SparseMatrix.from_dense(np.diag(np.linspace(1, 2, n))
                                + 0.01 * rng.standard_normal((n, n)))
    return a, rng.standard_normal(n), dict(initial_step=8, restart_len=n, rel_tol=1e-12)


def _random_dense():
    rng = np.random.default_rng(9)
    n = 40
    a = SparseMatrix.from_dense(rng.standard_normal((n, n)) + 6 * np.eye(n))
    return a, rng.standard_normal(n), dict(initial_step=5, restart_len=10,
                                           max_restarts=1, rel_tol=1e-15)


# problems shared by several tests: name -> (matrix, rhs, SolverConfig fields)
PROBLEMS = {
    "forced-fallback": _forced_fallback(),
    # the minimizer over the Krylov space of e1 is x = 0
    "nilpotent": (SparseMatrix.from_coo(2, [0], [1], [1.0]), np.array([1.0, 0.0]),
                  dict(initial_step=2, restart_len=4, max_restarts=1)),
    "singular": (SparseMatrix.from_dense(np.diag([0.0, 1.0])),
                 unit_rhs(np.random.default_rng(4), 2),
                 dict(initial_step=3, restart_len=8, max_restarts=5)),
    "random-dense": _random_dense(),
    "diag-300": (*diag_problem(300), dict(initial_step=10, restart_len=40)),
}


class TestBaseline:
    def test_cycle_end_solution_is_krylov_optimal(self):
        rng = np.random.default_rng(61)
        n, m = 25, 8
        a = SparseMatrix.from_dense(rng.standard_normal((n, n)) + 5 * np.eye(n))
        b = unit_rhs(rng, n)
        cfg = SolverConfig(basis="monomial", initial_step=4, restart_len=m,
                           max_restarts=0, rel_tol=1e-15)
        tr = gmres_baseline(a.matvec, b, config=cfg)
        # independent oracle: minimize over an explicitly built Krylov space
        ad = a.to_dense()
        k = np.empty((n, m))
        k[:, 0] = b
        for j in range(1, m):
            k[:, j] = ad @ k[:, j - 1]
        qk = np.linalg.qr(k)[0]
        y, *_ = np.linalg.lstsq(ad @ qk, b, rcond=None)
        best = np.linalg.norm(b - ad @ (qk @ y))
        got = np.linalg.norm(b - ad @ tr.x)
        assert got == pytest.approx(best, rel=1e-8)

    def test_reduction_count_two_full_cycles(self):
        a, b, kw = PROBLEMS["random-dense"]
        m = kw["restart_len"]
        tr = gmres_baseline(a.matvec, b, config=SolverConfig(basis="monomial", **kw))
        assert not tr.converged and tr.iterations == 2 * m
        # per iteration i: i projections plus one norm, all in the ortho phase
        want = 2 * sum(i + 1 for i in range(1, m + 1))
        assert tr.counter.phase_reductions("ortho") == want
        npt.assert_array_equal(tr.reductions_cum[:m],
                               np.cumsum(np.arange(1, m + 1) + 1))

    def test_estimates_never_increase(self):
        a, b = diag_problem()
        tr = gmres_baseline(a.matvec, b, config=SolverConfig(basis="monomial"))
        assert tr.converged
        assert np.all(np.diff(tr.residuals) <= 1e-15)


class TestAdaptive:
    def test_matches_baseline_final_residual(self):
        a, b = diag_problem()
        cfg = SolverConfig(basis="monomial", initial_step=10, restart_len=100)
        ta = adaptive_gmres(a.matvec, b, config=cfg)
        tb = gmres_baseline(a.matvec, b, config=cfg)
        assert ta.converged and tb.converged
        gap = abs(np.log10(ta.final_relative_residual) - np.log10(tb.final_relative_residual))
        assert gap < 1.0

    def test_ortho_reductions_are_four_per_block(self):
        a, b, _ = PROBLEMS["random-dense"]
        cfg = SolverConfig(basis="monomial", initial_step=5, restart_len=20)
        tr = adaptive_gmres(a.matvec, b, config=cfg)
        assert tr.converged and len(tr.block_sizes) > 1
        assert tr.counter.phase_reductions("ortho") == 4 * len(tr.block_sizes)

    def test_step_size_adapts_once_and_persists_across_restarts(self):
        a = gen_diagonal(1000, 0.1, 10.0)
        b = unit_rhs(np.random.default_rng(42), 1000)
        cfg = SolverConfig(basis="monomial", initial_step=10, restart_len=30,
                           max_restarts=3, rel_tol=1e-12)
        tr = adaptive_gmres(a.matvec, b, config=cfg)
        # the first block truncates by conditioning, everything after runs
        # at the adapted width, including the blocks after each restart
        assert tr.block_sizes[0] < 10
        assert set(tr.block_sizes[1:]) == {tr.block_sizes[0]}
        # only the first block wasted candidates, so s was never reset
        assert tr.wasted_columns == 10 - tr.block_sizes[0]
        first = tr.blocks[0].cond_trace
        assert len(first) == tr.block_sizes[0] + 1
        assert first[-1] > cfg.cond_limit >= first[-2]

    def test_overflow_truncation_adapts_width(self, monkeypatch):
        # the block QR's overflow stop, not the condition limit, cuts the
        # first monomial block short; the width must adapt all the same, so
        # that later blocks ask only for what the first one kept
        requested, cut = [], []
        block_qr = sstep.solvers.bcgs2_partial_cholqr

        def spy(q, v, *args, **kwargs):
            outcome = block_qr(q, v, *args, **kwargs)
            requested.append(v.shape[0])
            cut.append(outcome.stopped_by == "overflow")
            return outcome

        monkeypatch.setattr(sstep.solvers, "bcgs2_partial_cholqr", spy)
        monkeypatch.setattr(sstep.blockqr, "OVERFLOW_LIMIT", 1e3)
        a, b = diag_problem(200, 3)
        cfg = SolverConfig(basis="monomial", initial_step=10, restart_len=60)
        tr = adaptive_gmres(a.matvec, b, config=cfg)
        assert tr.converged and len(tr.block_sizes) == len(requested) > 2
        assert cut[0] and tr.block_sizes[0] < 10
        assert requested[1] == tr.block_sizes[0]
        # every candidate column a block asked for and did not keep is wasted
        assert tr.wasted_columns == sum(requested) - sum(tr.block_sizes)

    def test_converged_run_truncates_trace_at_signal(self):
        a, b = diag_problem()
        cfg = SolverConfig(basis="monomial", initial_step=10, restart_len=100)
        tr = adaptive_gmres(a.matvec, b, config=cfg)
        assert tr.converged
        assert tr.iterations <= sum(tr.block_sizes)
        assert tr.residuals[-1] <= cfg.rel_tol
        assert tr.final_relative_residual <= 10 * tr.residuals[-1] + 1e-16

    def test_newton_basis_with_complex_pair_shifts(self):
        rng = np.random.default_rng(8)
        n = 80
        d = rng.standard_normal((n, n))
        a = SparseMatrix.from_dense(0.15 * d + np.diag(rng.uniform(2, 4, n)))
        b = unit_rhs(rng, n)
        ritz = ritz_harvest(a.matvec, b, 10)
        assert np.any(ritz.values.imag != 0)  # the probe matrix has complex pairs
        for basis in ("newton", "scaled-newton"):
            cfg = SolverConfig(basis=basis, initial_step=10, restart_len=60,
                               track_loo=True)
            tr = adaptive_gmres(a.matvec, b, config=cfg, ritz=ritz)
            assert tr.converged
            assert np.nanmax(tr.loo) < 1e-12

    def test_estimator_cap_limits_first_block(self):
        a, b = diag_problem(300, 4)
        cfg = SolverConfig(basis="monomial", initial_step=10, restart_len=50,
                           use_step_estimator=True, growth_limit=1e-17)
        tr = adaptive_gmres(a.matvec, b, config=cfg)
        assert tr.s0_star == 1
        assert max(tr.block_sizes) == 1

    def test_forced_fallback_runs_as_plain_mgs(self, monkeypatch):
        # every block is generated in full, and its block QR stops after
        # the two events of its first pass, before the column fallback
        requested = []
        mpk = sstep.solvers.matrix_powers

        def spy(op, rows, cob):
            requested.append(cob.s)
            return mpk(op, rows, cob)

        monkeypatch.setattr(sstep.solvers, "matrix_powers", spy)
        monkeypatch.setattr(sstep.blockqr, "OVERFLOW_LIMIT", 1e-300)
        a, b, kw = PROBLEMS["forced-fallback"]
        cfg = SolverConfig(basis="monomial", **kw)
        tr = adaptive_gmres(a.matvec, b, config=cfg)
        assert tr.converged
        assert tr.block_sizes == []
        assert requested == [min(8, cfg.restart_len - i) for i in range(tr.iterations)]
        assert tr.counter.phase_reductions("ortho") == 2 * tr.iterations
        assert tr.counter.get("spmv", "mpk") == sum(requested)
        assert tr.counter.get("spmv", "fallback") == tr.iterations


@pytest.mark.parametrize("a,b,kw", list(PROBLEMS.values()), ids=list(PROBLEMS))
def test_forced_fallback_is_the_baseline(a, b, kw, monkeypatch):
    # an overflow limit no candidate passes sends every adaptive step down
    # the column fallback, which must then be the baseline step for step
    monkeypatch.setattr(sstep.blockqr, "OVERFLOW_LIMIT", 1e-300)
    cfg = SolverConfig(basis="monomial", **kw)
    ta = adaptive_gmres(a.matvec, b, config=cfg)
    tb = gmres_baseline(a.matvec, b, config=cfg)
    assert np.array_equal(ta.x, tb.x)
    assert np.array_equal(ta.residuals, tb.residuals)
    assert (ta.restarts, ta.breakdown, ta.converged) == (tb.restarts, tb.breakdown, tb.converged)
    fallback = ta.counter.as_dict()["fallback"]
    ortho = tb.counter.as_dict()["ortho"]
    # the baseline books its operator applications to the mpk phase
    assert fallback["spmv"] == tb.counter.get("spmv", "mpk")
    assert {**fallback, "spmv": 0} == ortho


# every solver on every shared problem
SOLVES = [(name, solver, basis) for name in PROBLEMS
          for solver, basis in ((gmres_baseline, "monomial"), (adaptive_gmres, "monomial"),
                                (adaptive_gmres, "newton"), (adaptive_gmres, "scaled-newton"))]


@pytest.mark.parametrize("name,solver,basis", SOLVES,
                         ids=[f"{n}-{s.__name__}-{bs}" for n, s, bs in SOLVES])
def test_final_relative_residual_is_that_of_x(name, solver, basis):
    # the driver's residual state describes the x it returns, and it was
    # formed by the same arithmetic as here, so the two agree to the bit
    a, b, kw = PROBLEMS[name]
    tr = solver(a.matvec, b, config=SolverConfig(basis=basis, **kw))
    assert tr.beta0 == np.linalg.norm(b)
    assert tr.final_relative_residual == np.linalg.norm(b - a.matvec(tr.x)) / tr.beta0


def compose_blocks(ad, b, kind, s, nblocks, ritz=None, check=None):
    """Run nblocks s-step blocks on a row-stored basis, one vector per row.

    Returns the basis rows q (k + 1 of them) and the (k + 1) x k Hessenberg;
    check(q, hbar), when given, runs on the prefix built after every block.
    """
    n = len(b)
    q = np.zeros((1 + s * nblocks, n))
    h = np.zeros((1 + s * nblocks, s * nblocks))
    q[0] = b / np.linalg.norm(b)
    i = 1
    for _ in range(nblocks):
        cob = build_change_of_basis(kind, s, ritz.cycled(s) if ritz else None)
        blk = matrix_powers(lambda v, out: np.matmul(ad, v, out=out), q[i - 1 : i + s], cob)
        out = bcgs2_partial_cholqr(q[:i], blk.v, 1e7)
        p = out.p
        h[: i + p, i - 1 : i - 1 + p] = assemble_hessenberg(
            out.r_hat, cob.dense(), h[:i, : i - 1])
        i += p
        if check is not None:
            check(q[:i], h[:i, : i - 1])
    return q[:i], h[:i, : i - 1]


class TestArnoldiRelation:
    @pytest.mark.parametrize("kind,shifts,s", [
        ("monomial", None, 4),
        ("newton", [2.0, 1.1, 1.6, 1.3], 4),
        ("scaled-newton", [2.0, 1.1, 1.6, 1.3], 4),
        ("scaled-newton", [2.0, 1.2 + 0.5j, 1.2 - 0.5j, 1.0], 4),
        ("scaled-newton", [2.0, 1.2 + 0.5j, 1.2 - 0.5j], 2),  # cut pair
    ])
    def test_relation_after_blocks(self, kind, shifts, s):
        rng = np.random.default_rng(62)
        n = 36
        ad = 0.25 * rng.standard_normal((n, n)) + np.diag(rng.uniform(1, 2, n))
        b = unit_rhs(rng, n)
        ritz = RitzSet.from_values(shifts) if shifts else None
        q, hbar = compose_blocks(ad, b, kind, s, 3, ritz)
        k = hbar.shape[1]
        gap = np.linalg.norm(q[:k] @ ad.T - hbar.T @ q)
        assert gap <= 1e-10 * np.linalg.norm(ad)
        # the basis stays orthonormal and the subdiagonal blocks stay positive
        npt.assert_allclose(q @ q.T, np.eye(k + 1), atol=1e-13)
        assert np.all(np.diag(hbar, -1) > 0)
        assert np.max(np.abs(np.tril(hbar, -2))) == 0.0


# Hypothesis properties: fixed example sets, so that every run checks the same
# cases; a one-value Ritz set floors its only Newton scale factor, and warns
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
quiet_floored_scales = pytest.mark.filterwarnings("ignore:all scale factors hit the floor")
BASES = st.sampled_from(["monomial", "newton", "scaled-newton"])


def random_problem(seed, n):
    """A nonsymmetric n x n matrix whose spectrum lies near the disk |z - 2| <= 1."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) / np.sqrt(n) + 2.0 * np.eye(n), unit_rhs(rng, n)


@quiet_floored_scales
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 40), basis=BASES, s=st.integers(1, 8))
def test_arnoldi_relation_after_every_block(seed, n, basis, s):
    ad, b = random_problem(seed, n)
    ritz = None if basis == "monomial" else ritz_harvest(
        lambda v, out: np.matmul(ad, v, out=out), b, s)
    norm_a = np.linalg.norm(ad)

    def check(q, hbar):
        k = hbar.shape[1]
        assert np.linalg.norm(q[:k] @ ad.T - hbar.T @ q) <= 1e-10 * norm_a
        npt.assert_allclose(q @ q.T, np.eye(k + 1), atol=1e-13)

    # past n - 1 columns the block QR must cut the dependent candidates
    q, _ = compose_blocks(ad, b, basis, s, max(1, min(3, (n - 1) // s)), ritz, check)
    assert len(q) > 1


@quiet_floored_scales
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 40), basis=BASES, s=st.integers(1, 8),
       extra=st.integers(0, 16))
def test_ortho_reductions_are_four_per_block_on_random_problems(seed, n, basis, s, extra):
    ad, b = random_problem(seed, n)
    cfg = SolverConfig(basis=basis, initial_step=s, restart_len=s + extra, max_restarts=3)
    counter = ReductionCounter()
    tr = adaptive_gmres(SparseMatrix.from_dense(ad).matvec, b, config=cfg, counter=counter)
    # a block that keeps no column (past an exhausted Krylov space) stops
    # after the two events of its first pass and falls back; the harvest's
    # blocks book under harvest
    broken = sum(blk.phase == "solve" and blk.stopped_by == "breakdown" for blk in tr.blocks)
    assert counter.phase_reductions("ortho") == 4 * len(tr.block_sizes) + 2 * broken


@quiet_floored_scales
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 16), nulls=st.integers(0, 2),
       basis=BASES, solver=st.sampled_from([adaptive_gmres, gmres_baseline]),
       s=st.integers(1, 8), extra=st.integers(0, 16), digits=st.integers(11, 14))
def test_a_breakdown_cannot_be_carried_on(seed, n, nulls, basis, solver, s, extra, digits):
    # a solve ends as a breakdown only where restarting from its x would
    # repeat its last cycle: a second solve from that x, with the same
    # settings, does not reach the first solve's target either.  Spectra of
    # n <= restart_len values exhaust the Krylov space, tolerances near
    # roundoff leave such a cycle short of convergence, and zeroed values
    # make the system singular and b inconsistent
    d = np.linspace(0.1, 10.0, n)
    d[:nulls] = 0.0
    b = np.random.default_rng(seed).standard_normal(n)
    cfg = SolverConfig(basis=basis, initial_step=s, restart_len=s + extra, max_restarts=3,
                       rel_tol=10.0**-digits)
    tr = solver(lambda v, out: np.multiply(d, v, out=out), b, config=cfg)
    if tr.breakdown:
        again = solver(lambda v, out: np.multiply(d, v, out=out), b, x0=tr.x, config=cfg)
        assert np.linalg.norm(b - d * again.x) > cfg.rel_tol * np.linalg.norm(b)


def test_exhausted_space_with_a_kept_confirmation_restarts():
    # K_12 is all of R^12, and the exhausted cycle's least-squares solution
    # lands at 6.7e-13, above the tolerance, but improves on b: the solve
    # restarts from it and converges instead of ending as a breakdown.  Where
    # that solution lands is roundoff (1e-13 to 3e-12 over seeds and block-QR
    # arithmetic), so the tolerance sits well below it
    d = np.linspace(0.1, 10.0, 12)
    b = np.random.default_rng(1).standard_normal(12)
    cfg = SolverConfig(basis="monomial", initial_step=13, restart_len=22, max_restarts=3,
                       rel_tol=1e-13)
    tr = adaptive_gmres(lambda v, out: np.multiply(d, v, out=out), b, config=cfg)
    assert tr.converged and not tr.breakdown and tr.restarts == 1
    assert np.linalg.norm(b - d * tr.x) <= cfg.rel_tol * np.linalg.norm(b)


def sweep_matrix(kind, rng, n):
    """A small dense matrix of one of the sweep's kinds."""
    if kind == "dense":
        return rng.standard_normal((n, n))
    if kind == "dominant":  # sparse, with a diagonal that dominates its rows
        a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
        np.fill_diagonal(a, 0.0)
        return a + np.diag(np.abs(a).sum(axis=1) + rng.uniform(0.5, 2.0, n))
    if kind == "singular":
        d = rng.uniform(0.1, 10.0, n)
        d[rng.random(n) < 0.3] = 0.0
        return np.diag(d)
    if kind == "nilpotent":
        return np.triu(rng.standard_normal((n, n)), 1)
    if kind == "low-rank":
        r = int(rng.integers(1, max(2, n // 2)))
        return rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
    # clustered: eigenvalues in a few tight clusters, behind a random similarity
    centers = rng.uniform(-3.0, 3.0, int(rng.integers(1, 4)))
    d = rng.choice(centers, n) + 1e-6 * rng.standard_normal(n)
    s = rng.standard_normal((n, n)) + n * np.eye(n)
    return s @ np.diag(d) @ np.linalg.inv(s)


SWEEP_KINDS = ("dense", "dominant", "singular", "nilpotent", "low-rank", "clustered")


def sweep_case(seed):
    """One seeded problem of the sweep: (label, op, b, x0, config)."""
    rng = np.random.default_rng(seed)
    kind = SWEEP_KINDS[seed % len(SWEEP_KINDS)]
    n = int(rng.integers(2, 25))
    a = SparseMatrix.from_dense(sweep_matrix(kind, rng, n))
    op, b = a.matvec, rng.standard_normal(n)
    if kind == "nilpotent" and rng.random() < 0.5:
        b = a.matvec(np.ones(n))  # may be zero
    if kind == "dominant" and rng.random() < 0.5:
        m = ilu0(a)
        op, b, kind = (lambda v, out: m.solve(a.matvec(v, out), out)), m.solve(b), "dominant-ilu0"
    x0 = (None, np.zeros(n), rng.standard_normal(n))[int(rng.integers(0, 3))]
    restart = int(rng.integers(1, 21))
    cfg = SolverConfig(basis=str(rng.choice(["monomial", "newton", "scaled-newton"])),
                       initial_step=int(rng.integers(1, restart + 1)), restart_len=restart,
                       max_restarts=int(rng.integers(0, 5)),
                       rel_tol=float(10.0 ** -rng.uniform(4.0, 14.0)),
                       cond_limit=float(rng.choice([1e3, 1e7, 1e12, np.inf])),
                       use_step_estimator=bool(rng.random() < 0.5))
    return f"seed {seed}: {kind} n={n} {cfg}", op, b, x0, cfg


def assert_sweep_invariants(label, solver, op, b, x0, cfg):
    tr = solver(op, b, x0=x0, config=cfg)  # valid input raises nothing
    r0 = b if x0 is None else b - op(x0, np.empty(len(b)))
    assert tr.beta0 == np.linalg.norm(r0), label
    want = np.linalg.norm(b - op(tr.x, np.empty(len(b)))) / tr.beta0 if tr.beta0 > 0.0 else 0.0
    assert tr.final_relative_residual == want, label
    assert not (tr.converged and tr.breakdown), label
    if tr.converged:
        assert tr.final_relative_residual <= 10.0 * cfg.rel_tol, label
    assert tr.restarts <= cfg.max_restarts, label
    if solver is adaptive_gmres:
        solve = [blk for blk in tr.blocks if blk.phase == "solve"]
        broken = sum(blk.stopped_by == "breakdown" for blk in solve)
        assert tr.counter.phase_reductions("ortho") == 4 * (len(solve) - broken) + 2 * broken, label


def zero_ritz_cases():
    # A = [[0, 1], [0, 0]] with b = A @ ones (seed 5933 of a wider sweep):
    # its harvest gives only the Ritz value 0, which once made the first
    # solve block or the step estimate raise "all shift values are zero"
    a = SparseMatrix.from_coo(2, [0], [1], [1.0])
    for basis, estimator in (("scaled-newton", False), ("monomial", True)):
        cfg = SolverConfig(basis=basis, initial_step=2, restart_len=4,
                           use_step_estimator=estimator)
        yield f"nilpotent {cfg}", a.matvec, a.matvec(np.ones(2)), None, cfg


@quiet_floored_scales
def test_seeded_sweep_of_small_problems_keeps_the_solver_invariants():
    # dense, diagonally dominant (with and without ILU(0)), singular,
    # nilpotent, low-rank and clustered systems under random settings,
    # through both solvers
    cases = itertools.chain(map(sweep_case, range(300)), zero_ritz_cases())
    for label, op, b, x0, cfg in cases:
        for solver in (gmres_baseline, adaptive_gmres):
            assert_sweep_invariants(f"{solver.__name__} {label}", solver, op, b, x0, cfg)


# a tile budget of five doubles sums every projection over tiles of at most
# five columns, so every block of the two properties above crosses tiles
FIVE_COLUMN_TILES = 5 * 8


@quiet_floored_scales
def test_arnoldi_relation_after_every_block_across_tiles():
    with mock.patch.object(sstep.blockqr, "TILE_BYTES", FIVE_COLUMN_TILES):
        test_arnoldi_relation_after_every_block()


@quiet_floored_scales
def test_ortho_reductions_are_four_per_block_across_tiles():
    with mock.patch.object(sstep.blockqr, "TILE_BYTES", FIVE_COLUMN_TILES):
        test_ortho_reductions_are_four_per_block_on_random_problems()


def test_block_is_built_in_the_basis():
    # a 100-wide block is generated into the basis rows it occupies and
    # orthonormalized there, so besides the basis the solve holds at most one
    # block-sized temporary at a time; a block with its own candidate array,
    # a first-pass copy and a second-pass copy would peak at three
    n, m = 10000, 100
    d = np.linspace(1.0, 10.0, n)
    # Chebyshev points of the spectrum: the whole scaled Newton block is kept
    ritz = RitzSet.from_values(5.5 + 4.5 * np.cos(np.pi * (np.arange(m) + 0.5) / m))
    cfg = SolverConfig(basis="scaled-newton", initial_step=m, restart_len=m, rel_tol=1e-14)
    b = unit_rhs(np.random.default_rng(0), n)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tr = adaptive_gmres(lambda v, out: np.multiply(d, v, out=out), b, config=cfg, ritz=ritz)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert tr.converged and tr.block_sizes == [m]
    basis, block = (m + 1) * n * 8, m * n * 8
    assert peak < basis + 2 * block


def test_monomial_solve_holds_two_vectors_beyond_the_basis():
    # the operator writes into basis rows and residual buffers, the update
    # is formed in a basis row, and so are the candidate iterate and its
    # residual at a confirmation: the only n-vectors beyond the basis are x
    # and r.  The dense state adds the Hessenberg and least-squares arrays
    # of two cycles at the hand-over, 4 (m + 1) m floats (0.4 of a vector
    # here), allowed 6 (m + 1) m with the small arrays of the block QR.
    # (an operator returning a new vector per apply, and new vectors for the
    # update, the candidate and its residual, held 5.2 beyond the basis)
    n, m = 100_000, 100
    a, b = diag_problem(n, seed=3)
    cfg = SolverConfig(basis="monomial", initial_step=10, restart_len=m, rel_tol=2e-10)
    adaptive_gmres(a.matvec, b, config=SolverConfig(initial_step=2, restart_len=4))  # warm-up
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tr = adaptive_gmres(a.matvec, b, config=cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # a full cycle, then the adapted blocks of 6 and a kept confirmation
    assert tr.converged and tr.restarts == 1 and tr.block_sizes[0] == 6
    basis, vector, dense = (m + 1) * n * 8, n * 8, 6 * (m + 1) * m * 8
    assert peak < basis + 2 * vector + dense


@pytest.mark.parametrize("solver", [adaptive_gmres, gmres_baseline])
def test_operator_writing_into_its_row_gives_the_same_bits(solver):
    # the sparse product written straight into the basis row against one made
    # in a fresh vector and copied in
    a = gen_laplace2d(12)
    b = unit_rhs(np.random.default_rng(11), a.n)
    cfg = SolverConfig(basis="scaled-newton", initial_step=12, restart_len=24, rel_tol=1e-12)
    into = solver(a.matvec, b, config=cfg)
    fresh = solver(lambda v, out: np.copyto(out, a.matvec(v)) or out, b, config=cfg)
    assert into.converged and into.restarts > 0
    for name in ("x", "residuals", "block_size", "reductions_cum", "spmv_cum"):
        assert getattr(into, name).tobytes() == getattr(fresh, name).tobytes(), name


@pytest.mark.parametrize("run", [
    lambda op, b: adaptive_gmres(op, b),
    lambda op, b: gmres_baseline(op, b),
    lambda op, b: ritz_harvest(op, b, 4),
    lambda op, b: matrix_powers(op, np.vstack([b, np.empty((3, len(b)))]),
                                build_change_of_basis("monomial", 3)),
], ids=["adaptive", "baseline", "harvest", "matrix-powers"])
def test_an_operator_that_does_not_return_out_is_refused(run):
    # an operator that hands back a new vector has left out as it was: the
    # basis row would hold whatever was there before
    b = np.linspace(1.0, 2.0, 8)
    with pytest.raises(ValueError, match=re.escape("op(v, out)")):
        run(lambda v, out: 2.0 * v, b)


class TestEdgeBehavior:
    def test_identity_converges_in_one_iteration(self):
        n = 50
        a = SparseMatrix.from_dense(np.eye(n))
        b = np.random.default_rng(3).standard_normal(n)
        cfg = SolverConfig(basis="monomial", initial_step=3, restart_len=5)
        for solver in (adaptive_gmres, gmres_baseline):
            tr = solver(a.matvec, b, config=cfg)
            assert tr.converged and tr.iterations == 1
            npt.assert_allclose(tr.x, b, rtol=0, atol=1e-15)
            if solver is adaptive_gmres:
                # every candidate A^j q_0 = q_0 lies in span(q_0): the block
                # keeps none of them and the fallback column ends the cycle
                assert tr.block_sizes == [] and tr.wasted_columns == 3

    def test_zero_rhs_is_trivially_converged(self):
        a, _ = diag_problem(20)
        cfg = SolverConfig(basis="monomial", initial_step=5, restart_len=10,
                           use_step_estimator=True)
        for solver in (adaptive_gmres, gmres_baseline):
            tr = solver(a.matvec, np.zeros(20), config=cfg)
            assert tr.converged and tr.iterations == 0 and not tr.breakdown
            assert tr.final_relative_residual == 0.0 and tr.s0_star is None
            npt.assert_array_equal(tr.x, np.zeros(20))

    @pytest.mark.parametrize("estimator", [False, True], ids=["fixed", "estimator"])
    @pytest.mark.parametrize("basis", ["monomial", "newton", "scaled-newton"])
    def test_zero_rhs_needs_no_harvest(self, basis, estimator):
        a, _ = diag_problem(20)
        cfg = SolverConfig(basis=basis, initial_step=5, restart_len=10,
                           use_step_estimator=estimator)
        tr = adaptive_gmres(a.matvec, np.zeros(20), config=cfg)
        assert tr.converged and tr.iterations == 0 and not tr.breakdown
        assert tr.final_relative_residual == 0.0 and tr.s0_star is None
        npt.assert_array_equal(tr.x, np.zeros(20))
        assert tr.counter.get("spmv", "harvest") == 0

    @pytest.mark.parametrize("estimator", [False, True], ids=["fixed", "estimator"])
    @pytest.mark.parametrize("basis", ["monomial", "newton", "scaled-newton"])
    def test_harvest_starts_from_the_first_residual(self, basis, estimator, monkeypatch):
        # b = 0 with x0 given: the Krylov space is that of r0 = -A x0, not of b
        harvested = []
        harvest = sstep.solvers.ritz_harvest

        def spy(op, rhs, k, counter=None, cycle=None):
            harvested.append(np.array(rhs))
            return harvest(op, rhs, k, counter, cycle=cycle)

        monkeypatch.setattr(sstep.solvers, "ritz_harvest", spy)
        a, _ = diag_problem(20)
        cfg = SolverConfig(basis=basis, initial_step=5, restart_len=10,
                           use_step_estimator=estimator)
        tr = adaptive_gmres(a.matvec, np.zeros(20), x0=np.ones(20), config=cfg)
        assert tr.converged and not tr.breakdown
        if basis == "monomial" and not estimator:
            assert harvested == [] and tr.counter.get("spmv", "harvest") == 0
            assert tr.iterations == 98
            return
        # the harvest's 5 columns are the first cycle, and the solve cycles
        # of 10 follow it
        assert tr.iterations == 94 and tr.restarts == 8
        npt.assert_array_equal(harvested, [-a.matvec(np.ones(20))])
        own = ReductionCounter()
        harvest(a.matvec, harvested[0], 5, own)
        # the harvest starts from the driver's first residual, which the
        # driver normed: it costs the harvest no operator application and
        # no norm of its own
        assert tr.counter.get("spmv", "harvest") == own.get("spmv", "harvest")
        assert tr.counter.get("norms", "harvest") == own.get("norms", "harvest") - 1

    def test_exact_x0_needs_no_harvest(self):
        a = gen_diagonal(8, 2.0, 2.0)
        b = np.random.default_rng(4).standard_normal(8)
        cfg = SolverConfig(basis="newton", initial_step=2, restart_len=4)
        tr = adaptive_gmres(a.matvec, b, x0=b / 2.0, config=cfg)
        assert tr.converged and tr.iterations == 0
        # the first residual is the one operator application
        assert tr.counter.get("spmv", "harvest") == 0
        assert tr.counter.kind_total("spmv") == 1

    def test_exact_x0_returns_immediately(self):
        a = gen_diagonal(8, 2.0, 2.0)  # A = 2 I, so b / 2 is exact in floats
        b = np.random.default_rng(4).standard_normal(8)
        cfg = SolverConfig(basis="monomial", initial_step=2, restart_len=4,
                           use_step_estimator=True)
        for solver in (adaptive_gmres, gmres_baseline):
            tr = solver(a.matvec, b, x0=b / 2.0, config=cfg)
            assert tr.converged and tr.iterations == 0 and not tr.breakdown
            assert tr.final_relative_residual == 0.0 and tr.s0_star is None

    def test_partial_x0_converges_against_initial_residual(self):
        a, b = diag_problem(100, 7)
        x_true = np.linalg.solve(a.to_dense(), b)
        x0 = x_true.copy()
        x0[:10] = 0.0
        cfg = SolverConfig(basis="monomial", initial_step=5, restart_len=40)
        tr = adaptive_gmres(a.matvec, b, x0=x0, config=cfg)
        assert tr.converged
        r0 = np.linalg.norm(b - a.matvec(x0))
        assert np.linalg.norm(b - a.matvec(tr.x)) <= 10 * cfg.rel_tol * r0

    def test_nilpotent_matrix_breaks_down_cleanly(self):
        a, b, kw = PROBLEMS["nilpotent"]
        cfg = SolverConfig(basis="monomial", **kw)
        for solver in (adaptive_gmres, gmres_baseline):
            tr = solver(a.matvec, b, config=cfg)
            assert tr.breakdown and not tr.converged
            assert tr.final_relative_residual == 1.0

    @pytest.mark.parametrize("basis,estimator", [("scaled-newton", False), ("newton", True),
                                                 ("monomial", True)])
    def test_zero_ritz_values_run_monomial_without_an_estimate(self, basis, estimator):
        # the harvest of A = [[0, 1], [0, 0]] from b = A @ ones gives only the
        # Ritz value 0, which neither a scaled Newton basis nor the step
        # estimate can use: the solve blocks run monomial, no estimate is
        # made, and the exhausted space ends the solve as a breakdown
        a, b, kw = PROBLEMS["nilpotent"]
        npt.assert_array_equal(b, a.matvec(np.ones(2)))
        cfg = SolverConfig(basis=basis, use_step_estimator=estimator, **kw)
        tr = adaptive_gmres(a.matvec, b, config=cfg)
        assert tr.breakdown and not tr.converged and tr.s0_star is None
        assert tr.final_relative_residual == 1.0

    def test_one_value_harvest_runs_monomial_without_warning(self):
        # s0 = 1 harvests one Ritz value, which lies on its own scaling floor:
        # the solve blocks run monomial instead of dividing by eps |theta|
        # and warning that all scale factors hit the floor at every block
        a, b = diag_problem(100, 3)
        cfg = SolverConfig(basis="scaled-newton", initial_step=1, restart_len=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = adaptive_gmres(a.matvec, b, config=cfg)
        assert tr.converged

    def test_inconsistent_singular_system_breaks_down(self):
        a, b, kw = PROBLEMS["singular"]
        cfg = SolverConfig(basis="monomial", **kw)
        for solver in (adaptive_gmres, gmres_baseline):
            tr = solver(a.matvec, b, config=cfg)
            assert tr.breakdown and not tr.converged
            # the reported point is never worse than where it started
            assert tr.final_relative_residual <= 1.0

    @pytest.mark.parametrize("name,basis,checks,spmv,norms", [
        ("singular", "newton", 1, 1, 2),
        ("singular", "scaled-newton", 1, 1, 2),
        ("nilpotent", "newton", 0, 0, 1),
    ], ids=["singular-newton", "singular-scaled-newton", "nilpotent-newton"])
    def test_unconverged_harvest_leaves_its_residual_to_the_solve(self, name, basis,
                                                                   checks, spmv, norms):
        # the harvest cycle ends without converging: on the singular system
        # its confirmation improves on b, on the nilpotent one its space is
        # exhausted at the first column and there is nothing to confirm.  The
        # solve cycle starts from the residual the driver holds, without
        # forming it again, and finds its space exhausted: a breakdown
        a, b, kw = PROBLEMS[name]
        tr = adaptive_gmres(a.matvec, b, config=SolverConfig(basis=basis, **kw))
        assert tr.breakdown and not tr.converged and tr.restarts == 0
        got = tuple(tr.counter.get(kind, "residual")
                    for kind in ("true_residual_checks", "spmv", "norms"))
        assert got == (checks, spmv, norms)
        # the least-squares minimum keeps the unreachable component of b
        assert tr.final_relative_residual == pytest.approx(abs(b[0]) / np.linalg.norm(b))

    @pytest.mark.parametrize("solver,basis", [
        (gmres_baseline, "monomial"), (adaptive_gmres, "monomial"),
        (adaptive_gmres, "scaled-newton"),
    ], ids=["baseline", "monomial", "scaled-newton"])
    @pytest.mark.parametrize("n,b,x0,msg", [
        (8, np.where(np.arange(8) == 3, np.inf, 1.0), None, "residual b has norm inf"),
        (8, np.where(np.arange(8) == 3, np.nan, 1.0), None, "residual b has norm nan"),
        (8, np.ones(8), np.where(np.arange(8) == 0, np.inf, 0.0), "b - A x0 has norm inf"),
        # finite entries whose norm overflows
        (50, np.full(50, 1e300), None, "residual b has norm inf"),
    ], ids=["inf-b", "nan-b", "inf-x0", "overflowing-b"])
    def test_non_finite_first_residual_is_refused(self, solver, basis, n, b, x0, msg):
        a = gen_diagonal(n, 1.0, 2.0)
        cfg = SolverConfig(basis=basis, initial_step=2, restart_len=4, use_step_estimator=True)
        with pytest.raises(ValueError, match=msg):
            solver(a.matvec, b, x0=x0, config=cfg)

    @pytest.mark.parametrize("solver,basis", [
        (gmres_baseline, "monomial"), (adaptive_gmres, "monomial"),
        (adaptive_gmres, "scaled-newton"),
    ], ids=["baseline", "monomial", "scaled-newton"])
    @pytest.mark.parametrize("b,x0,msg", [
        (np.ones(8) + 1j, None, "b must be a real 1-D array, got complex128 of shape (8,)"),
        (np.ones((8, 1)), None, "b must be a real 1-D array, got float64 of shape (8, 1)"),
        (np.ones(8), np.zeros((8, 1)), "x0 must be a real 1-D array of length 8, got float64 "
                                       "of shape (8, 1)"),
        (np.ones(8), np.zeros(8, dtype=complex), "x0 must be a real 1-D array of length 8"),
        (np.ones(8), np.zeros(7), "x0 must be a real 1-D array of length 8"),
    ], ids=["complex-b", "column-b", "column-x0", "complex-x0", "short-x0"])
    def test_rhs_that_is_not_a_real_vector_is_refused(self, solver, basis, b, x0, msg):
        # a callable operator broadcasts a column x0 silently, and a complex
        # b would lose its imaginary part
        d = np.linspace(1.0, 2.0, 8)
        cfg = SolverConfig(basis=basis, initial_step=2, restart_len=4, use_step_estimator=True)
        with pytest.raises(ValueError, match=re.escape(msg)):
            solver(lambda v, out: np.multiply(d, v, out=out), b, x0=x0, config=cfg)

    @pytest.mark.parametrize("a,b,m", [
        (PROBLEMS["nilpotent"][0], np.random.default_rng(11).standard_normal(2), 10),
        (SparseMatrix.from_dense(np.diag([0.0, 1.0, 2.0])), np.ones(3), 4),
    ], ids=["nilpotent", "singular"])
    def test_exhausted_space_above_tolerance_is_not_converged(self, a, b, m):
        # the Krylov space stops growing at a least-squares minimum far above
        # rel_tol, so no true residual can confirm convergence
        for solver in (adaptive_gmres, gmres_baseline):
            tr = solver(a.matvec, b, config=SolverConfig(basis="monomial", initial_step=2,
                                                         restart_len=m))
            assert tr.breakdown and not tr.converged
            rel = np.linalg.norm(b - a.matvec(tr.x)) / np.linalg.norm(b)
            assert tr.final_relative_residual == pytest.approx(rel)
            assert rel <= 1.0

    def test_roundoff_dependent_column_is_dependent(self):
        # K_3(A, b) is all of R^3, so the fourth column is dependent up to
        # roundoff; A is singular and the least-squares minimum over R^3 is
        # |b_1| / ||b|| = 1 / sqrt(3).  The adaptive solver's second block
        # holds only candidates in span(Q), so it falls back and stops there
        # too.  That minimum improves on b, so both solvers restart from it
        # once; the restarted cycle, from a residual in the null space up to
        # roundoff, improves on nothing and ends the solve as a breakdown
        a = SparseMatrix.from_dense(np.diag([0.0, 1.0, 2.0]))
        cfg = SolverConfig(basis="monomial", initial_step=2, restart_len=5)
        for solver in (adaptive_gmres, gmres_baseline):
            tr = solver(a.matvec, np.ones(3), config=cfg)
            assert tr.breakdown and not tr.converged and tr.restarts == 1
            assert tr.final_relative_residual == pytest.approx(1.0 / np.sqrt(3.0))
            if solver is adaptive_gmres:
                assert [(blk.kept, blk.stopped_by) for blk in tr.blocks[:2]] == [
                    (2, "none"), (0, "breakdown")]

    def test_loo_is_nan_when_not_tracked(self):
        a, b = diag_problem(50, 2)
        tr = adaptive_gmres(a.matvec, b, config=SolverConfig(basis="monomial",
                                                             initial_step=5,
                                                             restart_len=25))
        assert np.all(np.isnan(tr.loo))
        tr2 = adaptive_gmres(a.matvec, b, config=SolverConfig(basis="monomial",
                                                              initial_step=5,
                                                              restart_len=25,
                                                              track_loo=True))
        assert np.all(np.isfinite(tr2.loo))


def reference_harvest(op, rhs, k):
    """The column-at-a-time modified Gram-Schmidt Arnoldi harvest, kept as the oracle.

    Returns the eigenvalues of the leading Hessenberg block, ending at the
    first column whose remaining norm is at roundoff level.
    """
    q = np.empty((k + 1, len(rhs)))
    q[0] = rhs / np.linalg.norm(rhs)
    h = np.zeros((k + 1, k))
    for j in range(k):
        w = op(q[j], q[j + 1])
        for t in range(j + 1):
            h[t, j] = q[t] @ w
            w -= h[t, j] * q[t]
        nrm = np.linalg.norm(w)
        if negligible(nrm, j + 1, math.sqrt(h[: j + 1, j] @ h[: j + 1, j] + nrm * nrm)):
            return np.linalg.eigvals(h[: j + 1, : j + 1])
        h[j + 1, j] = nrm
        w /= nrm
    return np.linalg.eigvals(h[:k, :k])


def ilu_lap2d(n):
    a = gen_laplace2d(n)
    m = ilu0(a)
    return a, m, lambda v, out: m.solve(a.matvec(v, out), out)


def _harvest_ilu_lap2d():
    _, _, op = ilu_lap2d(30)
    return op, np.random.default_rng(2).standard_normal(900), 30


def _harvest_diag():
    a, b = diag_problem(500, 1)
    return a.matvec, b, 60


def _harvest_complex_pair():
    # the 80-row matrix of test_newton_basis_with_complex_pair_shifts
    rng = np.random.default_rng(8)
    n = 80
    d = rng.standard_normal((n, n))
    a = SparseMatrix.from_dense(0.15 * d + np.diag(rng.uniform(2, 4, n)))
    return a.matvec, unit_rhs(rng, n), 10


# harvest problems: name -> (operator, start vector, k); k stays below the
# column where GMRES on the start vector reaches roundoff, past which both
# harvests hand back values that depend on rounding alone
HARVESTS = {"ilu-lap2d": _harvest_ilu_lap2d(), "diag": _harvest_diag(),
            "complex-pair": _harvest_complex_pair()}


class TestRitzHarvest:
    @pytest.mark.parametrize("name", HARVESTS)
    def test_matches_reference_harvest(self, name):
        op, b, k = HARVESTS[name]
        got = ritz_harvest(op, b, k).values
        want = reference_harvest(op, b, k)
        assert len(got) == len(want) == k
        # every value has a partner in the other set within 1e-6 relative
        for x, y in ((got, want), (want, got)):
            gap = np.min(np.abs(x[:, None] - y[None, :]), axis=1) / np.abs(x)
            assert np.max(gap) <= 1e-6
        if name == "complex-pair":
            assert np.count_nonzero(got.imag > 0) > 0
            npt.assert_array_equal(np.sort_complex(got), np.sort_complex(np.conj(got)))

    @pytest.mark.parametrize("name", HARVESTS)
    def test_every_event_is_booked_under_harvest(self, name):
        op, b, k = HARVESTS[name]
        counter = ReductionCounter()
        ritz_harvest(op, b, k, counter)
        assert counter.phase_reductions("harvest") > 0
        assert counter.get("spmv", "harvest") >= k
        for phase, kinds in counter.as_dict().items():
            if phase != "harvest":
                assert not any(kinds.values()), phase

    def test_stays_in_the_field_of_values_past_convergence(self):
        # GMRES on this start vector reaches roundoff before 60 columns.  The
        # Ritz values of any orthonormal basis lie in the field of values,
        # whose real parts are bounded below by the least eigenvalue of the
        # symmetric part; the block harvest keeps its basis orthonormal
        # there, while the column-at-a-time oracle loses orthogonality and
        # returns values near zero and below
        a, m, op = ilu_lap2d(30)
        b = m.solve(a.matvec(np.ones(a.n)))
        dense = np.column_stack([op(e, np.empty(a.n)) for e in np.eye(a.n)])
        low = np.linalg.eigvalsh(0.5 * (dense + dense.T))[0]
        assert low > 0.03
        got = ritz_harvest(op, b, 100).values
        assert np.min(got.real) >= low * (1.0 - 1e-9)
        assert np.min(reference_harvest(op, b, 100).real) < 1e-12

    def test_full_space_harvest_recovers_eigenvalues(self):
        rng = np.random.default_rng(63)
        n = 8
        sym = rng.standard_normal((n, n))
        sym = sym + sym.T + 6 * np.eye(n)
        a = SparseMatrix.from_dense(sym)
        counter = ReductionCounter()
        rs = ritz_harvest(a.matvec, rng.standard_normal(n), n, counter)
        npt.assert_allclose(np.sort(rs.values.real), np.sort(np.linalg.eigvalsh(sym)),
                            rtol=1e-9)
        # a width-8 block keeps 4 columns at the condition limit, a width-4
        # block 3 before its last candidate lies in span(q); the width-1 block
        # after them keeps none and its fallback column finds R^8 exhausted
        assert counter.get("spmv", "harvest") == 8 + 4 + 1 + 1
        assert counter.get("projections", "harvest") == 2 + 2 + 1 + 8
        assert counter.get("gram_products", "harvest") == 2 + 2 + 1
        assert counter.get("norms", "harvest") == 1 + 1
        assert counter.total_reductions() == counter.phase_reductions("harvest")
        assert counter.kind_total("spmv") == counter.get("spmv", "harvest")

    def test_widening_saves_reductions(self):
        # the monomial first block keeps 6 columns at the condition limit;
        # the scaled Newton blocks on the harvest's own Ritz values keep
        # twice as many each, until the last fills the 10 columns left.
        # Five blocks of four reductions and the start vector's norm, where
        # monomial blocks of at most 6 columns made 17 blocks, 69 reductions
        a = gen_diagonal(10000, 0.1, 10.0)
        b = unit_rhs(np.random.default_rng(0), a.n)
        counter = ReductionCounter()
        widths = []

        def block_qr(q, v, *args, **kwargs):
            out = bcgs2_partial_cholqr(q, v, *args, **kwargs)
            widths.append((len(v), out.p))
            return out

        with mock.patch.object(sstep.solvers, "bcgs2_partial_cholqr", block_qr):
            ritz_harvest(a.matvec, b, 100, counter)
        assert widths == [(10, 6), (12, 12), (24, 24), (48, 48), (10, 10)]
        assert counter.total_reductions() == 1 + 4 * 5

    def test_early_breakdown_returns_leading_values(self):
        a = SparseMatrix.from_dense(np.eye(5))
        rs = ritz_harvest(a.matvec, np.ones(5), 3)
        assert len(rs) == 1
        assert rs.values[0] == pytest.approx(1.0)

    def test_guards(self):
        a = gen_diagonal(4, 1.0, 2.0)
        with pytest.raises(ValueError, match="positive"):
            ritz_harvest(a.matvec, np.ones(4), 0)
        with pytest.raises(ValueError, match="zero vector"):
            ritz_harvest(a.matvec, np.zeros(4), 2)
        for rhs, norm in ((np.full(4, np.inf), "inf"), (np.array([1.0, np.nan, 1.0, 1.0]), "nan"),
                          (np.full(4, 1e300), "inf")):
            with pytest.raises(ValueError, match=f"rhs of norm {norm}"):
                ritz_harvest(a.matvec, rhs, 2)
        for rhs, got in ((np.full(4, 1.0 + 1j), "complex128 of shape (4,)"),
                         (np.ones((4, 1)), "float64 of shape (4, 1)")):
            msg = f"rhs must be a real 1-D array, got {got}"
            with pytest.raises(ValueError, match=re.escape(msg)):
                ritz_harvest(a.matvec, rhs, 2)


class TestHarvestCycle:
    """The Ritz harvest of an adaptive solve is the solve's first cycle."""

    def test_converges_within_the_harvest(self):
        # a clustered spectrum: GMRES meets 1e-10 at column 7 of the 8 the
        # harvest builds, so no solve block and no solve cycle runs
        a = gen_diagonal(200, 1.0, 1.1)
        b = unit_rhs(np.random.default_rng(1), 200)
        cfg = SolverConfig(basis="scaled-newton", initial_step=8, restart_len=16)
        tr = adaptive_gmres(a.matvec, b, config=cfg)
        assert tr.converged and not tr.breakdown
        assert tr.iterations == 7 and tr.restarts == 0
        assert tr.block_sizes == [] and tr.counter.get("spmv", "mpk") == 0
        assert {blk.phase for blk in tr.blocks} == {"harvest"}
        assert tr.final_relative_residual <= 10 * tr.residuals[-1] <= 10 * cfg.rel_tol

    def test_exhausted_harvest_returns_the_solution(self):
        # K_6(A, b) is R^6: the harvest's fallback column finds the space
        # exhausted, and the least-squares solution there solves A x = b
        small = gen_diagonal(6, 1.0, 6.0)
        cfg = SolverConfig(basis="scaled-newton", initial_step=6, restart_len=6)
        tr = adaptive_gmres(small.matvec, small.matvec(np.ones(6)), config=cfg)
        assert tr.converged and not tr.breakdown and tr.restarts == 0
        assert tr.blocks[-1].stopped_by == "breakdown" and tr.blocks[-1].phase == "harvest"
        assert tr.block_sizes == [] and tr.counter.get("spmv", "mpk") == 0
        npt.assert_allclose(tr.x, np.ones(6), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,k", [(30, 30), (20, 40)])
    def test_harvest_cycle_saves_one_cycle_of_operator_applications(self, n, k):
        # a harvest run standalone and then a solve that is handed its values
        # builds K_k(A, r0) twice; the solve that keeps the harvest cycle
        # builds it once and applies the operator exactly k times less
        a = gen_laplace2d(n)
        b = unit_rhs(np.random.default_rng(3), a.n)
        cfg = SolverConfig(basis="scaled-newton", initial_step=k, restart_len=k, max_restarts=20)
        kept = adaptive_gmres(a.matvec, b, config=cfg)
        counter = ReductionCounter()
        ritz = ritz_harvest(a.matvec, b, k, counter)
        thrown = adaptive_gmres(a.matvec, b, config=cfg, ritz=ritz, counter=counter)
        assert kept.converged and thrown.converged
        assert kept.iterations == thrown.iterations
        assert kept.restarts == thrown.restarts - 1
        assert kept.counter.kind_total("spmv") == counter.kind_total("spmv") - k
        assert kept.counter.get("spmv", "harvest") == counter.get("spmv", "harvest")

    @pytest.mark.parametrize("n,rel_tol,kept", [(80, 1e-10, [10, 20, 40, 30]),
                                                (30, 1e-15, [9, 18, 14, 16])])
    def test_harvest_widens_itself(self, n, rel_tol, kept):
        # ILU(0) Laplacians at initial_step = restart_len = 100.  After the
        # monomial first block, each harvest block asks twice the last kept
        # width, capped by the room left: on lap2d:80 the kept widths double
        # until the room cuts the fourth to 30; on lap2d:30 the condition
        # limit cuts the first, third and fourth, and each block after a cut
        # doubles what was kept
        a, m, op = ilu_lap2d(n)
        b = m.solve(a.matvec(np.ones(a.n)))
        cfg = SolverConfig(basis="scaled-newton", initial_step=100, restart_len=100,
                           rel_tol=rel_tol)
        tr = adaptive_gmres(op, b, config=cfg)
        harvest = [blk for blk in tr.blocks if blk.phase == "harvest"]
        assert [blk.kept for blk in harvest] == kept
        room = 100 - np.cumsum([0] + kept[:-1])
        assert [blk.asked for blk in harvest] == [10] + [
            min(2 * p, left) for p, left in zip(kept, room[1:])]
        for blk in harvest:
            assert blk.stopped_by == ("none" if blk.kept == blk.asked else "condition")
        assert tr.counter.phase_reductions("harvest") == 4 * len(harvest)

    def test_solve_blocks_tile_the_solve_cycles(self):
        # a 10-column harvest ahead of 30-column solve cycles: the harvest's
        # blocks are not solve blocks, and its cycle is not a restart
        a = gen_laplace2d(30)
        b = unit_rhs(np.random.default_rng(3), a.n)
        cfg = SolverConfig(basis="scaled-newton", initial_step=10, restart_len=30,
                           max_restarts=1, rel_tol=1e-14)
        tr = adaptive_gmres(a.matvec, b, config=cfg)
        assert not tr.converged and not tr.breakdown
        assert tr.restarts == 1 and tr.iterations == 10 + 2 * 30
        # the solve blocks fill the first solve cycle exactly, then the second
        assert 30 in np.cumsum(tr.block_sizes) and sum(tr.block_sizes) == 2 * 30
        # the harvest's 10 columns are the first 10 trace rows
        harvest = [blk.kept for blk in tr.blocks if blk.phase == "harvest"]
        assert list(tr.block_size[:10]) == [p for p in harvest for _ in range(p)]

    def test_harvest_blocks_keep_to_the_solve_condition_limit(self):
        # the harvest cycle's iterate is kept, so its columns are the solve's:
        # under the default limit of 1e7 its second block here kept 16 columns
        # up to a condition of 2.0e5
        a = gen_laplace2d(40)
        cfg = SolverConfig(basis="scaled-newton", initial_step=40, restart_len=80,
                           cond_limit=1e3)
        tr = adaptive_gmres(a.matvec, a.matvec(np.ones(a.n)), config=cfg)
        harvest = [blk for blk in tr.blocks if blk.phase == "harvest"]
        assert len(harvest) > 1
        for blk in harvest:
            assert np.all(blk.cond_trace[: blk.kept] <= cfg.cond_limit)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs,msg", [
        (dict(basis="cheb"), "unknown basis"),
        (dict(initial_step=0), "initial_step"),
        (dict(restart_len=0), "restart_len"),
        (dict(max_restarts=-1), "max_restarts"),
        (dict(rel_tol=0.0), "rel_tol"),
        (dict(rel_tol=np.inf), "rel_tol"),
        (dict(rel_tol=np.nan), "rel_tol"),
        (dict(cond_limit=0.5), "cond_limit"),
        (dict(growth_limit=0.0), "growth_limit"),
    ])
    def test_rejects_bad_values(self, kwargs, msg):
        base = dict(basis="monomial", initial_step=5, restart_len=50)
        with pytest.raises(ValueError, match=msg):
            SolverConfig(**{**base, **kwargs})

    def test_initial_step_above_restart_is_refused_by_the_adaptive_solver_alone(self):
        # the block solver's harvest cycle of initial_step columns must fit
        # the restart basis; the baseline never reads initial_step
        a, b = diag_problem(20)
        cfg = SolverConfig(basis="monomial", initial_step=40, restart_len=30)
        with pytest.raises(ValueError, match="initial_step cannot exceed restart_len"):
            adaptive_gmres(a.matvec, b, config=cfg)
        tr = gmres_baseline(gen_diagonal(20, 1.0, 2.0).matvec, b,
                            config=SolverConfig(restart_len=5))
        assert tr.converged and tr.restarts > 0
        assert set(tr.block_size) == {1}

    def test_infinite_limits_mean_no_limit(self):
        cfg = SolverConfig(cond_limit=np.inf, growth_limit=np.inf)
        assert cfg.cond_limit == cfg.growth_limit == np.inf

    def test_missing_ritz_for_newton_solver(self):
        a, b = diag_problem(20)
        cfg = SolverConfig(basis="newton", initial_step=4, restart_len=10)
        tr = adaptive_gmres(a.matvec, b, config=cfg)  # harvests its own shifts
        assert tr.converged
