"""Restarted GMRES solvers: a column-at-a-time baseline and the adaptive block variant.

Both run through one restart-cycle driver and differ only in the step
that extends a cycle's basis: one modified Gram-Schmidt column for the
baseline; for the adaptive solver a block (matrix powers, condition-limited
block QR, Hessenberg assembly) that falls back to the same column step.  The
Ritz harvest runs that block step on one cycle of monomial blocks.

Both take the operator as a callable and the right-hand side of the system
actually iterated on, i.e. preconditioning and scaling are folded in by the
caller.  Residual norms in traces are therefore preconditioned residuals,
reported relative to the first cycle's starting norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .basis import RitzSet, build_change_of_basis, matrix_powers
from .blockqr import bcgs2_partial_cholqr, project
from .dense import BreakdownError, GivensLs, hessenberg_eigenvalues, negligible
from .estimator import estimate_initial_step
from .harness import COUNTER_KINDS, ReductionCounter, SolverConfig


@dataclass
class SolveTrace:
    """Everything observable about one solve.

    Per-iteration arrays share one index: entry t describes the t-th
    least-squares column.  block_size holds the width of the block that
    produced each column (1 for the baseline and fallback steps).
    """

    converged: bool
    x: np.ndarray
    iterations: int
    residuals: np.ndarray
    loo: np.ndarray
    block_size: np.ndarray
    reductions_cum: np.ndarray
    spmv_cum: np.ndarray
    block_sizes: list
    cond_traces: list
    counter: ReductionCounter
    beta0: float
    final_relative_residual: float
    restarts: int
    s0_star: int | None = None
    wasted_columns: int = 0
    breakdown: bool = False


def _counted(op, counter: ReductionCounter, phase: str):
    def apply(v):
        counter.add("spmv", phase)
        return op(v)

    return apply


class _Cycle:
    """Basis, Hessenberg matrix and least-squares state of one restart cycle.

    A step extends the basis q[:ncols + 1] by one or more vectors, appends
    the matching Hessenberg columns to ls and hands their residual
    estimates to record.  q is the solve's basis storage, a C-order
    (m + 1) x n array with one Krylov vector per contiguous row,
    overwritten row by row.  rows collects one trace tuple (rel_res, loo,
    width, reductions_cum, spmv_cum) per least-squares column.
    """

    def __init__(self, q: np.ndarray, r: np.ndarray, beta: float, beta0: float,
                 cfg: SolverConfig, counter: ReductionCounter, rows: list):
        m = cfg.restart_len
        self.q = q
        self.q[0] = r / beta
        self.h = np.zeros((m + 1, m))
        self.ls = GivensLs(m, beta)
        self.loo_sq = 0.0
        self.beta0 = beta0
        self.tol = cfg.rel_tol * beta0  # what a least-squares estimate must meet
        self.cfg = cfg
        self.counter = counter
        self.rows = rows

    def record(self, i: int, ests, width: int, exhausted: bool = False):
        """Trace least-squares columns i, i + 1, ... whose residual estimates are ests.

        Columns past the first estimate at or below tol are dropped, since
        no iteration uses them.  The orthogonality loss grows by that of
        basis rows q[i:] the traced columns wrote; an exhausted column
        wrote none.  Returns the driver's signal (k, est, exhausted) for a
        met tolerance or an exhausted space, else None.
        """
        conv = next((t for t, est in enumerate(ests) if est <= self.tol), None)
        n = len(ests) if conv is None else conv + 1
        loo = math.nan
        if self.cfg.track_loo:
            if not exhausted:
                q, new = self.q, self.q[i : i + n]
                c = project(q[:i], new)
                d = new @ new.T - np.eye(n)
                self.loo_sq += 2.0 * float(np.sum(c * c)) + float(np.sum(d * d))
            loo = math.sqrt(self.loo_sq)
        for est in ests[:n]:
            self.rows.append((float(est) / self.beta0, loo, width,
                              self.counter.phase_reductions("ortho"),
                              self.counter.solve_spmv()))
        if conv is None and not exhausted:
            return None
        return i + n - 1, float(ests[n - 1]), exhausted


def _restarted_gmres(op, b: np.ndarray, x0: np.ndarray | None, cfg: SolverConfig,
                     counter: ReductionCounter, step) -> SolveTrace:
    """Restarted GMRES around a basis-extending step.

    step(cycle) extends the cycle's basis and returns None to go on, or a
    signal (k, est, exhausted): solve on the first k columns, whose
    residual estimate is est, and confirm.  exhausted marks a Krylov
    space that cannot grow.  step.width is the step's current block width.
    A confirmation that neither converges nor improves on the cycle start
    ends the solve as a breakdown when the width did not change during the
    cycle, since the restarted cycle would repeat this one exactly.
    """
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros(len(b)) if x0 is None else np.array(x0, dtype=np.float64)
    op_res = _counted(op, counter, "residual")

    # one basis for all cycles, one vector per row: a cycle reads only the
    # rows it wrote
    q = np.empty((cfg.restart_len + 1, len(b)))
    rows = []
    beta0 = None
    converged = False
    breakdown = False
    final_rel = math.inf
    restarts_used = 0
    for cycle in range(cfg.max_restarts + 1):
        restarts_used = cycle
        if cycle == 0 and x0 is None:
            r = b.copy()
        else:
            r = b - op_res(x)
        counter.add("norms", "residual")
        beta = float(np.linalg.norm(r))
        if beta0 is None:
            beta0 = beta
            if beta0 == 0.0:
                converged, final_rel = True, 0.0
                break
        if beta <= cfg.rel_tol * beta0:
            converged, final_rel = True, beta / beta0
            break

        cyc = _Cycle(q, r, beta, beta0, cfg, counter, rows)
        width = step.width
        signal = None
        while cyc.ls.ncols < cfg.restart_len and signal is None:
            signal = step(cyc)
        if signal is None:
            # full cycle without a convergence signal: advance the iterate
            x = x + cyc.ls.solve() @ cyc.q[: cyc.ls.ncols]
            continue
        k, est, exhausted = signal
        if k == 0:
            breakdown, final_rel = True, beta / beta0
            break
        # confirm against the true residual; the update is kept only when it
        # converges or improves on the cycle start, since a least-squares
        # solve that crossed a near-dependent column can hand back a worse point
        x_new = x + cyc.ls.solve(k) @ cyc.q[:k]
        counter.add("true_residual_checks", "residual")
        true_nrm = float(np.linalg.norm(b - op_res(x_new)))
        counter.add("norms", "residual")
        # the 10x allowance on the estimate applies only to an estimate that
        # met the tolerance; an exhausted space above it is not convergence
        converged = true_nrm <= (max(10.0 * est, cyc.tol) if est <= cyc.tol else cyc.tol)
        kept = converged or true_nrm < beta
        if kept:
            x, final_rel = x_new, true_nrm / beta0
        else:
            final_rel = beta / beta0
        if converged:
            break
        if exhausted or (not kept and step.width == width):
            breakdown = True
            break
    if not converged and not breakdown:
        counter.add("norms", "residual")
        final_rel = float(np.linalg.norm(b - op_res(x))) / beta0

    residuals, loo, block_size, reductions_cum, spmv_cum = np.array(rows).reshape(-1, 5).T
    return SolveTrace(
        converged=converged,
        x=x,
        iterations=len(rows),
        residuals=residuals,
        loo=loo,
        block_size=block_size.astype(np.int64),
        reductions_cum=reductions_cum.astype(np.int64),
        spmv_cum=spmv_cum.astype(np.int64),
        block_sizes=[],
        cond_traces=[],
        counter=counter,
        beta0=beta0,
        final_relative_residual=final_rel,
        restarts=restarts_used,
        breakdown=breakdown,
    )


class _ColumnStep:
    """One modified Gram-Schmidt column: the baseline step and the block fallback.

    Projects op(q[i - 1]) against q[:i] one row at a time into Hessenberg
    column i - 1.  A remaining norm at roundoff level of ||op(q[i - 1])||
    marks a dependent column: it is stored as 0 and ends the cycle.
    """

    width = 1

    def __init__(self, op, counter: ReductionCounter, phase: str):
        self.op = op
        self.counter = counter
        self.phase = phase

    def __call__(self, cyc: _Cycle):
        q, ls = cyc.q, cyc.ls
        i = ls.ncols + 1
        hcol = cyc.h[: i + 1, i - 1]
        w = self.op(q[i - 1])
        self.counter.add("projections", self.phase, i)
        for t in range(i):
            hcol[t] = float(q[t] @ w)
            w -= hcol[t] * q[t]
        self.counter.add("norms", self.phase)
        nrm = float(np.linalg.norm(w))
        # ||op(q[i - 1])|| rebuilt from the coefficients, without a reduction
        if negligible(nrm, i, math.sqrt(float(hcol[:i] @ hcol[:i]) + nrm * nrm)):
            nrm = 0.0
        hcol[i] = nrm
        if nrm != 0.0:
            q[i] = w / nrm
        try:
            ests = ls.append(hcol)
        except BreakdownError:
            # only a happy column can come out fully dependent: the space is
            # exhausted, so solve on the columns appended before it
            return i - 1, float(ls.residual_estimate), True
        # a zero or NaN norm is a happy column: it ends the cycle
        return cyc.record(i, ests, 1, exhausted=not nrm > 0.0)


class _BlockStep:
    """One adaptive block: matrix powers, condition-limited block QR, Hessenberg assembly.

    width is the adapted block size; it shrinks to the accepted width
    whenever a block keeps fewer columns than it asked for, whether the
    overflow guard, the first or the second factorization pass cut it.
    Every candidate column a block does not keep counts as wasted.  A
    block that yields no usable column falls back to one modified
    Gram-Schmidt column.
    """

    def __init__(self, op, counter: ReductionCounter, cfg: SolverConfig,
                 ritz: RitzSet | None, width: int):
        self.op = _counted(op, counter, "mpk")
        self.fallback = _ColumnStep(_counted(op, counter, "fallback"), counter, "fallback")
        self.counter = counter
        self.cfg = cfg
        self.ritz = ritz
        self.width = width
        self.block_sizes = []
        self.cond_traces = []
        self.wasted = 0

    def __call__(self, cyc: _Cycle):
        cfg, q, ls = self.cfg, cyc.q, cyc.ls
        i = ls.ncols + 1
        s_eff = min(self.width, cfg.restart_len - i + 1)
        shifts = None if cfg.basis == "monomial" else self.ritz.cycled(s_eff)
        cob = build_change_of_basis(cfg.basis, s_eff, shifts)
        blk = matrix_powers(self.op, q[i - 1], cob)
        outcome = None
        if blk.ncols > 0:
            try:
                outcome = bcgs2_partial_cholqr(q[:i].T, blk.v, cfg.cond_limit,
                                               counter=self.counter)
            except BreakdownError:
                pass
        p = 0 if outcome is None else outcome.p
        self.wasted += s_eff - p
        if outcome is None:
            return self.fallback(cyc)

        h_blk = assemble_hessenberg(outcome.r_hat, cob.dense(), cyc.h[:i, : i - 1])
        cyc.h[: i + p, i - 1 : i - 1 + p] = h_blk
        ests = ls.append(h_blk)
        q[i : i + p] = outcome.q_new.T
        self.block_sizes.append(p)
        self.cond_traces.append(outcome.cond_trace)
        if p < s_eff:
            self.width = p
        return cyc.record(i, ests, p)


def ritz_harvest(op, rhs: np.ndarray, k: int, counter: ReductionCounter | None = None) -> RitzSet:
    """Run k Arnoldi steps from rhs/||rhs|| and return the ordered Ritz values.

    The Arnoldi process is the block solver's own step on one cycle of
    monomial blocks.  It stops only at k columns or at a Krylov space
    exhausted at column j < k, and then returns the j values available.
    All costs are attributed to the 'harvest' phase.
    """
    if k < 1:
        raise ValueError("k must be positive")
    counter = counter if counter is not None else ReductionCounter()
    rhs = np.asarray(rhs, dtype=np.float64)
    counter.add("norms", "harvest")
    beta = float(np.linalg.norm(rhs))
    if beta == 0.0:
        raise ValueError("cannot harvest from a zero vector")
    cfg = SolverConfig(restart_len=k, initial_step=min(k, SolverConfig.initial_step))
    # the step books mpk, ortho and fallback events; a counter of its own
    # keeps them out of the caller's solve phases
    own = ReductionCounter()
    step = _BlockStep(op, own, cfg, None, cfg.initial_step)
    cyc = _Cycle(np.empty((k + 1, len(rhs))), rhs, beta, beta, cfg, own, [])
    cyc.tol = -math.inf  # never stop on the least-squares estimate
    while cyc.ls.ncols < k:
        i = cyc.ls.ncols + 1
        if step(cyc) is not None:
            # only an exhausted space signals; Hessenberg column i closes it
            k = i
            break
    for kind in COUNTER_KINDS:
        counter.add(kind, "harvest", own.kind_total(kind))
    return RitzSet.from_values(hessenberg_eigenvalues(cyc.h, k))


def assemble_hessenberg(r_hat: np.ndarray, b_dense: np.ndarray, h_prev: np.ndarray) -> np.ndarray:
    """Express one block's recurrence in the orthonormal basis.

    r_hat is the (i + p) x (p + 1) coefficient block from the block QR,
    b_dense the recurrence matrix of the generating block (rows/columns
    beyond p are ignored), h_prev the i x (i - 1) Hessenberg computed so
    far.  Returns the (i + p) x p block of new Hessenberg columns; its
    entries below the first subdiagonal are structural zeros.
    """
    i_plus_p, pp1 = r_hat.shape
    p = pp1 - 1
    i = i_plus_p - p
    m = r_hat @ b_dense[: p + 1, :p]
    if i > 1:
        m[:i] -= h_prev @ r_hat[: i - 1, :p]
    s_bot = r_hat[i - 1 : i + p - 1, :p]
    return sla.solve_triangular(s_bot, m.T, trans="T", lower=False).T


def gmres_baseline(op, b: np.ndarray, x0: np.ndarray | None = None,
                   config: SolverConfig | None = None,
                   counter: ReductionCounter | None = None) -> SolveTrace:
    """Restarted GMRES with modified Gram-Schmidt, one column at a time.

    Reduction accounting: the iteration that sees i basis columns performs
    i projection events plus one norm, all in the 'ortho' phase.
    """
    cfg = config if config is not None else SolverConfig()
    counter = counter if counter is not None else ReductionCounter()
    step = _ColumnStep(_counted(op, counter, "mpk"), counter, "ortho")
    return _restarted_gmres(op, b, x0, cfg, counter, step)


def adaptive_gmres(op, b: np.ndarray, x0: np.ndarray | None = None,
                   config: SolverConfig | None = None,
                   counter: ReductionCounter | None = None,
                   ritz: RitzSet | None = None) -> SolveTrace:
    """Adaptive block GMRES.

    Each block generates up to s new Krylov columns with the configured
    basis recurrence, orthonormalizes them with the condition-limited
    two-pass block QR, and shrinks s to the accepted width whenever the
    factorization truncated.  A restart resumes with the last adapted
    width.  Convergence signals from the small least-squares problem are
    confirmed against the true residual before the solver stops; a failed
    confirmation restarts from the current iterate.

    ritz supplies the shifts for the newton bases and the step estimate;
    when needed and not given it is harvested here with initial_step
    Arnoldi iterations on op from the first residual, unless that is zero.
    """
    cfg = config if config is not None else SolverConfig()
    counter = counter if counter is not None else ReductionCounter()
    needs_ritz = cfg.basis != "monomial" or cfg.use_step_estimator
    if needs_ritz and ritz is None:
        r0 = b
        if x0 is not None:
            r0 = b - _counted(op, counter, "harvest")(np.asarray(x0, dtype=np.float64))
        if not np.any(r0):
            # nothing to solve: the driver returns before its first step
            return _restarted_gmres(op, b, x0, cfg, counter, None)
        ritz = ritz_harvest(op, r0, cfg.initial_step, counter)

    s0_star = None
    width = cfg.initial_step
    if cfg.use_step_estimator:
        s0_star = estimate_initial_step(ritz, cfg.growth_limit).s0_star
        width = min(width, s0_star)

    step = _BlockStep(op, counter, cfg, ritz, width)
    trace = _restarted_gmres(op, b, x0, cfg, counter, step)
    trace.block_sizes = step.block_sizes
    trace.cond_traces = step.cond_traces
    trace.wasted_columns = step.wasted
    trace.s0_star = s0_star
    return trace
