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
from .blockqr import bcgs2_partial_cholqr
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


class _Rows:
    """Accumulates per-iteration trace rows."""

    def __init__(self, counter: ReductionCounter):
        self._counter = counter
        self.residuals = []
        self.loo = []
        self.block_size = []
        self.reductions_cum = []
        self.spmv_cum = []

    def emit(self, rel_res: float, loo: float, width: int):
        self.residuals.append(rel_res)
        self.loo.append(loo)
        self.block_size.append(width)
        self.reductions_cum.append(self._counter.phase_reductions("ortho"))
        self.spmv_cum.append(self._counter.solve_spmv())

    def __len__(self):
        return len(self.residuals)


class _Cycle:
    """Basis, Hessenberg matrix and least-squares state of one restart cycle.

    A step extends the basis q[:ncols + 1] by one or more vectors, appends
    the matching Hessenberg columns to ls and emits one trace row per
    vector.  q is the solve's basis storage, a C-order (m + 1) x n array
    with one Krylov vector per contiguous row, overwritten row by row.
    """

    def __init__(self, q: np.ndarray, r: np.ndarray, beta: float, beta0: float,
                 cfg: SolverConfig, rows: _Rows):
        m = cfg.restart_len
        self.q = q
        self.q[0] = r / beta
        self.h = np.zeros((m + 1, m))
        self.ls = GivensLs(m, beta)
        self.loo_sq = 0.0
        self.beta0 = beta0
        self.tol = cfg.rel_tol * beta0  # what a least-squares estimate must meet
        self.cfg = cfg
        self.rows = rows

    def emit(self, est: float, loo: float, width: int):
        self.rows.emit(est / self.beta0, loo, width)


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
    rows = _Rows(counter)
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

        cyc = _Cycle(q, r, beta, beta0, cfg, rows)
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

    return SolveTrace(
        converged=converged,
        x=x,
        iterations=len(rows),
        residuals=np.asarray(rows.residuals),
        loo=np.asarray(rows.loo) if cfg.track_loo else np.full(len(rows), np.nan),
        block_size=np.asarray(rows.block_size, dtype=np.int64),
        reductions_cum=np.asarray(rows.reductions_cum, dtype=np.int64),
        spmv_cum=np.asarray(rows.spmv_cum, dtype=np.int64),
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
        happy = not nrm > 0.0  # a NaN norm also ends the cycle
        if cyc.cfg.track_loo and not happy:
            c = q[:i] @ q[i]
            cyc.loo_sq += 2.0 * float(c @ c)
            cyc.loo_sq += (float(q[i] @ q[i]) - 1.0) ** 2
        try:
            est = float(ls.append(hcol)[0])
        except BreakdownError:
            # only a happy column can come out fully dependent: the space is
            # exhausted, so solve on the columns appended before it
            return i - 1, float(ls.residual_estimate), True
        cyc.emit(est, math.sqrt(cyc.loo_sq), 1)
        if est <= cyc.tol or happy:
            return i, est, happy
        return None


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
        blk = matrix_powers(self.op, q[i - 1], cob, cfg.overflow_limit)
        self.wasted += s_eff - blk.ncols
        outcome = None
        if blk.ncols > 0:
            try:
                outcome = bcgs2_partial_cholqr(q[:i].T, blk.v, cfg.cond_limit,
                                               counter=self.counter)
            except BreakdownError:
                self.wasted += blk.ncols
        if outcome is None:
            return self.fallback(cyc)

        p = outcome.p
        self.wasted += blk.ncols - p
        h_blk = assemble_hessenberg(outcome.r_hat, cob.dense(), cyc.h[:i, : i - 1])
        cyc.h[: i + p, i - 1 : i - 1 + p] = h_blk
        ests = ls.append(h_blk)
        q[i : i + p] = outcome.q_new.T
        self.block_sizes.append(p)
        self.cond_traces.append(outcome.cond_trace)
        conv_t = next((t for t in range(p) if ests[t] <= cyc.tol), None)
        emit = p if conv_t is None else conv_t + 1
        if cfg.track_loo:
            # measure only the columns the emitted iterations span;
            # candidates past a convergence signal are never used
            qn = q[i : i + emit]
            c = q[:i] @ qn.T
            d = qn @ qn.T - np.eye(emit)
            cyc.loo_sq += 2.0 * float(np.sum(c * c)) + float(np.sum(d * d))
        loo_val = math.sqrt(cyc.loo_sq)
        for t in range(emit):
            cyc.emit(float(ests[t]), loo_val, p)
        if p < s_eff:
            self.width = p
        if conv_t is None:
            return None
        return i + conv_t, float(ests[conv_t]), False


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
    cyc = _Cycle(np.empty((k + 1, len(rhs))), rhs, beta, beta, cfg, _Rows(own))
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
    Arnoldi iterations on op, unless b is zero and x0 not given.
    """
    cfg = config if config is not None else SolverConfig()
    counter = counter if counter is not None else ReductionCounter()
    needs_ritz = cfg.basis != "monomial" or cfg.use_step_estimator
    if needs_ritz and ritz is None:
        if x0 is None and not np.any(b):
            # nothing to solve: the driver returns before its first step
            return _restarted_gmres(op, b, x0, cfg, counter, None)
        ritz = ritz_harvest(op, b, cfg.initial_step, counter)

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
