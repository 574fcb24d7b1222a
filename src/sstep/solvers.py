"""Restarted GMRES solvers: a column-at-a-time baseline and the adaptive block variant.

Both run through one restart-cycle driver and differ only in the step
that extends a cycle's basis: one modified Gram-Schmidt column for the
baseline; for the adaptive solver a block (matrix powers, condition-limited
block QR, Hessenberg assembly) that falls back to the same column step.  The
Ritz harvest runs that block step on one cycle that widens itself: a
monomial first block, then scaled Newton blocks on the cycle's own Ritz
values, each asking twice the last kept width.  Inside an adaptive solve
that cycle is the solve's first, and its iterate is kept.

Both take the operator as a callable and the right-hand side of the system
actually iterated on, i.e. preconditioning and scaling are folded in by the
caller.  Residual norms in traces are therefore preconditioned residuals,
reported relative to the first cycle's starting norm.  The operator is
op(v, out): it writes A v into out, a C-contiguous float64 n-vector that
does not overlap v, and returns out.  It is handed the basis row or
residual buffer its result belongs in; one that returns anything else
raises ValueError.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .basis import (OPERATOR_CONTRACT, RitzSet, build_change_of_basis, matrix_powers,
                    newton_scalings)
from .blockqr import bcgs2_partial_cholqr, project
from .dense import BreakdownError, GivensLs, hessenberg_eigenvalues, negligible
from .estimator import estimate_initial_step
from .harness import ReductionCounter, SolverConfig


@dataclass
class BlockRecord:
    """One block of the adaptive step.

    phase      : 'harvest' for a block of the Ritz harvest, else 'solve'.
    asked      : candidate columns the block generated.
    kept       : columns the block QR kept; 0 when the block fell back to
                 one modified Gram-Schmidt column.
    stopped_by : the block QR's stop reason (BlockQrOutcome.stopped_by),
                 or 'breakdown' for a block that fell back.
    cond_trace : the block QR's first-pass condition values (empty after
                 a fallback).
    mpk_s, qr_s : wall seconds of the block's matrix powers and of its
                 block QR (up to the breakdown, for a block that fell back);
                 not compared, since they differ from run to run.
    """

    phase: str
    asked: int
    kept: int
    stopped_by: str
    cond_trace: np.ndarray
    mpk_s: float = field(compare=False)
    qr_s: float = field(compare=False)


@dataclass
class SolveTrace:
    """Everything observable about one solve.

    Per-iteration arrays share one index: entry t describes the t-th
    least-squares column.  block_size holds the width of the block that
    produced each column (1 for the baseline and fallback steps).  blocks
    has one BlockRecord per adaptive block, the harvest's included;
    block_sizes and wasted_columns are read from the solve blocks alone.
    restarts counts solve cycles: a harvest cycle is not a restart.  s0_star
    is the step estimate, when one ran.  beta0 is ||r0||, and
    final_relative_residual is ||b - A x|| / ||r0|| of the returned x (0
    when r0 = 0).
    """

    converged: bool
    x: np.ndarray
    iterations: int
    residuals: np.ndarray
    loo: np.ndarray
    block_size: np.ndarray
    reductions_cum: np.ndarray
    spmv_cum: np.ndarray
    counter: ReductionCounter
    beta0: float
    final_relative_residual: float
    restarts: int
    breakdown: bool
    blocks: list
    s0_star: int | None

    @property
    def block_sizes(self) -> list:
        return [blk.kept for blk in self.blocks if blk.phase == "solve" and blk.kept > 0]

    @property
    def wasted_columns(self) -> int:
        return sum(blk.asked - blk.kept for blk in self.blocks if blk.phase == "solve")


def _real_vector(name: str, v, n: int | None = None) -> np.ndarray:
    """v as a float64 array; ValueError naming it unless it is a real 1-D array of length n."""
    v = np.asarray(v)
    if v.dtype.kind not in "biuf" or v.ndim != 1 or n not in (None, len(v)):
        want = "" if n is None else f" of length {n}"
        raise ValueError(f"{name} must be a real 1-D array{want}, got {v.dtype} of shape {v.shape}")
    return v.astype(np.float64, copy=False)


def _counted(op, counter: ReductionCounter):
    """op, booking one spmv per apply and refusing a result that is not out."""
    def apply(v, out):
        counter.add("spmv")
        if op(v, out) is not out:
            raise ValueError(OPERATOR_CONTRACT)
        return out

    return apply


class _Cycle:
    """Basis, Hessenberg matrix and least-squares state of one restart cycle.

    A step extends the basis q[:ncols + 1] by one or more vectors, appends
    the matching Hessenberg columns to ls and hands their residual
    estimates to record.  op is the solve's operator, op(v, out), which
    books each apply on counter.  q is the solve's basis storage, a C-order
    (m + 1) x n array with one Krylov vector per contiguous row, overwritten
    row by row.  rows collects one trace tuple (rel_res, loo,
    width, reductions_cum, spmv_cum) per least-squares column and blocks
    one BlockRecord per block; both belong to the solve, across cycles.
    signal is the step's last answer: None, or (k, est, exhausted).
    """

    def __init__(self, q: np.ndarray, r: np.ndarray, beta: float, beta0: float,
                 cfg: SolverConfig, counter: ReductionCounter, op, rows: list, blocks: list):
        m = cfg.restart_len
        self.q = q
        np.divide(r, beta, out=q[0])
        self.h = np.zeros((m + 1, m))
        self.ls = GivensLs(m, beta)
        self.loo_sq = 0.0
        self.beta0 = beta0
        self.tol = cfg.rel_tol * beta0  # what a least-squares estimate must meet
        self.cfg = cfg
        self.counter = counter
        self.op = op
        self.rows = rows
        self.blocks = blocks
        self.signal = None

    def update(self, k: int) -> np.ndarray:
        """The iterate update of the least-squares solution on the first k columns.

        Formed in basis row q[k].  The cycle ends with its update, so from
        then on every basis row is free until the next cycle starts.
        """
        return np.matmul(self.ls.solve(k), self.q[:k], out=self.q[k])

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

    (x, r, beta) is the iterate state: r = b - A x and beta = ||r|| of the
    current x.  Each residual is formed once, with its norm: the first
    before the loop, the end point's after a full cycle, x_new's at a
    confirmation.  Everything else reads the state; the final relative
    residual is beta / beta0.  A b or x0 that is not a real vector, or a
    first residual whose norm is not finite, raises ValueError.

    step(cycle) extends the cycle's basis and returns None to go on, or a
    signal (k, est, exhausted): solve on the first k columns, whose
    residual estimate is est, and confirm.  exhausted marks a Krylov
    space that cannot grow; one exhausted at its first column (k = 0) has
    nothing to confirm.  step.width is the step's current block width.
    step.start(r, cycle) sees the first residual and its cycle.  When
    step.harvests, that first cycle is the Ritz harvest's: start fills it
    and leaves its signal in cycle.signal, and the driver ends it like any
    other cycle, keeping its iterate.  The harvest cycle is not a restart,
    and it never ends the solve as a breakdown: the solve cycles follow it.
    The trace takes step.s0_star.  A confirmation that neither converges
    nor improves on the cycle start ends the solve as a breakdown when the
    space was exhausted or the width did not change during the cycle, since
    the restarted cycle would repeat this one exactly.  A kept confirmation
    starts a different cycle, so the solve restarts from it, exhausted
    space or not.
    """
    b = _real_vector("b", b)
    op = _counted(op, counter)

    def residual(x, out):
        """b - A x, formed in out, and its norm; b for the zero start x = None."""
        with counter.phase("residual"):
            if x is None:
                np.copyto(out, b)
            else:
                np.subtract(b, op(x, out), out=out)
            counter.add("norms")
            return out, float(np.linalg.norm(out))

    x = np.zeros(len(b)) if x0 is None else _real_vector("x0", x0, len(b)).copy()
    with np.errstate(over="ignore"):  # an overflowing norm is refused next
        r, beta = residual(None if x0 is None else x, np.empty(len(b)))
    if not math.isfinite(beta):
        raise ValueError(f"the first residual {'b' if x0 is None else 'b - A x0'} has norm "
                         f"{beta}: it holds inf or NaN, or its norm overflows")
    beta0 = beta

    # one basis for all cycles, one vector per row: a cycle reads only the
    # rows it wrote
    q = np.empty((cfg.restart_len + 1, len(b)))
    rows, blocks = [], []
    converged = breakdown = False
    first = -1 if step.harvests else 0  # cycle -1 is the harvest's
    for cycle in range(first, cfg.max_restarts + 1):  # restarts = max(cycle, 0) after the loop
        if beta <= cfg.rel_tol * beta0:  # also a zero first residual
            converged = True
            break
        cyc = _Cycle(q, r, beta, beta0, cfg, counter, op, rows, blocks)
        if cycle == first:
            step.start(r, cyc)
        width = step.width
        while cycle >= 0 and cyc.ls.ncols < cfg.restart_len and cyc.signal is None:
            cyc.signal = step(cyc)
        if cyc.signal is None:
            # full cycle without a convergence signal: advance the iterate,
            # and form its residual over the last one, which no one reads again
            x += cyc.update(cyc.ls.ncols)
            r, beta = residual(x, r)
            continue
        k, est, exhausted = cyc.signal
        kept = False
        if k > 0:
            # confirm against the true residual; the update is kept only when it
            # converges or improves on the cycle start, since a least-squares
            # solve that crossed a near-dependent column can hand back a worse
            # point; x_new and its residual are formed in basis rows, which the
            # ended cycle no longer reads, and copied into the state when kept
            x_new = np.add(x, cyc.update(k), out=cyc.q[k])
            with counter.phase("residual"):
                counter.add("true_residual_checks")
                r_new, beta_new = residual(x_new, cyc.q[0])
            # the 10x allowance on the estimate applies only to an estimate that
            # met the tolerance; an exhausted space above it is not convergence
            converged = beta_new <= (max(10.0 * est, cyc.tol) if est <= cyc.tol else cyc.tol)
            kept = converged or beta_new < beta
            if kept:
                x[...], r[...], beta = x_new, r_new, beta_new
        if converged:
            break
        if cycle >= 0 and not kept and (exhausted or step.width == width):
            breakdown = True
            break
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
        counter=counter,
        beta0=beta0,
        final_relative_residual=beta / beta0 if beta0 > 0.0 else 0.0,
        restarts=max(cycle, 0),
        breakdown=breakdown,
        blocks=blocks,
        s0_star=step.s0_star,
    )


class _ColumnStep:
    """One modified Gram-Schmidt column: the baseline step and the block fallback.

    Projects op(q[i - 1]) against q[:i] one row at a time into Hessenberg
    column i - 1.  A remaining norm at roundoff level of ||op(q[i - 1])||
    marks a dependent column: it is stored as 0 and ends the cycle.
    """

    width = 1
    harvests = False
    s0_star = None

    def start(self, r: np.ndarray, cyc: _Cycle) -> None:
        """A column step needs no shifts."""

    def __call__(self, cyc: _Cycle):
        q, ls, counter = cyc.q, cyc.ls, cyc.counter
        i = ls.ncols + 1
        hcol = cyc.h[: i + 1, i - 1]
        with counter.phase("mpk"):
            w = cyc.op(q[i - 1], q[i])  # projected and normalized in place
        with counter.phase("ortho"):
            counter.add("projections", i)
            for t in range(i):
                hcol[t] = float(q[t] @ w)
                w -= hcol[t] * q[t]
            counter.add("norms")
            nrm = float(np.linalg.norm(w))
        # ||op(q[i - 1])|| rebuilt from the coefficients, without a reduction
        if negligible(nrm, i, math.sqrt(float(hcol[:i] @ hcol[:i]) + nrm * nrm)):
            nrm = 0.0
        hcol[i] = nrm
        if nrm != 0.0:
            w /= nrm
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

    width is the adapted block size, capped by start at the step estimate;
    in a solve it shrinks to the accepted width whenever the block QR keeps
    fewer columns than the block asked for, whatever its stop reason.  In
    the harvest it is twice the last accepted width, so the harvest widens
    itself until the room left in its cycle or the condition limit cuts it.
    The harvest's step takes its shifts from its own cycle: the
    Leja-ordered Ritz values of the cycle's Hessenberg matrix so far.  Where
    the cycle has none that the scaled Newton basis can use, the block is
    monomial, and so is every solve block when the harvested or given
    shifts are not usable.  Each block appends its BlockRecord, tagged with
    phase, to the cycle's blocks.  A block that yields no usable column
    falls back to one modified Gram-Schmidt column.  harvests is True when
    the shifts or the step estimate need a Ritz harvest that was not given.
    """

    def __init__(self, cfg: SolverConfig, ritz: RitzSet | None, phase: str = "solve"):
        self.fallback = _ColumnStep()
        self.cfg = cfg
        self.ritz = ritz
        self.phase = phase
        self.harvests = ritz is None and (cfg.basis != "monomial" or cfg.use_step_estimator)
        self.width = cfg.initial_step
        self.s0_star = None

    def start(self, r: np.ndarray, cyc: _Cycle) -> None:
        """Harvest in the first cycle cyc, from its residual r, when needed; cap width at the step estimate.

        Shifts that a scaled Newton basis cannot use (_scalable) are
        dropped: the solve blocks then run monomial, and no step estimate
        is made.
        """
        cfg = self.cfg
        if self.harvests:
            self.ritz = ritz_harvest(cyc.op, r, cfg.initial_step, cyc.counter, cycle=cyc)
        if self.ritz is not None and not _scalable(self.ritz.values):
            self.ritz = None
        if cfg.use_step_estimator and self.ritz is not None:
            self.s0_star = estimate_initial_step(self.ritz, cfg.growth_limit).s0_star
            self.width = min(self.width, self.s0_star)

    def __call__(self, cyc: _Cycle):
        cfg, q, ls, counter = self.cfg, cyc.q, cyc.ls, cyc.counter
        i = ls.ncols + 1
        s_eff = min(self.width, cfg.restart_len - i + 1)
        ritz = _leading_ritz(cyc.h, i - 1) if self.phase == "harvest" else self.ritz
        basis = "monomial" if ritz is None else cfg.basis
        shifts = None if basis == "monomial" else ritz.cycled(s_eff)
        cob = build_change_of_basis(basis, s_eff, shifts)
        # built in the basis rows it will occupy, which fit: s_eff <= m - i + 1;
        # each clock reads inside its phase, so a block's seconds are part of it
        with counter.phase("mpk"):
            t0 = time.perf_counter()
            blk = matrix_powers(cyc.op, q[i - 1 : i + s_eff], cob)
            mpk_s = time.perf_counter() - t0
        with counter.phase("ortho"):
            t0 = time.perf_counter()
            try:
                outcome = bcgs2_partial_cholqr(q[:i], blk.v, cfg.cond_limit, counter=counter)
            except BreakdownError:
                outcome = None
            qr_s = time.perf_counter() - t0
        if outcome is None:
            cyc.blocks.append(BlockRecord(self.phase, s_eff, 0, "breakdown", np.empty(0),
                                          mpk_s, qr_s))
            with counter.phase("fallback"):
                return self.fallback(cyc)
        p = outcome.p
        cyc.blocks.append(BlockRecord(self.phase, s_eff, p, outcome.stopped_by, outcome.cond_trace,
                                      mpk_s, qr_s))

        h_blk = assemble_hessenberg(outcome.r_hat, cob.dense(), cyc.h[:i, : i - 1])
        cyc.h[: i + p, i - 1 : i - 1 + p] = h_blk
        ests = ls.append(h_blk)
        if self.phase == "harvest":
            self.width = 2 * p
        elif p < s_eff:
            self.width = p
        return cyc.record(i, ests, p)


def _scalable(values) -> bool:
    """Whether a scaled Newton basis can use these shift values.

    Not when every value is zero, or when every value lies on its scaling
    floor (newton_scalings), as a single value always does.
    """
    return bool(np.any(values)) and newton_scalings(values)[3] < len(values)


def _leading_ritz(h: np.ndarray, k: int) -> RitzSet | None:
    """The Ritz values of the leading k x k block of h, where a scaled Newton basis can use them.

    None for k = 0, and when the values are not _scalable.
    """
    if k == 0:
        return None
    values = hessenberg_eigenvalues(h, k)
    return RitzSet.from_values(values) if _scalable(values) else None


def ritz_harvest(op, rhs: np.ndarray, k: int, counter: ReductionCounter | None = None,
                 cycle: _Cycle | None = None) -> RitzSet:
    """Run k Arnoldi steps from rhs/||rhs|| and return the ordered Ritz values.

    The Arnoldi process is the block solver's own step on one cycle of k
    columns that widens itself: a monomial first block of SolverConfig's
    default initial_step, then scaled Newton blocks on the cycle's own Ritz
    values (Bai, Hu & Reichel, IMA J. Numer. Anal. 1994), each asking twice
    the last kept width (Imberti & Erhel, ETNA 2017).  It stops at k columns
    or at a Krylov space exhausted at column j < k, and then returns the j
    values available.  All costs are attributed to the 'harvest' phase.

    cycle, given only by an adaptive solve, is the solve's first cycle,
    started from rhs, its first residual, by the driver, which also normed
    it, and op, counter and the condition limit are the cycle's.  The
    harvest then fills that cycle's basis, Hessenberg matrix, least-squares
    state, trace rows and block records, stops early also on the cycle's
    tolerance, and leaves its signal in cycle.signal, so that the driver
    keeps its iterate.  Standalone, the harvest builds a cycle of its own,
    under SolverConfig's default condition limit, and keeps none of it but
    the Ritz values.
    """
    if k < 1:
        raise ValueError("k must be positive")
    counter = counter if counter is not None else ReductionCounter()
    limit = SolverConfig.cond_limit if cycle is None else cycle.cfg.cond_limit
    cfg = SolverConfig(basis="scaled-newton", restart_len=k, cond_limit=limit)
    step = _BlockStep(cfg, None, "harvest")
    with counter.phase("harvest"):
        if cycle is None:
            rhs = _real_vector("rhs", rhs)
            counter.add("norms")
            with np.errstate(over="ignore"):  # an overflowing norm is refused below
                beta = float(np.linalg.norm(rhs))
            if beta == 0.0:
                raise ValueError("cannot harvest from a zero vector")
            if not math.isfinite(beta):
                raise ValueError(f"cannot harvest from rhs of norm {beta}: it holds inf or NaN, "
                                 "or its norm overflows")
            cycle = _Cycle(np.empty((k + 1, len(rhs))), rhs, beta, beta, cfg, counter,
                           _counted(op, counter), [], [])
            cycle.tol = -math.inf  # never stop on the least-squares estimate
        while cycle.ls.ncols < k and cycle.signal is None:
            i = cycle.ls.ncols + 1
            cycle.signal = step(cycle)
        # Hessenberg column i closes an exhausted space, also when the
        # least-squares state could not take it
        return RitzSet.from_values(hessenberg_eigenvalues(cycle.h, max(cycle.ls.ncols, i)))


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
    return _restarted_gmres(op, b, x0, cfg, counter, _ColumnStep())


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
    when needed and not given it is harvested with initial_step Arnoldi
    iterations on op from the driver's first residual, and that harvest is
    the solve's first cycle: its iterate is kept, and it is not a restart.

    op is op(v, out): it writes A v into out and returns out.  It is
    handed the basis row or residual vector its result belongs in, so the
    matrix powers kernel allocates no n-vector per step.  An op that
    returns anything but out raises ValueError.
    """
    cfg = config if config is not None else SolverConfig()
    if cfg.initial_step > cfg.restart_len:  # the harvest cycle must fit the basis
        raise ValueError("initial_step cannot exceed restart_len")
    counter = counter if counter is not None else ReductionCounter()
    return _restarted_gmres(op, b, x0, cfg, counter, _BlockStep(cfg, ritz))
