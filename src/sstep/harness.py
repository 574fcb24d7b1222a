"""Experiment harness: reduction counting, manifest runs, CSV/JSON output, comparison.

A run writes two files with a common stem: a per-iteration CSV whose
header is ``CSV_HEADER`` and a JSON sidecar holding the problem echo,
solver settings, outcome, counters, and seconds per counter phase under
``timings`` (and per block, in each entry of ``result.blocks``).  CSV
contents and counters are byte-identical across reruns of the same
manifest; the sidecar is not, because it records wall time.
``ReductionCounter`` says what lies in no phase.
"""

from __future__ import annotations

import ctypes
import io
import json
import math
import numbers
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np

from .basis import RitzSet
from .estimator import DEFAULT_GROWTH_LIMIT
from .ilu import ilu0
from .sparse import (
    SparseMatrix,
    equilibrate,
    gen_diagonal,
    gen_laplace2d,
    gen_laplace3d,
    parse_matrix_market,
)

REDUCTION_KINDS = ("gram_products", "projections", "norms", "true_residual_checks")
COUNTER_KINDS = REDUCTION_KINDS + ("spmv",)
PHASES = ("harvest", "mpk", "ortho", "residual", "fallback")
CSV_HEADER = "iter,rel_res,loo,block_size,reductions_cum,spmv_cum"

try:  # glibc's; elsewhere freed memory is left to the allocator
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
except (OSError, AttributeError, TypeError):
    _malloc_trim = None


def _release_freed_memory() -> None:
    """Hand the C heap's free pages back to the operating system.

    Set-up temporaries freed below a live allocation stay resident; with
    ILU(0) on lap2d:100 that was about 1.3 MB, kept or not from one process
    to the next, which moved the solve's peak resident set by as much.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


class ReductionCounter:
    """Tallies global reduction events and operator applications by phase, and times the phases.

    Kinds: gram_products, projections, norms, true_residual_checks, spmv.
    Phases: harvest, mpk, ortho, residual, fallback.  One event is one
    synchronization, whatever its size, so a block projection and a single
    dot product both count 1.  spmv is bookkeeping, not a reduction.

    with counter.phase(name) books every event inside to name, and the
    block's wall time to seconds[name]; add's phase applies only where
    none is open.  The outermost open phase wins, so a harvest's mpk,
    ortho and fallback work stays in harvest.  Set-up is no phase: it has
    its own clock, and would swallow the scalar-equilibration harvest.
    Nor is the least-squares solve, which books no events.  No phase
    holds Hessenberg assembly, Givens rotations, iterate updates, Leja
    ordering, the change of basis, the step estimate or loo tracking.
    """

    def __init__(self):
        self._counts = {ph: dict.fromkeys(COUNTER_KINDS, 0) for ph in PHASES}
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self._open = None  # the outermost open phase

    def add(self, kind: str, phase: str, n: int = 1):
        if kind not in COUNTER_KINDS:
            raise KeyError(f"unknown counter kind '{kind}'")
        if phase not in PHASES:
            raise KeyError(f"unknown phase '{phase}'")
        self._counts[self._open or phase][kind] += int(n)

    @contextmanager
    def phase(self, name: str):
        """Book the events and the wall time of the block to name, unless a phase is open."""
        if name not in PHASES:
            raise KeyError(f"unknown phase '{name}'")
        if self._open is not None:
            yield
            return
        self._open = name
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start
            self._open = None

    def get(self, kind: str, phase: str) -> int:
        return self._counts[phase][kind]

    def kind_total(self, kind: str) -> int:
        return sum(self._counts[ph][kind] for ph in PHASES)

    def phase_reductions(self, phase: str) -> int:
        return sum(self._counts[phase][k] for k in REDUCTION_KINDS)

    def total_reductions(self) -> int:
        return sum(self.phase_reductions(ph) for ph in PHASES)

    def solve_spmv(self) -> int:
        """Operator applications outside the harvest phase."""
        return self.kind_total("spmv") - self._counts["harvest"]["spmv"]

    def as_dict(self) -> dict:
        return {ph: dict(self._counts[ph]) for ph in PHASES}


# the allowed values of every choice setting; validation and the CLI read them
CHOICES = {
    "solver": ("gmres", "adaptive"),
    "basis": ("monomial", "newton", "scaled-newton"),
    "precond": ("none", "ilu0"),
    "equilibrate": ("none", "scalar", "column"),
    "rhs": ("ones", "random"),
}


# annotated field type -> (what it takes, test); numpy scalars pass, and a
# bool counts only as a bool
_FIELD_KINDS = {
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "float": ("a real number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
    "bool": ("a bool", lambda v: isinstance(v, (bool, np.bool_))),
    "str": ("a str", lambda v: isinstance(v, str)),
    "str | None": ("a str or None", lambda v: v is None or isinstance(v, str)),
}


def _check_choice(obj, name: str):
    value = getattr(obj, name)
    if value not in CHOICES[name]:
        raise ValueError(f"unknown {name} '{value}'")


@dataclass(kw_only=True)
class SolverConfig:
    """Knobs shared by both solvers; block-specific fields are ignored by the baseline.

    basis            : basis recurrence, one of CHOICES['basis'].
    initial_step     : starting block size s0, at most restart_len for the
                       adaptive solver, whose first cycle may harvest s0 columns.
    restart_len      : Krylov columns per cycle.
    max_restarts     : extra cycles allowed after the first.
    rel_tol          : convergence target for the relative residual.
    cond_limit       : condition bound the block factorization enforces.
    growth_limit     : threshold for the a priori step-size estimate.
    use_step_estimator : when True, harvest shifts and cap the starting
                       block size at the estimate's recommendation.
    track_loo        : record basis orthogonality loss per iteration
                       (diagnostic only, never counted as reductions).

    Infinite cond_limit and growth_limit mean no limit.  Every field is
    checked by type and range when the config is built.
    """

    basis: str = "monomial"
    initial_step: int = 10
    restart_len: int = 100
    max_restarts: int = 10
    rel_tol: float = 1e-10
    cond_limit: float = 1e7
    growth_limit: float = DEFAULT_GROWTH_LIMIT
    use_step_estimator: bool = False
    track_loo: bool = False

    def __post_init__(self):
        for f in fields(self):
            kind, ok = _FIELD_KINDS.get(f.type, (None, lambda v: True))
            value = getattr(self, f.name)
            if not ok(value):
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
        _check_choice(self, "basis")
        if self.initial_step < 1:
            raise ValueError("initial_step must be positive")
        if self.restart_len < 1:
            raise ValueError("restart_len must be positive")
        if self.max_restarts < 0:
            raise ValueError("max_restarts cannot be negative")
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be positive and finite")
        if not self.cond_limit >= 1.0:
            raise ValueError("cond_limit must be at least 1")
        if not self.growth_limit > 0.0:
            raise ValueError("growth_limit must be positive")


@dataclass(kw_only=True)
class RunManifest(SolverConfig):
    """One experiment: problem, solver, and output identity.

    Takes every SolverConfig field as a keyword, and is passed to the
    solver as its config.  matrix accepts a Matrix Market path or a
    generator spec: 'diag:n:lo:hi', 'lap2d:n', 'lap3d:n'.  rhs 'ones'
    solves against b = A @ ones; 'random' against a unit vector drawn
    from seed.
    """

    matrix: str
    solver: str = "adaptive"
    precond: str = "none"
    equilibrate: str = "none"
    rhs: str = "ones"
    seed: int = 0
    label: str | None = None

    def __post_init__(self):
        super().__post_init__()
        for name in ("solver", "precond", "equilibrate", "rhs"):
            _check_choice(self, name)
        if self.solver == "adaptive" and self.initial_step > self.restart_len:
            raise ValueError("initial_step cannot exceed restart_len")
        if self.seed < 0:
            raise ValueError("seed cannot be negative")

    @property
    def stem(self) -> str:
        return self.label if self.label else f"{self.solver}-{self.basis}"


@dataclass
class RunResult:
    csv_path: str
    json_path: str
    summary: dict
    trace: object


# generator name -> (generator, field types, spec form)
_GENERATORS = {
    "diag": (gen_diagonal, (int, float, float), "diag:n:lo:hi"),
    "lap2d": (gen_laplace2d, (int,), "lap2d:n"),
    "lap3d": (gen_laplace3d, (int,), "lap3d:n"),
}


def resolve_matrix(spec: str) -> SparseMatrix:
    """Build a matrix from a generator spec or read it from a file.

    A generator spec with the wrong field count, a field that does not
    parse, an n below 1 or a non-finite value raises ValueError quoting
    the spec.
    """
    kind, *parts = spec.split(":")
    if kind not in _GENERATORS or not parts:
        return parse_matrix_market(spec)
    gen, types, form = _GENERATORS[kind]
    try:
        args = [t(v) for t, v in zip(types, parts, strict=True)]
    except ValueError:
        raise ValueError(f"{kind} spec must be {form}, got '{spec}'") from None
    if args[0] < 1 or not all(map(math.isfinite, args)):
        raise ValueError(f"{kind} spec needs n >= 1 and finite values, got '{spec}'")
    return gen(*args)


def build_rhs(a: SparseMatrix, mode: str, seed: int) -> np.ndarray:
    if mode == "ones":
        return a.matvec(np.ones(a.n))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.n)
    v /= np.linalg.norm(v)
    return v


def run_experiment(manifest: RunManifest, out_dir: str = ".") -> RunResult:
    """Execute one manifest and write its CSV and JSON files."""
    # looked up at call time: the solvers module imports this one
    from .solvers import adaptive_gmres, gmres_baseline, ritz_harvest

    t_setup = time.perf_counter()
    a = resolve_matrix(manifest.matrix)
    b = build_rhs(a, manifest.rhs, manifest.seed)
    counter = ReductionCounter()
    ritz = None
    if manifest.equilibrate == "scalar":
        # the one harvest whose basis and iterate are thrown away: it probes
        # the raw A before the system the solve iterates on exists
        raw_ritz = ritz_harvest(a.matvec, b, manifest.initial_step, counter)
        alpha = float(np.max(np.abs(raw_ritz.values)))
        a_eq, eq = equilibrate(a, "scalar", alpha)
        if manifest.precond == "none":
            # A / alpha has the Krylov space of A and Ritz values scaled by
            # 1 / alpha, and Leja order is invariant under a positive scale
            ritz = RitzSet.from_values(raw_ritz.values / alpha)
    else:
        a_eq, eq = equilibrate(a, manifest.equilibrate)
    b_eq = eq.apply_rhs(b)

    if manifest.precond == "ilu0":
        m_fac = ilu0(a_eq)

        def op(v, out):
            # A v lands in out, and the solve reads it there before writing
            return m_fac.solve(a_eq.matvec(v, out), out)

        rhs_sys = m_fac.solve(b_eq)
    else:
        op = a_eq.matvec
        rhs_sys = b_eq
    _release_freed_memory()
    setup_time = time.perf_counter() - t_setup

    t_solve = time.perf_counter()
    if manifest.solver == "adaptive":
        trace = adaptive_gmres(op, rhs_sys, config=manifest, counter=counter, ritz=ritz)
    else:
        trace = gmres_baseline(op, rhs_sys, config=manifest, counter=counter)
    solve_time = time.perf_counter() - t_solve
    trace = replace(trace, x=eq.recover_solution(trace.x))

    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, manifest.stem)
    csv_path = stem + ".csv"
    json_path = stem + ".json"

    lines = [CSV_HEADER]
    for t in range(trace.iterations):
        lines.append(
            f"{t + 1},{float(trace.residuals[t])!r},{float(trace.loo[t])!r},"
            f"{int(trace.block_size[t])},{int(trace.reductions_cum[t])},{int(trace.spmv_cum[t])}"
        )
    with open(csv_path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")

    summary = {
        "problem": {
            "matrix": manifest.matrix,
            "n": int(a.n),
            "nnz": int(a.nnz),
            "rhs": manifest.rhs,
            "seed": int(manifest.seed),
            "precond": manifest.precond,
            "equilibrate": manifest.equilibrate,
        },
        "solver": {"kind": manifest.solver,  # numpy scalar settings as plain values
                   **{f.name: np.asarray(getattr(manifest, f.name)).item()
                      for f in fields(SolverConfig)}},
        "result": {
            "converged": bool(trace.converged),
            "breakdown": bool(trace.breakdown),
            "iterations": int(trace.iterations),
            "restarts": int(trace.restarts),
            "beta0": float(trace.beta0),
            "final_relative_residual": float(trace.final_relative_residual),
            "s0_star": None if trace.s0_star is None else int(trace.s0_star),
            "block_sizes": [int(p) for p in trace.block_sizes],
            "wasted_columns": int(trace.wasted_columns),
            # harvest blocks included; last_cond is None after a fallback;
            # mpk_s and qr_s, the block's wall seconds, are parts of timings
            "blocks": [{"phase": blk.phase, "asked": int(blk.asked), "kept": int(blk.kept),
                        "stopped_by": blk.stopped_by,
                        "last_cond": float(blk.cond_trace[-1]) if len(blk.cond_trace) else None,
                        "mpk_s": blk.mpk_s, "qr_s": blk.qr_s}
                       for blk in trace.blocks],
            "loo_final": float(trace.loo[-1]) if trace.iterations and manifest.track_loo else None,
            "setup_time_s": setup_time,
            "wall_time_s": solve_time,
        },
        "counters": counter.as_dict(),
        # wall time by phase; not in counters, whose values are exact
        "timings": dict(counter.seconds),
    }
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"  # no partial file on failure
    with open(json_path, "w", encoding="ascii") as f:
        f.write(text)
    return RunResult(csv_path=csv_path, json_path=json_path, summary=summary, trace=trace)


@dataclass
class RunData:
    """One run as read back from disk."""

    iter: np.ndarray
    rel_res: np.ndarray
    loo: np.ndarray
    block_size: np.ndarray
    reductions_cum: np.ndarray
    spmv_cum: np.ndarray
    meta: dict


def load_run(run) -> RunData:
    """Read a run from a RunResult, a CSV path, or a file stem."""
    if isinstance(run, RunResult):
        csv_path, json_path = run.csv_path, run.json_path
    else:
        csv_path = run if str(run).endswith(".csv") else str(run) + ".csv"
        json_path = csv_path[:-4] + ".json"
    with open(csv_path, "r", encoding="ascii") as f:
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{csv_path}: unexpected header '{header}'")
        rest = f.read()
    if rest.strip():
        body = np.loadtxt(io.StringIO(rest), delimiter=",", ndmin=2)
    else:
        body = np.zeros((0, 6))
    meta = {}
    if os.path.exists(json_path):
        with open(json_path, "r", encoding="ascii") as f:
            meta = json.load(f)
    return RunData(
        iter=body[:, 0].astype(np.int64),
        rel_res=body[:, 1],
        loo=body[:, 2],
        block_size=body[:, 3].astype(np.int64),
        reductions_cum=body[:, 4].astype(np.int64),
        spmv_cum=body[:, 5].astype(np.int64),
        meta=meta,
    )


@dataclass
class RunComparison:
    """Per-iteration residual agreement and cost ratio of two runs."""

    max_log10_gap: float
    first_divergence: int | None
    reduction_ratio: float
    iterations: tuple


def compare_runs(a, b) -> RunComparison:
    """Compare two runs of the same problem.

    The problem echo (matrix, size, rhs, seed, preconditioner, and
    equilibration) must match; solver settings may differ.  The gap is the
    largest absolute difference of log10 residuals over the common
    iteration range; divergence is the first exact float inequality, or
    the shorter length when one trace simply stops early.
    """
    ra, rb = load_run(a), load_run(b)
    pa = ra.meta.get("problem")
    pb = rb.meta.get("problem")
    if pa is None or pb is None:
        raise ValueError("both runs need JSON sidecars to be compared")
    for key in ("matrix", "n", "rhs", "seed", "precond", "equilibrate"):
        if pa.get(key) != pb.get(key):
            raise ValueError(f"problem mismatch on '{key}': {pa.get(key)!r} vs {pb.get(key)!r}")
    k = min(len(ra.rel_res), len(rb.rel_res))
    if k == 0:
        gap = math.nan
    else:
        tiny = np.finfo(np.float64).tiny
        la = np.log10(np.maximum(ra.rel_res[:k], tiny))
        lb = np.log10(np.maximum(rb.rel_res[:k], tiny))
        gap = float(np.max(np.abs(la - lb)))
    first = None
    for t in range(k):
        if ra.rel_res[t] != rb.rel_res[t]:
            first = t
            break
    if first is None and len(ra.rel_res) != len(rb.rel_res):
        first = k
    ca = ra.meta.get("counters")
    cb = rb.meta.get("counters")
    if ca and cb:
        tot_a = sum(ca[ph][kd] for ph in ca for kd in REDUCTION_KINDS)
        tot_b = sum(cb[ph][kd] for ph in cb for kd in REDUCTION_KINDS)
        ratio = tot_a / tot_b if tot_b else math.inf
    else:
        ratio = math.nan
    return RunComparison(
        max_log10_gap=gap,
        first_divergence=first,
        reduction_ratio=ratio,
        iterations=(len(ra.rel_res), len(rb.rel_res)),
    )
