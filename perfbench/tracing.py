"""Timing hooks installed from outside the program, at its module boundaries.

`Probe` stamps the solver call inside `run_experiment`, so the untraced
pass can split a run into set-up, solve and output at the cost of one
wrapper call, and keeps the Ritz set a harvest returns.  `Tracer` wraps every public function a solve passes through
and keeps, per layer, the self time (span duration minus the time covered
by its child spans), the call count and a few returned sizes.  Both patch
the module attribute the caller looks the function up on, and put the
original back on exit.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import sstep.basis
import sstep.blockqr
import sstep.harness
import sstep.solvers
from sstep.dense import GivensLs
from sstep.ilu import ILU0
from sstep.sparse import SparseMatrix


@contextlib.contextmanager
def patched(patches):
    """Set (owner, attribute, replacement) triples for the duration of a block."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


class Probe:
    """Stamps the solver call and keeps the Ritz set the solve harvested."""

    def __init__(self):
        self.enter = self.leave = None
        self.ritz = None

    def _stamp(self, fn):
        def call(*args, **kwargs):
            self.enter = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave = time.perf_counter()
        return call

    def _keep(self, fn):
        def call(*args, **kwargs):
            self.ritz = fn(*args, **kwargs)
            return self.ritz
        return call

    def patches(self):
        s = sstep.solvers
        return [(s, "adaptive_gmres", self._stamp(s.adaptive_gmres)),
                (s, "gmres_baseline", self._stamp(s.gmres_baseline)),
                (s, "ritz_harvest", self._keep(s.ritz_harvest))]


class Tracer:
    """Self time and call count per layer, plus column counts of the block steps."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.generated = 0  # candidate columns out of matrix_powers
        self.accepted = 0  # columns kept by bcgs2_partial_cholqr
        self._stack = []

    def wrap(self, name, fn, on_return=None):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self.self_s[name] += dur - stack.pop()
                self.calls[name] += 1
                if stack:
                    stack[-1] += dur
            if on_return is not None:
                on_return(out)
            return out
        return traced

    def _count_generated(self, blk):
        self.generated += blk.ncols

    def _count_accepted(self, outcome):
        self.accepted += outcome.p

    def patches(self):
        s, h, b, q = sstep.solvers, sstep.harness, sstep.basis, sstep.blockqr
        w = self.wrap
        return [
            (SparseMatrix, "__post_init__", w("sparse.build", SparseMatrix.__post_init__)),
            (SparseMatrix, "matvec", w("sparse.matvec", SparseMatrix.matvec)),
            (h, "parse_matrix_market", w("sparse.parse", h.parse_matrix_market)),
            (h, "ilu0", w("ilu.factor", h.ilu0)),
            (ILU0, "solve", w("ilu.apply", ILU0.solve)),
            (s, "ritz_harvest", w("solvers.harvest", s.ritz_harvest)),
            (s, "gmres_baseline", w("solvers.baseline", s.gmres_baseline)),
            (s, "adaptive_gmres", w("solvers.adaptive", s.adaptive_gmres)),
            (s, "assemble_hessenberg", w("solvers.assemble", s.assemble_hessenberg)),
            (s, "matrix_powers", w("basis.mpk", s.matrix_powers, self._count_generated)),
            (b, "leja_order", w("basis.leja", b.leja_order)),
            (s, "build_change_of_basis", w("basis.cob", s.build_change_of_basis)),
            (s, "bcgs2_partial_cholqr",
             w("blockqr", s.bcgs2_partial_cholqr, self._count_accepted)),
            (q, "partial_cholesky", w("dense.partial_cholesky", q.partial_cholesky)),
            (GivensLs, "append", w("dense.lsq", GivensLs.append)),
            (GivensLs, "solve", w("dense.lsq", GivensLs.solve)),
            (s, "hessenberg_eigenvalues", w("dense.hessenberg_eig", s.hessenberg_eigenvalues)),
            (s, "estimate_initial_step", w("estimator.step", s.estimate_initial_step)),
        ]

    def metrics(self) -> dict:
        """Per-layer values of one traced solve, keyed by metric name."""
        t, c = self.self_s, self.calls
        blocks = c["blockqr"]
        return {
            "sparse.build_s": t["sparse.build"],
            "sparse.parse_s": t["sparse.parse"],
            "sparse.matvec_s": t["sparse.matvec"],
            "sparse.matvec_calls": c["sparse.matvec"],
            "ilu.factor_s": t["ilu.factor"],
            "ilu.apply_s": t["ilu.apply"],
            "ilu.apply_calls": c["ilu.apply"],
            "solvers.harvest_self_s": t["solvers.harvest"],
            "solvers.baseline_self_s": t["solvers.baseline"],
            "solvers.adaptive_self_s": t["solvers.adaptive"],
            "solvers.assemble_s": t["solvers.assemble"],
            "basis.mpk_self_s": t["basis.mpk"],
            "basis.leja_s": t["basis.leja"],
            "basis.cob_s": t["basis.cob"],
            "basis.accepted_ratio": self.accepted / self.generated if self.generated else 0.0,
            "blockqr.self_s": t["blockqr"],
            "blockqr.calls": blocks,
            "blockqr.mean_width": self.accepted / blocks if blocks else 0.0,
            "dense.partial_cholesky_s": t["dense.partial_cholesky"],
            "dense.lsq_s": t["dense.lsq"],
            "dense.hessenberg_eig_s": t["dense.hessenberg_eig"],
            "estimator.step_s": t["estimator.step"],
        }
