"""Workload definitions and the reference problems the solutions are checked against.

A workload is one problem and one set of solver settings; a round hands
`sstep.run_experiment` one `RunManifest` per right-hand side.  The
reference side builds the same matrix with scipy directly (never through
`sstep`), solves it with `spsolve` (or `b / d` for the diagonal), and knows
the smallest eigenvalue of the matrix's symmetric part in closed form, which
bounds `||A^-1||_2` and so turns a residual into a forward-error limit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve, spsolve_triangular

LAP2D_GRID = 100
DIAG_N, DIAG_LO, DIAG_HI = 100_000, 0.1, 10.0
# cell Peclet numbers below 1 keep central differences free of wiggles; the
# reaction term keeps restarted GMRES at three cycles, well inside both cycle
# edges, for every seed tried, so the work per solve does not jump by a cycle
CONVDIFF_GRID, PECLET_X, PECLET_Y, REACTION = 128, 0.5, 0.3, 0.12
WARM_RESTART = 12
# each round solves this many right-hand sides, so that how far one random
# right-hand side happens to need to iterate moves the figures less
RHS_PER_ROUND = 4


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str  # 'lap2d', 'diag' or 'convdiff'
    size: int  # grid side, or matrix order for 'diag'
    warm_size: int
    solver: str
    basis: str
    initial_step: int
    restart_len: int
    precond: str = "none"
    use_step_estimator: bool = False
    rel_tol: float = 1e-10
    # expected shape of the adaptation, checked on every solve
    first_block: int | None = None
    needs_conjugate_pair: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lap2d-ilu-wide", "lap2d", LAP2D_GRID, 12, "adaptive", "scaled-newton",
                 LAP2D_GRID, LAP2D_GRID, precond="ilu0", first_block=LAP2D_GRID),
        Workload("lap2d-ilu-gmres", "lap2d", LAP2D_GRID, 12, "gmres", "monomial",
                 LAP2D_GRID, LAP2D_GRID, precond="ilu0"),
        # rel_tol 2e-10 puts convergence inside a block for every seed; at
        # 1e-10 it sits on a block edge and the block count flips by one
        Workload("diag-monomial", "diag", DIAG_N, 2000, "adaptive", "monomial", 10, 100,
                 rel_tol=2e-10, first_block=6),
        Workload("convdiff-mtx-newton", "convdiff", CONVDIFF_GRID, 12, "adaptive",
                 "scaled-newton", 100, 100, use_step_estimator=True,
                 needs_conjugate_pair=True),
    )
}


def _tridiag(n: int, lower: float, diag: float, upper: float) -> sp.spmatrix:
    return sp.diags([np.full(n - 1, lower), np.full(n, diag), np.full(n - 1, upper)],
                    [-1, 0, 1])


def reference_matrix(problem: str, size: int) -> sp.csr_matrix:
    if problem == "diag":
        return sp.diags(np.linspace(DIAG_LO, DIAG_HI, size)).tocsr()
    eye = sp.identity(size)
    if problem == "lap2d":
        t = _tridiag(size, -1.0, 2.0, -1.0)
        return (sp.kron(eye, t) + sp.kron(t, eye)).tocsr()
    tx = _tridiag(size, -1.0 - PECLET_X, 2.0 + REACTION, -1.0 + PECLET_X)
    ty = _tridiag(size, -1.0 - PECLET_Y, 2.0, -1.0 + PECLET_Y)
    return (sp.kron(eye, tx) + sp.kron(ty, eye)).tocsr()


def smallest_symmetric_eigenvalue(problem: str, size: int) -> float:
    """lambda_min of (A + A^T) / 2; a lower bound on sigma_min(A)."""
    if problem == "diag":
        return DIAG_LO
    lap = 8.0 * math.sin(math.pi / (2.0 * (size + 1))) ** 2
    return lap if problem == "lap2d" else lap + REACTION


def write_matrix_market(a: sp.spmatrix, path: str):
    coo = a.tocoo()
    with open(path, "w", encoding="ascii") as f:
        f.write("%%MatrixMarket matrix coordinate real general\n")
        f.write(f"{a.shape[0]} {a.shape[1]} {coo.nnz}\n")
        np.savetxt(f, np.column_stack([coo.row + 1, coo.col + 1, coo.data]), fmt="%d %d %.17g")


def matrix_spec(w: Workload, size: int, work_dir: str) -> str:
    """The --matrix argument; convdiff goes through a Matrix Market file."""
    if w.problem == "diag":
        return f"diag:{size}:{DIAG_LO}:{DIAG_HI}"
    if w.problem == "lap2d":
        return f"lap2d:{size}"
    path = os.path.join(work_dir, f"convdiff{size}.mtx")
    write_matrix_market(reference_matrix("convdiff", size), path)
    return path


def rhs_seeds(seed: int) -> list:
    """Seeds of the right-hand sides one round solves; distinct across --seed values."""
    return [seed * RHS_PER_ROUND + k for k in range(RHS_PER_ROUND)]


def _kwargs(w: Workload, spec: str, cap: int, seed: int, label: str) -> dict:
    return dict(matrix=spec, solver=w.solver, basis=w.basis,
                initial_step=min(w.initial_step, cap), restart_len=min(w.restart_len, cap),
                precond=w.precond, use_step_estimator=w.use_step_estimator, rel_tol=w.rel_tol,
                rhs="random", seed=seed, label=label)


def manifest_kwargs(w: Workload, seed: int, work_dir: str) -> list:
    """Manifest fields for each right-hand side of a round."""
    spec = matrix_spec(w, w.size, work_dir)
    return [_kwargs(w, spec, w.restart_len, s, f"{w.name}-rhs{k}")
            for k, s in enumerate(rhs_seeds(seed))]


def warm_kwargs(w: Workload, seed: int, work_dir: str) -> dict:
    """A small problem that takes the same code paths as the workload."""
    return _kwargs(w, matrix_spec(w, w.warm_size, work_dir), WARM_RESTART, seed, f"{w.name}-warm")


def random_rhs(n: int, seed: int) -> np.ndarray:
    """The documented meaning of rhs='random': a seeded standard-normal unit vector."""
    v = np.random.default_rng(seed).standard_normal(n)
    return v / np.linalg.norm(v)


def norm2_bound(a: sp.spmatrix) -> float:
    """sqrt(||A||_1 ||A||_inf) >= ||A||_2."""
    a = abs(a)
    return math.sqrt(float(a.sum(axis=0).max()) * float(a.sum(axis=1).max()))


class Ilu0Lap2d:
    """ILU(0) of the 5-point Laplacian in closed form.

    With the 5-point stencil in natural order, ILU(0) keeps A's off-diagonal
    entries and only changes the pivots: d_i = 4 - 1/d_{i-1} - 1/d_{i-N},
    each term present when that neighbour exists.  L = I + tril(A, -1) D^-1,
    U = D + triu(A, 1).
    """

    def __init__(self, a: sp.csr_matrix, grid: int):
        n = a.shape[0]
        d = np.empty(n)
        for i in range(n):
            di = 4.0
            if i % grid:
                di -= 1.0 / d[i - 1]
            if i >= grid:
                di -= 1.0 / d[i - grid]
            d[i] = di
        self.l = (sp.identity(n) + sp.tril(a, -1) @ sp.diags(1.0 / d)).tocsr()
        self.u = (sp.triu(a, 1) + sp.diags(d)).tocsr()
        self.norm2 = norm2_bound(self.l @ self.u)

    def solve(self, v: np.ndarray) -> np.ndarray:
        y = spsolve_triangular(self.l, v, lower=True, unit_diagonal=True)
        return spsolve_triangular(self.u, y, lower=False)


@dataclass
class Reference:
    a: sp.csr_matrix
    b: np.ndarray
    x: np.ndarray
    lam_min: float
    norm_a: float
    precond: Ilu0Lap2d | None


def build_references(w: Workload, seed: int) -> list:
    """One reference per right-hand side of a round; the matrices are shared."""
    a = reference_matrix(w.problem, w.size)
    pre = Ilu0Lap2d(a, w.size) if w.precond == "ilu0" else None
    lam, norm_a = smallest_symmetric_eigenvalue(w.problem, w.size), norm2_bound(a)
    refs = []
    for s in rhs_seeds(seed):
        b = random_rhs(a.shape[0], s)
        x = b / a.diagonal() if w.problem == "diag" else spsolve(a.tocsc(), b)
        refs.append(Reference(a, b, x, lam, norm_a, pre))
    return refs
