"""Correctness checks on one solve: against the reference, and properties of the method.

Tolerances come from the manifest's rel_tol and the problem, never from
earlier output.  The solver stops once a true (preconditioned) residual is
at most 10x its least-squares estimate, and that estimate is below
rel_tol, so 10 rel_tol bounds the residual of the system it iterates on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from workloads import Reference, Workload

EPS = float(np.finfo(np.float64).eps)
ACCEPT_FACTOR = 10.0


@dataclass
class Check:
    name: str
    ok: bool
    detail: str
    limit: float | None = None


def _bound(name: str, value: float, limit: float) -> Check:
    return Check(name, bool(value <= limit), f"{value:.3e} <= {limit:.3e}", limit)


def solution_checks(ref: Reference, x: np.ndarray, rel_tol: float) -> list:
    """Residual and forward error of x, recomputed with the reference matrices.

    Unpreconditioned:  ||b - A x|| / ||b|| <= 10 rel_tol, plus the roundoff
    of recomputing the residual.  With ILU(0), the solver bounds
    ||M^-1 r|| / ||M^-1 b|| by 10 rel_tol, so ||r|| / ||b|| is at most
    10 rel_tol ||M|| ||M^-1 b|| / ||b||.  Forward error: x - x* = -A^-1 r
    and ||A^-1||_2 <= 1 / lambda_min((A + A^T) / 2), plus the roundoff of
    x* itself, 10 kappa eps.
    """
    accept = ACCEPT_FACTOR * rel_tol
    r = ref.b - ref.a @ x
    nb = float(np.linalg.norm(ref.b))
    nr = float(np.linalg.norm(r))
    roundoff = 10.0 * EPS * (ref.norm_a * float(np.linalg.norm(x)) + nb) / nb
    checks = []
    if ref.precond is None:
        tol_r = accept + roundoff
    else:
        mb = float(np.linalg.norm(ref.precond.solve(ref.b)))
        mr = float(np.linalg.norm(ref.precond.solve(r)))
        checks.append(_bound("preconditioned_residual", mr / mb, accept))
        tol_r = accept * ref.precond.norm2 * mb / nb + roundoff
    checks.append(_bound("residual", nr / nb, tol_r))
    nx = float(np.linalg.norm(ref.x))
    kappa = ref.norm_a / ref.lam_min
    tol_x = tol_r * nb / (ref.lam_min * nx) + 10.0 * kappa * EPS
    checks.append(_bound("forward_error", float(np.linalg.norm(x - ref.x)) / nx, tol_x))
    return checks


def perturbed_solution_rejected(ref: Reference, x: np.ndarray, rel_tol: float) -> Check:
    """Shift x by ten times the forward-error limit along a fixed random direction.

    ||A e|| >= lambda_min for a unit e, so the shifted residual exceeds nine
    times its limit as well: every check must reject it.
    """
    limit = solution_checks(ref, x, rel_tol)[-1].limit
    e = np.random.default_rng(12345).standard_normal(len(x))
    e *= 10.0 * limit * float(np.linalg.norm(ref.x)) / float(np.linalg.norm(e))
    bad = solution_checks(ref, x + e, rel_tol)
    rejected = [c.name for c in bad if not c.ok]
    return Check("perturbed_solution_rejected", len(rejected) == len(bad),
                 f"rejected by {rejected or 'none'}")


def read_csv(path: str) -> np.ndarray:
    """Rows of iter, rel_res, loo, block_size, reductions_cum, spmv_cum."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _ortho_reductions(counters: dict) -> int:
    ph = counters["ortho"]
    return ph["gram_products"] + ph["projections"] + ph["norms"] + ph["true_residual_checks"]


def property_checks(w: Workload, summary: dict, rows: np.ndarray, ritz) -> list:
    """What the method promises, read from the CSV, the sidecar and the harvested shifts."""
    res = summary["result"]
    m = summary["solver"]["restart_len"]
    blocks = res["block_sizes"]
    ortho = _ortho_reductions(summary["counters"])
    n_rows = len(rows)
    checks = [
        Check("converged", res["converged"] and not res["breakdown"],
              f"converged={res['converged']} breakdown={res['breakdown']}"),
        Check("csv_rows", n_rows == res["iterations"],
              f"{n_rows} rows for {res['iterations']} iterations"),
    ]
    # the least-squares residual estimate of GMRES never grows within a cycle
    est = rows[:, 1]
    rising = [t for t in range(1, n_rows) if t % m and est[t] > est[t - 1]]
    checks.append(Check("ls_estimates_nonincreasing", not rising,
                        f"rises at rows {rising[:5]}" if rising else f"{n_rows} rows"))
    if w.solver == "adaptive":
        checks.append(Check("ortho_is_4_per_block", ortho == 4 * len(blocks),
                            f"{ortho} ortho reductions, {len(blocks)} blocks"))
        # block widths add up to the restart length in every full cycle
        filled, acc = [], 0
        for p in blocks:
            acc += p
            if acc >= m:
                filled.append(acc)
                acc = 0
        cycles = res["restarts"] + 1
        checks.append(Check("blocks_tile_cycles",
                            all(c == m for c in filled) and len(filled) + (acc > 0) == cycles,
                            f"blocks {blocks} in {cycles} cycles of {m}"))
    else:
        # column j of a cycle (0-based) sees j + 1 basis vectors: j + 1
        # projections and one norm
        want = np.arange(n_rows) % m + 2
        got = np.diff(rows[:, 4], prepend=0.0).astype(np.int64)
        checks.append(Check("ortho_is_sum_i_plus_1", bool(np.array_equal(got, want))
                            and ortho == int(want.sum()),
                            f"{ortho} ortho reductions, expected {int(want.sum())}"))
    if w.first_block is not None:
        checks.append(Check("first_block_width", bool(blocks) and blocks[0] == w.first_block,
                            f"first block {blocks[:1]}, expected {w.first_block}"))
    if w.needs_conjugate_pair:
        pairs = 0 if ritz is None else int(np.count_nonzero(ritz.values.imag > 0.0))
        checks.append(Check("conjugate_shift_pair", pairs > 0, f"{pairs} conjugate pairs"))
    return checks
