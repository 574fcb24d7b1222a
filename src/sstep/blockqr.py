"""Block orthonormalization against an existing basis, with condition-limited QR.

One call performs block classical Gram-Schmidt with a full second pass,
using the condition-limited Cholesky factorization on each pass so only a
well-conditioned prefix of the candidate block survives.  Per call there
are exactly four block reduction events: projection, Gram product,
projection, Gram product, independent of how many columns survive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm

from .dense import PartialCholeskyResult, partial_cholesky


@dataclass
class BlockQrOutcome:
    """Accepted columns and coefficients from one block orthonormalization.

    q_new      : n x p orthonormal columns extending the basis, the
                 transpose view of a C-order p x n array, so q_new.T
                 holds one new vector per contiguous row.
    r_hat      : (i + p) x (p + 1) coefficient block whose first column is
                 the unit vector for the seed and whose remaining columns
                 express the candidate block in the extended basis.
    p          : accepted column count.
    cond_trace : first-pass per-column condition values (the adaptation
                 signal; includes the first rejected column when the stop
                 was the condition limit).
    cond_trace_second : second-pass condition values.
    stopped_by : first-pass stop reason: 'none', 'condition', or 'pivot'.
    """

    q_new: np.ndarray
    r_hat: np.ndarray
    p: int
    cond_trace: np.ndarray
    cond_trace_second: np.ndarray
    stopped_by: str


def _right_solve(rows: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rows of X with X R = V, from the rows of V, for upper triangular R."""
    return dtrsm(1.0, r, rows.T, side=1).T


def bcgs2_partial_cholqr(q, v, cond_limit: float, use_estimator: bool = True,
                         counter=None) -> BlockQrOutcome:
    """Orthonormalize candidate columns v against basis q and each other.

    q is n x i with orthonormal columns (i may be 0), v is n x s.  The
    candidates are projected off q, factored by the condition-limited
    Cholesky (keeping p columns), normalized, then the whole projection
    and factorization runs a second time to restore orthogonality lost
    to cancellation.  Raises BreakdownError when no column survives.

    All work runs on the row-stacked transposes q.T and v.T, one vector
    per row; they are free views when q and v are transposes of C-order
    row arrays, as the solver passes them.

    counter, when given, receives the four block reduction events with
    phase 'ortho'.
    """
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if q.ndim != 2 or v.ndim != 2 or q.shape[0] != v.shape[0]:
        raise ValueError("q and v must share their row dimension")
    i = q.shape[1]
    if v.shape[1] < 1:
        raise ValueError("candidate block is empty")
    qt, vt = q.T, v.T

    def count(kind):
        if counter is not None:
            counter.add(kind, "ortho")

    count("projections")
    w = qt @ vt.T
    v1 = vt - w.T @ qt

    count("gram_products")
    g = v1 @ v1.T
    pc1: PartialCholeskyResult = partial_cholesky(0.5 * (g + g.T), cond_limit, use_estimator)
    p = pc1.p
    z = pc1.r
    q1 = _right_solve(v1[:p], z)

    count("projections")
    w2 = qt @ q1.T
    q2 = q1 - w2.T @ qt

    count("gram_products")
    g2 = q2 @ q2.T
    pc2: PartialCholeskyResult = partial_cholesky(0.5 * (g2 + g2.T), cond_limit, use_estimator)
    if pc2.p < p:
        p = pc2.p
        z = np.ascontiguousarray(z[:p, :p])
    z2 = pc2.r[:p, :p]
    q_new = _right_solve(q2[:p], z2)

    r_hat = np.zeros((i + p, p + 1))
    if i:
        r_hat[i - 1, 0] = 1.0
        r_hat[:i, 1:] = w[:, :p] + w2[:, :p] @ z
    r_hat[i:, 1:] = z2 @ z
    return BlockQrOutcome(
        q_new=q_new.T,
        r_hat=r_hat,
        p=p,
        cond_trace=pc1.cond_trace,
        cond_trace_second=pc2.cond_trace,
        stopped_by=pc1.stopped_by,
    )
