"""Block orthonormalization against an existing basis, with condition-limited QR.

One call performs block classical Gram-Schmidt with a full second pass,
using the condition-limited Cholesky factorization on each pass so only a
well-conditioned prefix of the candidate block survives.  Per call there
are exactly four block reduction events: projection, Gram product,
projection, Gram product, independent of how many columns survive.

The two projections are summed over tiles of the basis along its length,
each tile about TILE_BYTES.  A narrow block against a tall basis is a
product of shape (i x n)(n x s) with small s, which one BLAS call runs at
about half of memory speed; a tile of the basis that stays in the L2 cache
while the candidates stream past it reads the basis at memory speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm

from .dense import BreakdownError, PartialCholeskyResult, negligible, partial_cholesky

# bytes of basis per projection tile: a quarter of a 2 MB per-core L2
# cache, so the tile stays cached while the candidates stream past it
TILE_BYTES = 1 << 19


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
    stopped_by : first-pass stop reason: 'none', 'condition', or 'pivot'
                 (a pivot stop includes a candidate left at roundoff
                 level by the projection).
    """

    q_new: np.ndarray
    r_hat: np.ndarray
    p: int
    cond_trace: np.ndarray
    stopped_by: str


def _right_solve(rows: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rows of X with X R = V, from the rows of V, for upper triangular R.

    Overwrites rows when they are C-contiguous.
    """
    return dtrsm(1.0, r, rows.T, side=1, overwrite_b=True).T


def project(qt: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The coefficients qt @ rows.T of rows on the basis rows qt.

    Summed over column tiles of at most TILE_BYTES of qt; when one tile
    covers the whole length this is a single product.
    """
    n = qt.shape[1]
    width = max(1, TILE_BYTES // (qt.itemsize * max(qt.shape[0], 1)))
    out = qt[:, :width] @ rows[:, :width].T
    for lo in range(width, n, width):
        out += qt[:, lo : lo + width] @ rows[:, lo : lo + width].T
    return out


def bcgs2_partial_cholqr(q, v, cond_limit: float, counter=None) -> BlockQrOutcome:
    """Orthonormalize candidate columns v against basis q and each other.

    q is n x i with orthonormal columns (i may be 0), v is n x s.  The
    candidates are projected off q, factored by the condition-limited
    Cholesky (keeping p columns), normalized, then the whole projection
    and factorization runs a second time to restore orthogonality lost
    to cancellation.  A candidate whose projected norm is at roundoff
    level against its own norm ends the accepted prefix and is recorded
    as a pivot stop.  Raises BreakdownError when no column survives.

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

    # each temporary below is as large as the candidate block, so the
    # projections subtract into the product and the solves overwrite
    count("projections")
    w = project(qt, vt)
    v1 = w.T @ qt
    np.subtract(vt, v1, out=v1)
    # the candidates' own norms ride on the same reduction
    before = np.sqrt(np.einsum("ij,ij->i", vt, vt))

    count("gram_products")
    g = v1 @ v1.T
    # a candidate that the projection leaves at roundoff level lies in
    # span(q): it and the candidates after it are dropped, as at a pivot stop
    noise = negligible(np.sqrt(np.diag(g)), i, before)
    keep = int(np.argmax(noise)) if noise.any() else len(noise)
    if keep == 0:
        raise BreakdownError("no columns accepted: the first candidate lies in span(q)")
    g = g[:keep, :keep]
    pc1: PartialCholeskyResult = partial_cholesky(0.5 * (g + g.T), cond_limit)
    p = pc1.p
    stopped_by = "pivot" if pc1.stopped_by == "none" and keep < len(noise) else pc1.stopped_by
    z = pc1.r
    q1 = _right_solve(v1[:p], z)

    count("projections")
    w2 = project(qt, q1)
    q2 = w2.T @ qt
    np.subtract(q1, q2, out=q2)

    count("gram_products")
    g2 = q2 @ q2.T
    pc2: PartialCholeskyResult = partial_cholesky(0.5 * (g2 + g2.T), cond_limit)
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
        stopped_by=stopped_by,
    )
