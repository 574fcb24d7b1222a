"""Block orthonormalization against an existing basis, with condition-limited QR.

One call performs block classical Gram-Schmidt with a full second pass,
using the condition-limited Cholesky factorization on each pass so only a
well-conditioned prefix of the candidate block survives.  Per call there
are exactly four block reduction events: projection, Gram product,
projection, Gram product, independent of how many columns survive.  The
candidates are overwritten in place, so a block generated into the basis
rows it will occupy is orthonormalized there, with no copy.

The two projections are summed over tiles of the basis along its length,
each tile about TILE_BYTES.  A narrow block against a tall basis is a
product of shape (i x n)(n x s) with small s, which one BLAS call runs at
about half of memory speed; a tile of the basis that stays in the L2 cache
while the candidates stream past it reads the basis at memory speed.  Each
of the two updates that subtract the projections is one GEMM that
accumulates into the candidate rows in place, so it holds no scratch
memory.  Each triangular solve X Z = V is a multiply by the p x p inverse
Z^-1 (TRTRI, then TRMM in place): OpenBLAS runs a right-side TRSM on a
tall n x p block two to three times slower than TRMM.  The factor's
condition number is capped at cond_limit, and the second pass restores
the orthogonality that the inverse's rounding costs, as it does for the
solve's (Yamamoto et al., ETNA 2015; Du Croz & Higham, IMA J. Numer.
Anal. 1992).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dtrmm
from scipy.linalg.lapack import dtrtri

from .dense import BreakdownError, PartialCholeskyResult, negligible, partial_cholesky

# a candidate whose norm is above this, or not finite, ends its block's kept prefix
OVERFLOW_LIMIT = 1e10 / math.sqrt(np.finfo(np.float64).eps)

# bytes of basis per projection tile: a quarter of a 2 MB per-core L2
# cache, so the tile stays cached while the candidates stream past it
TILE_BYTES = 1 << 19


@dataclass
class BlockQrOutcome:
    """Coefficients and stop of one block orthonormalization.

    r_hat      : (i + p) x (p + 1) coefficient block whose first column is
                 the unit vector for the seed and whose remaining columns
                 express the candidate block in the extended basis.
    p          : accepted candidate count.
    cond_trace : first-pass per-column condition values (the adaptation
                 signal; includes the first rejected column when the stop
                 was the condition limit).
    stopped_by : 'none', 'condition', 'pivot' (includes a candidate left at
                 roundoff level by the projection), 'overflow', or 'second
                 pass' when the second factorization kept fewer columns.
    """

    r_hat: np.ndarray
    p: int
    cond_trace: np.ndarray
    stopped_by: str


def project(q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The coefficients q @ rows.T of rows on the basis rows q.

    Summed over column tiles of at most TILE_BYTES of q; when one tile
    covers the whole length this is a single product.
    """
    n = q.shape[1]
    width = max(1, TILE_BYTES // (q.itemsize * max(q.shape[0], 1)))
    out = q[:, :width] @ rows[:, :width].T
    for lo in range(width, n, width):
        out += q[:, lo : lo + width] @ rows[:, lo : lo + width].T
    return out


def subtract_projection(rows: np.ndarray, w: np.ndarray, q: np.ndarray) -> None:
    """rows -= w.T @ q in place, as one GEMM that accumulates into rows.

    rows must be C-contiguous: BLAS accumulates into its F-contiguous
    transpose, and would update a copy of any other layout.  A C-contiguous
    q is read through its transpose without a copy too.  Nothing is done
    when q or rows has no rows.
    """
    if q.shape[0] and rows.shape[0]:
        dgemm(-1.0, q.T, w, 1.0, rows.T, overwrite_c=True)


def bcgs2_partial_cholqr(q, v, cond_limit: float, counter=None) -> BlockQrOutcome:
    """Orthonormalize candidate rows v against basis rows q and each other, in place.

    q is i x n with orthonormal rows (i may be 0), v an s x n C-contiguous
    float64 array, one vector per row, as the solver stores its basis.
    The candidates are projected off q, factored by the condition-limited
    Cholesky (keeping p rows), normalized, then the whole projection and
    factorization runs a second time to restore orthogonality lost to
    cancellation.  On return v[:p] holds the new orthonormal rows and the
    rest of v scratch values.

    This call alone decides p.  The kept prefix ends before the first
    candidate whose norm is above OVERFLOW_LIMIT or not finite (an overflow
    stop), before one whose projected norm is at roundoff level against its
    own (a pivot stop), and where either factorization pass stops.  Raises
    BreakdownError when no row survives.

    counter, when given, receives the four block reduction events, in the
    phase open at the call or else in 'ortho'.
    """
    q = np.asarray(q, dtype=np.float64)
    if not (isinstance(v, np.ndarray) and v.dtype == np.float64 and v.flags.carray):
        raise ValueError("v must be a writeable C-contiguous float64 array: "
                         "the new rows overwrite it")
    if q.ndim != 2 or v.ndim != 2 or q.shape[1] != v.shape[1]:
        raise ValueError("q and v must share their row length")
    i = q.shape[0]
    if v.shape[0] < 1:
        raise ValueError("candidate block is empty")

    def count(kind):
        if counter is not None:
            with counter.phase("ortho"):
                counter.add(kind)

    count("projections")
    # the candidates' own norms ride on the same reduction; an overflowed one
    # and those generated from it are dropped before any arithmetic
    before = np.sqrt(np.einsum("ij,ij->i", v, v))
    over = ~(before <= OVERFLOW_LIMIT)
    s = int(np.argmax(over)) if over.any() else len(over)
    v, before = v[:s], before[:s]
    w = project(q, v)
    subtract_projection(v, w, q)

    count("gram_products")
    g = v @ v.T
    # a candidate that the projection leaves at roundoff level lies in
    # span(q): it and the candidates after it are dropped, as at a pivot stop
    noise = negligible(np.sqrt(np.diag(g)), i, before)
    keep = int(np.argmax(noise)) if noise.any() else s
    if keep == 0:
        raise BreakdownError("no columns accepted: first candidate overflows or lies in span(q)")
    g = g[:keep, :keep]
    pc1: PartialCholeskyResult = partial_cholesky(0.5 * (g + g.T), cond_limit)
    p = pc1.p
    stopped_by = pc1.stopped_by
    if stopped_by == "none" and keep < len(over):
        stopped_by = "pivot" if keep < s else "overflow"
    z = pc1.r
    # X Z = V for the rows, in place, as X = V Z^-1: the transpose of C-order
    # rows is F-contiguous, and z (positive diagonal) is p x p
    q1 = v[:p]
    dtrmm(1.0, dtrtri(z)[0], q1.T, side=1, overwrite_b=True)

    count("projections")
    w2 = project(q, q1)
    subtract_projection(q1, w2, q)

    count("gram_products")
    g2 = q1 @ q1.T
    pc2: PartialCholeskyResult = partial_cholesky(0.5 * (g2 + g2.T), cond_limit)
    if pc2.p < p:
        p, stopped_by = pc2.p, "second pass"
        z = np.ascontiguousarray(z[:p, :p])
    z2 = pc2.r[:p, :p]
    dtrmm(1.0, dtrtri(z2)[0], q1[:p].T, side=1, overwrite_b=True)

    r_hat = np.zeros((i + p, p + 1))
    if i:
        r_hat[i - 1, 0] = 1.0
        r_hat[:i, 1:] = w[:, :p] + w2[:, :p] @ z
    r_hat[i:, 1:] = z2 @ z
    return BlockQrOutcome(r_hat=r_hat, p=p, cond_trace=pc1.cond_trace, stopped_by=stopped_by)
