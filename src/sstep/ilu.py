"""Zero-fill incomplete LU factorization and its triangular solves.

The factorization works on the exact sparsity pattern of the input, so
L + U has the structure of A plus the unit diagonal of L.  It runs level
by level (Saad, *Iterative Methods for Sparse Linear Systems*, 2nd ed.,
sections 10.3 and 11.6): a row joins a level once every row its lower
entries point to is final, and all rows of a level are eliminated
together, one lower-entry rank at a time.  Each entry sees the same
floating-point operations in the same order as in the row-by-row IKJ
loop, so the factors are bitwise those of that loop.

L and U are each handed once to SuperLU, in natural order with diagonal
pivots, which keeps them as they are (no permutation, no fill); applying
the preconditioner is then a forward and a backward solve on factors
whose preprocessing is already done.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as _sp
from scipy.sparse.linalg import SuperLU, splu

from .sparse import SparseMatrix


class ZeroPivotError(RuntimeError):
    """Raised when the factorization hits a zero pivot."""


@dataclass
class ILU0:
    """Factored preconditioner M = L U with unit lower triangular L.

    Holds the SuperLU factorizations of L (as L I) and of U (as I U).
    """

    l_lu: SuperLU
    u_lu: SuperLU

    @property
    def l_factor(self) -> _sp.csr_matrix:
        """L, unit lower triangular, in CSR form (explicit zeros dropped)."""
        return _sp.csr_matrix(self.l_lu.L)

    @property
    def u_factor(self) -> _sp.csr_matrix:
        """U, upper triangular, in CSR form (explicit zeros dropped)."""
        return _sp.csr_matrix(self.u_lu.U)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Return M^{-1} r."""
        return self.u_lu.solve(self.l_lu.solve(r))


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenation of arange(start, stop) over the pairs, in order."""
    counts = stops - starts
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(counts.sum())


def _eliminate(a: SparseMatrix, keys: np.ndarray, diag_pos: np.ndarray,
               low: np.ndarray) -> np.ndarray:
    """The L + U values of ILU(0) on A's pattern, eliminated level by level.

    keys holds row * n + col of every entry, low the positions of the
    entries left of the diagonal.  Row i's j-th lower entry (i, k) takes
    l_ik = a_ik / u_kk, then every entry (i, c) with c in row k's upper part
    gets a_ic -= l_ik u_kc, ranks in increasing order: the order of the IKJ
    loop.  The rows of one level touch disjoint entries.  A zero pivot
    leaves inf or nan in the rows that use it; the caller reports it.
    """
    n = a.n
    # int64 index arrays (copies of int32 ones): numpy casts an int32 index
    # array to intp on every fancy index, and the loop below makes thousands
    indptr, indices = (v.astype(np.int64, copy=False) for v in (a.indptr, a.indices))
    luval = a.data.copy()
    last = len(keys) - 1
    nlow = diag_pos - indptr[:-1]
    # the rows waiting on each row k: the lower entries grouped by column
    by_col = np.argsort(indices[low], kind="stable")
    waiting = np.repeat(np.arange(n, dtype=np.int64), nlow)[by_col]
    col_ptr = np.searchsorted(indices[low[by_col]], np.arange(n + 1))
    del by_col
    pending = nlow.copy()
    level = np.flatnonzero(pending == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        while level.size:
            for j in range(int(nlow[level].max())):
                rows = level[nlow[level] > j]
                pos = indptr[rows] + j
                k = indices[pos]
                luval[pos] /= luval[diag_pos[k]]
                # row k's upper entries, and where their columns sit in row i
                nup = indptr[k + 1] - diag_pos[k] - 1
                src = _ranges(diag_pos[k] + 1, indptr[k + 1])
                want = np.repeat(rows * n, nup) + indices[src]
                tgt = np.minimum(np.searchsorted(keys, want), last)
                hit = keys[tgt] == want
                luval[tgt[hit]] -= np.repeat(luval[pos], nup)[hit] * luval[src[hit]]
            freed, count = np.unique(waiting[_ranges(col_ptr[level], col_ptr[level + 1])],
                                     return_counts=True)
            pending[freed] -= count
            level = freed[pending[freed] == 0]
    return luval


def ilu0(a: SparseMatrix) -> ILU0:
    """Compute the ILU(0) factorization of a square sparse matrix.

    Every row must contain a structural diagonal entry.  A zero pivot
    raises ZeroPivotError naming the row the row-by-row loop stops at.
    """
    n = a.n
    indptr, indices = a.indptr, a.indices
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    on_diag = indices == rows
    has_diag = np.zeros(n, dtype=bool)
    has_diag[rows[on_diag]] = True
    if not has_diag.all():
        i = int(np.argmin(has_diag))
        raise ZeroPivotError(f"row {i}: diagonal entry missing from sparsity pattern")
    diag_pos = np.flatnonzero(on_diag)
    del on_diag, has_diag
    # row * n + col, strictly increasing along the CSR arrays; int64, since
    # they reach n * n (past 2**31 for n > 46 340) while the indices may be
    # int32; built in place, since the factor's temporaries set its peak memory
    keys = rows
    keys *= n
    keys += indices
    low = _ranges(indptr[:-1], diag_pos)

    luval = _eliminate(a, keys, diag_pos, low)
    del keys
    zero = luval[diag_pos] == 0.0
    if zero.any():
        # the loop stops at the first row, in row order, whose lower
        # entries use a zero pivot; without one it checks the diagonal
        used = np.flatnonzero(zero[indices[low]])
        k = int(indices[low[used[0]]]) if used.size else int(np.argmax(zero))
        raise ZeroPivotError(f"row {k}: zero pivot")

    low_end = np.cumsum(diag_pos - indptr[:-1])
    l_factor = _sp.csr_matrix(
        (np.insert(luval[low], low_end, 1.0), np.insert(indices[low], low_end, np.arange(n)),
         np.concatenate(([0], low_end)) + np.arange(n + 1)),
        shape=(n, n)).tocsc()
    upp = _ranges(diag_pos, indptr[1:])
    u_factor = _sp.csr_matrix(
        (luval[upp], indices[upp], indptr - np.concatenate(([0], low_end))),
        shape=(n, n)).tocsc()
    del luval, low, upp
    # the factors need no elimination, so a one-column panel suffices; the
    # default panel left about 7 MB more resident on lap2d:100
    pivots = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0, panel_size=1)
    return ILU0(splu(l_factor, **pivots), splu(u_factor, **pivots))
