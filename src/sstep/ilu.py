"""Zero-fill incomplete LU factorization and its triangular solves.

The factorization works on the exact sparsity pattern of the input, so
L + U has the structure of A plus the unit diagonal of L.  It runs in two
phases (Saad, *Iterative Methods for Sparse Linear Systems*, 2nd ed.,
sections 10.3 and 11.6).  The symbolic phase puts every row on a level,
one past the highest level of the rows its lower entries point to, sorts
the lower entries by level and then by rank within their row, and finds
every entry each of them updates.  The numeric phase then takes one
(level, rank) segment at a time with one division and one subtraction:
the rows of a segment touch disjoint entries, and each entry sees the same
floating-point operations in the same order as in the row-by-row IKJ
loop, so the factors are bitwise those of that loop.

The factors are kept as two triangles in compressed sparse column form,
laid out as SuperLU's triangular solve reads them, so applying the
preconditioner is one call to that solve with no per-call set-up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as _sp
# the triangular solve behind scipy.sparse.linalg.spsolve_triangular, which
# copies and rescales its matrix on every call; private, hence scipy >= 1.17
from scipy.sparse.linalg._dsolve._superlu import gstrs

from .sparse import SparseMatrix


class ZeroPivotError(RuntimeError):
    """Raised when the factorization hits a zero pivot or a non-finite factor entry."""


@dataclass
class ILU0:
    """Factored preconditioner M = L U with unit lower triangular L.

    Two CSC triangles with int32 indices, sorted within each column:
    ``lower`` holds U's diagonal, first in each column, above the strict
    lower part of L, and ``upper`` holds the strict upper part of U.
    """

    lower: _sp.csc_matrix
    upper: _sp.csc_matrix

    @property
    def l_factor(self) -> _sp.csr_matrix:
        """L, unit lower triangular, in CSR form on A's pattern."""
        data = self.lower.data.copy()
        data[self.lower.indptr[:-1]] = 1.0
        return _sp.csc_matrix((data, self.lower.indices, self.lower.indptr),
                              shape=self.lower.shape).tocsr()

    @property
    def u_factor(self) -> _sp.csr_matrix:
        """U, upper triangular, in CSR form on A's pattern."""
        n, up = self.lower.shape[0], self.upper
        ends = up.indptr[1:]
        return _sp.csc_matrix(
            (np.insert(up.data, ends, self.lower.data[self.lower.indptr[:-1]]),
             np.insert(up.indices, ends, np.arange(n)), up.indptr + np.arange(n + 1)),
            shape=up.shape).tocsr()

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Return M^{-1} r as a new array: a forward and a backward sweep by columns."""
        lo, up = self.lower, self.upper
        n = lo.shape[0]
        # gstrs overwrites its right-hand side
        x, info = gstrs("N", n, lo.nnz, lo.data, lo.indices, lo.indptr,
                        n, up.nnz, up.data, up.indices, up.indptr, np.array(r, dtype=np.float64))
        if info:
            raise RuntimeError(f"triangular solve failed: info {info}")
        return x


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenation of arange(start, stop) over the pairs, in order."""
    counts = stops - starts
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(counts.sum())


def _eliminate(a: SparseMatrix, keys: np.ndarray, diag_pos: np.ndarray,
               low: np.ndarray) -> np.ndarray:
    """The L + U values of ILU(0) on A's pattern, in two phases.

    keys holds row * n + col of every entry, low the positions of the
    entries left of the diagonal.  Row i's j-th lower entry (i, k) takes
    l_ik = a_ik / u_kk, then every entry (i, c) with c in row k's upper part
    gets a_ic -= l_ik u_kc, ranks in increasing order: the order of the IKJ
    loop.  A zero pivot or an overflow leaves inf or nan in the rows that
    use it; the caller reports it.
    """
    n = a.n
    indptr, indices = a.indptr, a.indices
    nlow = diag_pos - indptr[:-1]
    lrow = np.repeat(np.arange(n, dtype=np.int64), nlow)
    lcol = indices[low]
    # symbolic phase: levels by one pass in row order, where every row a
    # lower entry points to is already placed
    level = np.zeros(n, dtype=np.int64)
    lev = memoryview(level)
    for i, k in zip(memoryview(lrow), memoryview(lcol)):
        d = lev[k] + 1
        if d > lev[i]:
            lev[i] = d
    # the lower entries in (level, rank) order, and where the segments start
    seg_key = level[lrow] * (int(nlow.max(initial=0)) + 1) + (low - indptr[lrow])
    del level
    order = np.argsort(seg_key, kind="stable")
    seg_key = seg_key[order]
    seg = np.flatnonzero(np.diff(seg_key, prepend=-1, append=-1))
    del seg_key
    # positions stay int64: numpy casts any other index type on every fancy
    # index, and the numeric phase makes thousands; every temporary is
    # dropped once spent, since they set the factor's peak memory
    row, k = lrow[order], lcol[order]
    pos = low[order]
    del lrow, lcol, order
    piv = diag_pos[k]
    # row k's upper entries, and where their columns sit in row i
    nup = indptr[k + 1] - piv - 1
    src = _ranges(piv + 1, indptr[k + 1])
    want = np.repeat(row * n, nup)
    want += indices[src]
    del row, k
    tgt = np.searchsorted(keys, want)
    np.minimum(tgt, len(keys) - 1, out=tgt)
    hit = keys[tgt] == want
    del want
    tgt, src = tgt[hit], src[hit]
    owner = np.repeat(np.arange(len(pos)), nup)[hit]
    del hit, nup
    upd = np.searchsorted(owner, seg)
    own = pos[owner]
    del owner

    # numeric phase: one division and one subtraction per segment
    luval = a.data.copy()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for s0, s1, u0, u1 in zip(memoryview(seg), memoryview(seg)[1:],
                                  memoryview(upd), memoryview(upd)[1:]):
            p = pos[s0:s1]
            luval[p] /= luval[piv[s0:s1]]
            luval[tgt[u0:u1]] -= luval[own[u0:u1]] * luval[src[u0:u1]]
    return luval


def ilu0(a: SparseMatrix) -> ILU0:
    """Compute the ILU(0) factorization of a square sparse matrix.

    Every row must contain a structural diagonal entry.  A zero pivot
    raises ZeroPivotError naming the row the row-by-row loop stops at, and
    an elimination that overflows one naming the first row whose factor
    entries are not all finite.
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
    finite = np.isfinite(luval)
    if not finite.all():
        k = int(np.searchsorted(indptr, np.argmin(finite), side="right")) - 1
        raise ZeroPivotError(f"row {k}: factor entry is not finite, the elimination overflowed")
    del low, finite

    # CSR to CSC sorts each column by row, so U's diagonal, the lowest row
    # of its column in the lower triangle, comes first
    lower_ptr = np.concatenate(([0], np.cumsum(diag_pos + 1 - indptr[:-1])))
    lo = _ranges(indptr[:-1], diag_pos + 1)
    lower = _sp.csr_matrix((luval[lo], indices[lo], lower_ptr), shape=(n, n)).tocsc()
    del lo
    up = _ranges(diag_pos + 1, indptr[1:])
    upper = _sp.csr_matrix((luval[up], indices[up], indptr - lower_ptr), shape=(n, n)).tocsc()
    return ILU0(lower, upper)
