"""Dense kernels: condition estimation, pivoted-prefix Cholesky, small least squares.

Everything here operates on small dense arrays (at most restart-length
sized), so plain LAPACK calls through numpy/scipy are the right tool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla


class BreakdownError(RuntimeError):
    """Raised when a factorization or least-squares update cannot continue."""


def negligible(value: float, k: int, scale: float) -> bool:
    """Whether value is at roundoff level after k steps on data of size scale.

    The test is |value| <= 10 k eps scale: the error a k-term sum or a
    sweep of k projections leaves in a quantity of that size.
    """
    return abs(value) <= 10.0 * k * np.finfo(np.float64).eps * scale


def svd_condition(r) -> float:
    """Spectral condition number sigma_max / sigma_min via full SVD."""
    sv = np.linalg.svd(np.asarray(r, dtype=np.float64), compute_uv=False)
    if sv[-1] == 0.0:
        return math.inf
    return float(sv[0] / sv[-1])


def _eig2_max(a: float, b: float, c: float):
    """Largest eigenvalue of [[a, b], [b, c]] and its unit eigenvector."""
    t = 0.5 * (a + c)
    d = 0.5 * (a - c)
    h = math.hypot(d, b)
    lam = t + h
    if b == 0.0:
        u0, u1 = (1.0, 0.0) if a >= c else (0.0, 1.0)
    elif d >= 0.0:
        # h + d >= |b|, this branch is well conditioned for a >= c
        u0, u1 = h + d, b
    else:
        u0, u1 = b, h - d
    nrm = math.hypot(u0, u1)
    return lam, u0 / nrm, u1 / nrm


class ConditionEstimator:
    """Incremental condition estimate for a growing upper triangular matrix.

    Feed columns one at a time with ``update(above, diag)`` where ``above``
    is the above-diagonal part and ``diag`` the diagonal entry.  The
    estimator tracks an approximate top left singular vector x (so that
    ||x^T R|| approaches sigma_max from below) and a solution vector y of
    R^T y = w for a cheaply maximized unit w (so that 1/||y|| approaches
    sigma_min from above).  Each update costs O(j) and solves two 2 x 2
    symmetric eigenproblems in closed form.  The returned estimate is
    sigma_max(x) * ||y||; it never exceeds the true condition number.
    """

    def __init__(self):
        self._x = None
        self._y = None
        self._smax = 0.0
        self._ynorm2 = 0.0

    @property
    def ncols(self) -> int:
        return 0 if self._x is None else len(self._x)

    @property
    def estimate(self) -> float:
        """Current condition estimate (1.0 for a single column)."""
        if self._x is None:
            raise ValueError("no columns seen yet")
        return self._smax * math.sqrt(self._ynorm2)

    def update(self, above, diag: float) -> float:
        """Absorb one new column and return the updated condition estimate."""
        diag = float(diag)
        if diag == 0.0 or not math.isfinite(diag):
            raise ValueError(f"triangular diagonal entry must be nonzero finite, got {diag}")
        if self._x is None:
            if len(above) != 0:
                raise ValueError("first column must have an empty above-diagonal part")
            self._x = np.array([1.0])
            self._smax = abs(diag)
            self._y = np.array([1.0 / diag])
            self._ynorm2 = 1.0 / (diag * diag)
            return self.estimate
        v = np.asarray(above, dtype=np.float64)
        j = len(self._x)
        if v.shape != (j,):
            raise ValueError(f"expected {j} above-diagonal entries, got {v.shape}")

        a = float(self._x @ v)
        lam, s, c = _eig2_max(self._smax * self._smax + a * a, a * diag, diag * diag)
        x_new = np.empty(j + 1)
        x_new[:j] = s * self._x
        x_new[j] = c
        self._x = x_new
        self._smax = math.sqrt(lam)

        b = float(v @ self._y)
        g2 = diag * diag
        lam2, s2, c2 = _eig2_max(self._ynorm2 + b * b / g2, -b / g2, 1.0 / g2)
        y_new = np.empty(j + 1)
        y_new[:j] = s2 * self._y
        y_new[j] = (c2 - s2 * b) / diag
        self._y = y_new
        self._ynorm2 = lam2
        return self.estimate


@dataclass
class PartialCholeskyResult:
    """Outcome of a condition-limited Cholesky factorization.

    p          : number of leading columns accepted.
    r          : p x p upper triangular factor of the accepted prefix.
    cond_trace : per-column condition values.  When the stop was the
                 condition limit the trace keeps the rejected column's
                 value as its last entry, so the crossing is visible;
                 on a pivot stop the trace ends with the last accepted
                 column.
    stopped_by : 'none' (all columns accepted), 'condition', or 'pivot'.
    """

    p: int
    r: np.ndarray
    cond_trace: np.ndarray
    stopped_by: str


def partial_cholesky(g, cond_limit: float, use_estimator: bool = True) -> PartialCholeskyResult:
    """Factor the largest well-conditioned leading block of a Gram matrix.

    Columns are processed left to right.  Column j is accepted only while
    the pivot stays positive and the condition of the leading triangular
    factor stays at or below cond_limit; the first violation stops the
    factorization with p set to the accepted count.  Results for the
    accepted prefix are bitwise identical whatever comes after it, because
    column j touches only g[:j+1, :j+1].

    With use_estimator the condition values come from the incremental
    estimator; otherwise each prefix is measured exactly by SVD.

    Raises BreakdownError if no column is accepted.
    """
    g = np.asarray(g, dtype=np.float64)
    s = g.shape[0]
    if g.ndim != 2 or g.shape != (s, s):
        raise ValueError("Gram matrix must be square")
    if s == 0:
        raise ValueError("Gram matrix is empty")
    amax = float(np.max(np.abs(g)))
    if float(np.max(np.abs(g - g.T))) > 1e-8 * max(amax, np.finfo(np.float64).tiny):
        raise ValueError("Gram matrix is not symmetric to working accuracy")

    r = np.zeros((s, s))
    trace = []
    est = ConditionEstimator() if use_estimator else None
    p = s
    stopped = "none"
    first_pivot = 0.0
    for j in range(s):
        if j:
            r[:j, j] = sla.solve_triangular(r[:j, :j], g[:j, j], trans="T", lower=False)
        col = r[:j, j]
        piv = float(g[j, j]) - float(col @ col)
        if j == 0:
            first_pivot = piv
        if piv <= 0.0:
            p, stopped = j, "pivot"
            break
        rjj = math.sqrt(piv)
        if use_estimator:
            kappa = est.update(col.copy(), rjj)
        else:
            r[j, j] = rjj
            kappa = svd_condition(r[: j + 1, : j + 1])
        trace.append(kappa)
        if kappa > cond_limit:
            p, stopped = j, "condition"
            break
        r[j, j] = rjj
    if p == 0:
        if stopped == "pivot":
            raise BreakdownError(f"no columns accepted: first pivot {first_pivot:.6e} is not positive")
        raise BreakdownError(f"no columns accepted: condition limit {cond_limit:.6e} rejects a single column")
    return PartialCholeskyResult(
        p=p,
        r=np.ascontiguousarray(r[:p, :p]),
        cond_trace=np.asarray(trace, dtype=np.float64),
        stopped_by=stopped,
    )


def hessenberg_eigenvalues(h, k: int | None = None) -> np.ndarray:
    """Eigenvalues of the leading k x k block of a Hessenberg array."""
    h = np.asarray(h, dtype=np.float64)
    if k is None:
        k = h.shape[1]
    return np.linalg.eigvals(h[:k, :k])


class GivensLs:
    """Incremental Givens least squares for Hessenberg systems.

    Maintains the QR factorization of a growing Hessenberg matrix H
    together with the rotated right-hand side beta e_1, so the residual
    norm of min ||beta e_1 - H y|| is available after every column at
    O(columns) cost.
    """

    def __init__(self, max_cols: int, beta: float):
        if max_cols < 1:
            raise ValueError("max_cols must be positive")
        self._r = np.zeros((max_cols + 1, max_cols))
        self._g = np.zeros(max_cols + 1)
        self._g[0] = float(beta)
        self._cs = np.zeros(max_cols)
        self._sn = np.zeros(max_cols)
        self.ncols = 0

    @property
    def residual_estimate(self) -> float:
        return abs(self._g[self.ncols])

    def append(self, cols) -> np.ndarray:
        """Add one or more Hessenberg columns.

        cols has shape (ncols + p + 1, p); its column t holds global
        column ncols + t of H.  Returns the residual estimate after each
        appended column, enabling convergence checks inside a block.
        Raises BreakdownError, before changing any state for that column,
        when a column with a zero subdiagonal entry lies in the span of
        the columns before it up to roundoff.
        """
        cols = np.asarray(cols, dtype=np.float64)
        if cols.ndim == 1:
            cols = cols[:, None]
        k, p = self.ncols, cols.shape[1]
        if k + p > self._r.shape[1]:
            raise ValueError("exceeds the configured maximum column count")
        if cols.shape[0] != k + p + 1:
            raise ValueError(f"expected {k + p + 1} rows, got {cols.shape[0]}")
        out = np.empty(p)
        for t in range(p):
            j = self.ncols
            h = cols[: j + 2, t].copy()
            for q in range(j):
                hq, hq1 = h[q], h[q + 1]
                h[q] = self._cs[q] * hq + self._sn[q] * hq1
                h[q + 1] = -self._sn[q] * hq + self._cs[q] * hq1
            a, b = h[j], h[j + 1]
            d = math.hypot(a, b)
            # the rotations keep the column's norm
            if b == 0.0 and negligible(d, j + 1, math.sqrt(float(h @ h))):
                raise BreakdownError(f"column {j} is dependent: zero after rotations")
            cs, sn = a / d, b / d
            self._cs[j], self._sn[j] = cs, sn
            self._r[:j, j] = h[:j]
            self._r[j, j] = d
            gj = self._g[j]
            self._g[j] = cs * gj
            self._g[j + 1] = -sn * gj
            self.ncols = j + 1
            out[t] = abs(self._g[j + 1])
        return out

    def solve(self, ncols: int | None = None) -> np.ndarray:
        """Solve for the first ncols coefficients (default: all appended)."""
        k = self.ncols if ncols is None else ncols
        if not 0 < k <= self.ncols:
            raise ValueError(f"ncols must be in 1..{self.ncols}")
        return sla.solve_triangular(self._r[:k, :k], self._g[:k], lower=False)
