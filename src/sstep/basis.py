"""Krylov basis construction: shift ordering, recurrence coefficients, matrix powers.

Complex shifts are handled in real arithmetic.  A conjugate pair occupies
two adjacent recurrence steps: the first step uses only the real part, the
second closes the pair with a coupling term, so every generated vector is
real even when the shifts are not.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# column-norm guard of the matrix-powers kernel, read at each call
OVERFLOW_LIMIT = 1e10 / math.sqrt(np.finfo(np.float64).eps)


def leja_order(values) -> np.ndarray:
    """Greedy max-product ordering of shift values.

    The first value maximizes |theta| (ties: larger real part, then larger
    imaginary part); each later value maximizes the product of distances to
    the values already placed, accumulated in log space so long sequences
    neither overflow nor underflow.  A value with nonzero imaginary part
    drags its exact conjugate into the next position, keeping every prefix
    closed under conjugation.  Exact duplicates order last.
    """
    vals = np.asarray(values, dtype=np.complex128).ravel()
    n = len(vals)
    if n == 0:
        raise ValueError("need at least one value")
    re, im = vals.real, vals.imag
    cx = np.sort_complex(vals[im != 0.0])
    if len(cx) and not np.array_equal(cx, np.sort_complex(np.conj(cx))):
        raise ValueError("a complex value has no conjugate partner")
    acc = np.zeros(n)
    remaining = list(range(n))
    order = []

    def place(idx):
        order.append(idx)
        remaining.remove(idx)
        for r in remaining:
            d = abs(vals[r] - vals[idx])
            acc[r] = -math.inf if d == 0.0 else acc[r] + math.log(d)

    while remaining:
        if order:
            best = max(remaining, key=lambda r: (acc[r], re[r], im[r]))
        else:
            best = max(remaining, key=lambda r: (abs(vals[r]), re[r], im[r]))
        place(best)
        if im[best] != 0.0 and remaining:
            partner = [r for r in remaining if vals[r] == np.conj(vals[best])]
            place(partner[0])
    return vals[np.asarray(order)]


@dataclass
class RitzSet:
    """Shift values in Leja order, which keeps each conjugate pair adjacent."""

    values: np.ndarray

    @classmethod
    def from_values(cls, values) -> "RitzSet":
        return cls(leja_order(values))

    def __len__(self) -> int:
        return len(self.values)

    def cycled(self, k: int) -> "RitzSet":
        """Repeat the ordered values cyclically until at least k are available.

        Requires a conjugate-closed set so the wrap never splits a pair.
        """
        if k <= len(self.values):
            return self
        return RitzSet(np.resize(self.values, k))


def newton_scalings(values):
    """Distance of each value from the set mean, floored away from zero.

    Returns (gamma, mean, floor, n_floored) with
    gamma_k = max(|mean - theta_k|, floor) and floor = eps * max|theta|.
    The same floor feeds the step-size estimate so both stay consistent.
    """
    vals = np.asarray(values, dtype=np.complex128)
    mx = float(np.max(np.abs(vals)))
    if mx == 0.0:
        raise ValueError("all shift values are zero, cannot scale")
    theta_bar = float(np.mean(vals).real)
    floor = np.finfo(np.float64).eps * mx
    gam = np.abs(theta_bar - vals)
    n_floored = int(np.count_nonzero(gam < floor))
    return np.maximum(gam, floor), theta_bar, floor, n_floored


@dataclass
class ChangeOfBasis:
    """Coefficients of the s-term basis recurrence.

    Step k maps column k to column k+1 as
        v_{k+1} = (A v_k - shift[k] v_k + coupling[k] v_{k-1}) / scale[k]
    where coupling is nonzero only at the step that closes a conjugate pair.
    """

    shift: np.ndarray
    scale: np.ndarray
    coupling: np.ndarray

    @property
    def s(self) -> int:
        return len(self.shift)

    def dense(self) -> np.ndarray:
        """The (s+1) x s matrix B with A V_{0:s-1} = V_{0:s} B exactly."""
        k = np.arange(self.s)
        b = np.zeros((self.s + 1, self.s))
        b[k, k] = self.shift
        b[k + 1, k] = self.scale
        b[k[:-1], k[1:]] -= self.coupling[1:]
        return b


def build_change_of_basis(kind: str, s: int, ritz: RitzSet | None = None) -> ChangeOfBasis:
    """Recurrence coefficients for a named basis kind.

    'monomial'      : shift 0, scale 1.
    'newton'        : shifts from the Ritz set, scale 1.
    'scaled-newton' : shifts from the Ritz set, scale gamma_k = |mean - theta_k|
                      floored at eps * max|theta| (mean and floor over the
                      whole set so the scalings agree across block sizes).

    Each step shifts by a real part.  A complex value followed by its
    conjugate couples the next step; one in the last position is one step.
    """
    if s < 1:
        raise ValueError("s must be positive")
    if kind == "monomial":
        return ChangeOfBasis(np.zeros(s), np.ones(s), np.zeros(s))
    if kind not in ("newton", "scaled-newton"):
        raise ValueError(f"unknown basis kind '{kind}'")
    if ritz is None:
        raise ValueError(f"basis kind '{kind}' needs Ritz values")
    if s > len(ritz.values):
        raise ValueError(f"need at least {s} shift values, have {len(ritz.values)}")
    vals = ritz.values[:s]
    shift = np.ascontiguousarray(vals.real, dtype=np.float64)
    if kind == "newton":
        scale = np.ones(s)
    else:
        gam, _, _, n_floored = newton_scalings(ritz.values)
        if n_floored == len(ritz.values):
            warnings.warn("all scale factors hit the floor; shifts are clustered at their mean")
        scale = gam[:s].copy()
    coupling = np.zeros(s)
    k = 0
    while k < s - 1:
        b = vals[k].imag
        if b != 0.0:
            if vals[k + 1] != np.conj(vals[k]):
                raise ValueError(f"value {vals[k]} at position {k} has no adjacent conjugate")
            coupling[k + 1] = (b * b) / scale[k]
            k += 1
        k += 1
    return ChangeOfBasis(shift, scale, coupling)


@dataclass
class KrylovBlock:
    """Output of the matrix-powers kernel.

    v is n x ncols, the transpose view of a C-order array that holds one
    generated vector per contiguous row, so v.T streams whole vectors
    (the seed is not included).
    """

    v: np.ndarray
    ncols: int


def matrix_powers(op, seed: np.ndarray, cob: ChangeOfBasis) -> KrylovBlock:
    """Generate s new Krylov columns from a seed vector via the recurrence.

    op is the operator as a callable (preconditioning folded in by the
    caller).  Each generated vector fills one row of an s x n array.
    Generation stops early when a column norm exceeds OVERFLOW_LIMIT or
    turns nonfinite, returning the finite prefix.
    """
    seed = np.asarray(seed, dtype=np.float64)
    s = cob.s
    rows = np.empty((s, len(seed)))
    prev2: np.ndarray | None = None
    prev = seed
    for k in range(s):
        w = op(prev) - cob.shift[k] * prev
        if cob.coupling[k] != 0.0:
            w += cob.coupling[k] * prev2
        w /= cob.scale[k]
        nrm = float(np.linalg.norm(w))
        if not math.isfinite(nrm) or nrm > OVERFLOW_LIMIT:
            return KrylovBlock(rows[:k].T, k)
        rows[k] = w
        prev2, prev = prev, w
    return KrylovBlock(rows.T, s)
