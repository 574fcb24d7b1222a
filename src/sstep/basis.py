"""Krylov basis construction: shift ordering, recurrence coefficients, matrix powers.

The matrix powers kernel is the bare recurrence into rows the caller gives:
it takes no norm, so it makes no reduction; the block QR decides what stays.
Every operator is op(v, out): it writes A v into out, a C-contiguous
float64 n-vector that does not overlap v, and returns out.  The kernel
hands it each step's own row, and so allocates no n-vector per step.

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

OPERATOR_CONTRACT = "an operator must be op(v, out): write A v into out and return out"


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
    im = vals.imag
    cx = np.sort_complex(vals[im != 0.0])
    if len(cx) and not np.array_equal(cx, np.sort_complex(np.conj(cx))):
        raise ValueError("a complex value has no conjugate partner")
    # the greedy loop runs on Python complex numbers and floats: numpy
    # scalars cost several times more per operation
    z = vals.tolist()
    acc = [0.0] * n
    remaining = list(range(n))
    order = []

    def place(idx):
        order.append(idx)
        remaining.remove(idx)
        zi = z[idx]
        for r in remaining:
            d = abs(z[r] - zi)
            acc[r] = -math.inf if d == 0.0 else acc[r] + math.log(d)

    while remaining:
        if order:
            best = max(remaining, key=lambda r: (acc[r], z[r].real, z[r].imag))
        else:
            best = max(remaining, key=lambda r: (abs(z[r]), z[r].real, z[r].imag))
        place(best)
        if z[best].imag != 0.0 and remaining:
            partner = z[best].conjugate()
            place(next(r for r in remaining if z[r] == partner))
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

    v is ncols x n, a view of the rows the kernel filled (not the seed),
    one vector per row.  ncols is always the width of the change of basis.
    """

    v: np.ndarray
    ncols: int


def matrix_powers(op, rows: np.ndarray, cob: ChangeOfBasis) -> KrylovBlock:
    """Generate s new Krylov vectors into rows[1:s+1] from the seed in rows[0].

    rows is an (s + 1) x n float64 array, one vector per row; the solver
    passes the basis rows the block will occupy.  op is the operator
    (preconditioning folded in by the caller), called as op(rows[k],
    rows[k + 1]): it writes into the step's row and returns it, so no
    n-vector is allocated per step.  An op that returns anything else
    raises ValueError.  The shift, coupling and scale passes run only where
    they are not 0, 0 and 1, through one scratch row, so a monomial step is
    the operator apply alone.  No norm is taken and an overflowing block
    warns nowhere: the block QR drops what overflowed.
    """
    s = cob.s
    if rows.ndim != 2 or rows.shape[0] != s + 1:
        raise ValueError(f"rows must hold the seed and {s} vectors, got shape {rows.shape}")
    tmp = np.empty_like(rows[0]) if cob.shift.any() or cob.coupling.any() else None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(s):
            prev, w = rows[k], rows[k + 1]
            if op(prev, w) is not w:
                raise ValueError(OPERATOR_CONTRACT)
            if cob.shift[k] != 0.0:
                np.multiply(prev, cob.shift[k], out=tmp)
                w -= tmp
            if cob.coupling[k] != 0.0:
                np.multiply(rows[k - 1], cob.coupling[k], out=tmp)
                w += tmp
            if cob.scale[k] != 1.0:
                w /= cob.scale[k]
    return KrylovBlock(rows[1:], s)
