"""Compare the three Krylov block recurrences on the same operator.

The monomial basis multiplies by A each step and its column norms explode
at the rate of the largest eigenvalue.  Newton shifts recenter each step;
the scaled variant also normalizes, keeping column norms near one.  All
three satisfy the same algebraic relation A V[:, :s] = V B, with B the
banded change-of-basis matrix; the demo stores V one vector per row, as
the solver does.  A block keeps at most the columns before
the first one whose norm passes the block QR's overflow limit.
"""

import numpy as np

from sstep import RitzSet, build_change_of_basis, leja_order, matrix_powers, ritz_harvest
from sstep.blockqr import OVERFLOW_LIMIT

rng = np.random.default_rng(11)
n, s = 400, 12
diag = np.linspace(0.5, 50.0, n)
# an operator writes A v into the vector out it is given, and returns out
op = lambda v, out: np.multiply(diag, v, out=out)

v0 = rng.standard_normal(n)
v0 /= np.linalg.norm(v0)

# shifts come from a small spectral probe, reordered for stability
ritz = ritz_harvest(op, v0, s)
print("harvested shifts (first 5):", np.round(ritz.values[:5], 2))
print("greedy distance ordering of [1 2 3 4 5]:",
      leja_order(np.array([1.0, 2, 3, 4, 5])).real)

for kind in ("monomial", "newton", "scaled-newton"):
    cob = build_change_of_basis(kind, s, ritz if kind != "monomial" else None)
    rows = np.empty((s + 1, n))
    rows[0] = v0
    matrix_powers(op, rows, cob)
    k = int(np.sum(np.cumprod(np.linalg.norm(rows[1:], axis=1) <= OVERFLOW_LIMIT)))
    v = rows[: k + 1]  # one vector per row
    norms = np.linalg.norm(v, axis=1)
    relation = np.linalg.norm(v[:k] * diag - cob.dense()[: k + 1, :k].T @ v)
    note = "" if k == s else f"  (the block QR's overflow stop keeps at most {k} of {s})"
    print(f"\n{kind:>14}: {k} columns{note}")
    print(f"{'':>14}  column norm range [{norms.min():.2e}, {norms.max():.2e}]")
    print(f"{'':>14}  recurrence residual {relation / norms.max():.2e} of the largest column")
