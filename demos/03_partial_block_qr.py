"""Orthogonalize a block of candidate directions, keeping only what is safe.

The block is projected against the existing basis twice, then factored by
Cholesky QR with a per-column condition watchdog.  When the next candidate
would push the triangular factor past the limit, the factorization stops
and the well-conditioned prefix survives.  Basis and candidates are stored
one vector per row, as the solver stores them, and the accepted vectors
overwrite the first candidate rows in place.
"""

import numpy as np

from sstep import bcgs2_partial_cholqr

rng = np.random.default_rng(3)
n = 200
q0 = np.linalg.qr(rng.standard_normal((n, 4)))[0].T.copy()  # existing orthonormal rows

# six candidates whose later rows are nearly dependent on the earlier ones
cand = rng.standard_normal((n, 6)).T.copy()
cand[4] = cand[0] + 1e-9 * rng.standard_normal(n)
cand[5] = cand[1] - 1e-10 * rng.standard_normal(n)

offered = cand.copy()
out = bcgs2_partial_cholqr(q0, cand, cond_limit=1e7)
print("candidates offered:", offered.shape[0])
print("columns accepted:  ", out.p, f"(stopped by {out.stopped_by!r})")
print("condition trace:   ", [f"{v:.2e}" for v in out.cond_trace])

q = np.vstack([q0, cand[: out.p]])
print("\northogonality of the extended basis:",
      f"{np.max(np.abs(q @ q.T - np.eye(q.shape[0]))):.2e}")

# the coefficient block reproduces the accepted candidates
recon = out.r_hat[:, 1 : out.p + 1].T @ q
print("accepted candidates reconstructed:",
      np.allclose(recon, offered[: out.p], atol=1e-12))
