"""Solve one system two ways: column-at-a-time GMRES and the adaptive block solver.

Both converge to the same answer.  The block solver starts optimistic at
s0 = 10, the condition watchdog truncates the first block, and every later
block runs at the adapted width with exactly four global reductions each,
however wide the block is.
"""

import numpy as np

from sstep import SolverConfig, adaptive_gmres, gen_diagonal, gmres_baseline

n = 2000
a = gen_diagonal(n, 0.1, 10.0)
rng = np.random.default_rng(42)
b = rng.standard_normal(n)
b /= np.linalg.norm(b)

cfg = SolverConfig(basis="monomial", initial_step=10, restart_len=100,
                   max_restarts=10, track_loo=True)

tr = adaptive_gmres(a.matvec, b, config=cfg)
print("adaptive block solver")
print("  converged:", tr.converged, " iterations:", tr.iterations)
print("  block sizes:", tr.block_sizes[:6], "... (adapted from 10)")
print("  first-block condition trace:", [f"{v:.1e}" for v in tr.blocks[0].cond_trace])
print("  wasted candidate columns:", tr.wasted_columns)
print("  orthogonality loss:", f"{np.nanmax(tr.loo):.2e}")
print("  synchronizations in orthogonalization:",
      tr.counter.phase_reductions("ortho"),
      f"(= 4 x {len(tr.block_sizes)} blocks)")

tb = gmres_baseline(a.matvec, b, config=cfg)
print("\ncolumn-at-a-time baseline")
print("  converged:", tb.converged, " iterations:", tb.iterations)
print("  synchronizations in orthogonalization:",
      tb.counter.phase_reductions("ortho"))

print("\nfinal relative residuals: adaptive",
      f"{tr.final_relative_residual:.2e}, baseline {tb.final_relative_residual:.2e}")
print("reduction ratio (baseline / adaptive):",
      f"{tb.counter.total_reductions() / tr.counter.total_reductions():.1f}x")
