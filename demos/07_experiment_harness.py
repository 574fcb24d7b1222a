"""Run manifests, write traces, and compare two solvers on the same problem.

Every run produces a per-iteration CSV (byte-identical across reruns) and
a JSON sidecar with the problem echo, settings, outcome, the full
reduction-counter table, and the wall time of each counter phase.  The
same runs are available from the shell:

    sstep --matrix lap2d:32 --solver adaptive --s0 10 --restart 100 --out runs
    sstep --matrix lap2d:32 --solver gmres --restart 100 --out runs
"""

import tempfile

from sstep import RunManifest, compare_runs, load_run, run_experiment
from sstep.harness import PHASES, REDUCTION_KINDS

out = tempfile.mkdtemp(prefix="sstep-demo-")

common = dict(matrix="lap2d:32", rhs="ones", restart_len=100, rel_tol=1e-10)
block = run_experiment(RunManifest(solver="adaptive", basis="monomial",
                                   initial_step=10, **common), out)
base = run_experiment(RunManifest(solver="gmres", initial_step=10, **common), out)

for r in (block, base):
    res = r.summary["result"]
    print(f"{r.summary['solver']['kind']:>8}: {res['iterations']} iterations, "
          f"final residual {res['final_relative_residual']:.2e}")
    print(f"          wrote {r.csv_path}")

print("\nper phase: reductions and seconds (from each sidecar)")
for r in (block, base):
    side = load_run(r).meta
    print(f"  {side['solver']['kind']}:")
    for ph in PHASES:
        red = sum(side["counters"][ph][kind] for kind in REDUCTION_KINDS)
        print(f"    {ph:>8} {red:>6} reductions {side['timings'][ph]:9.4f} s")

data = load_run(block)
print("\nfirst rows of the block-solver trace:")
print("  iter rel_res      block reductions spmv")
for t in range(3):
    print(f"  {data.iter[t]:>4} {data.rel_res[t]:.6e} {data.block_size[t]:>4}"
          f" {data.reductions_cum[t]:>10} {data.spmv_cum[t]:>4}")

cmp = compare_runs(block, base)
print("\ncomparison:")
print("  residual curves agree to", f"{cmp.max_log10_gap:.2f}", "decades")
print("  reduction ratio (block / baseline):", f"{cmp.reduction_ratio:.3f}")
print("  iterations:", cmp.iterations)
