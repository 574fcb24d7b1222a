"""Print one fingerprint line per fixed run of an sstep checkout.

    python tools/fingerprint.py CHECKOUT

Imports ``sstep`` from ``CHECKOUT/src`` and runs a fixed set of problems:
manifests through ``run_experiment`` (the baseline, all three bases,
ILU(0), scalar and column equilibration, the step estimator, and a
nonsymmetric convection-diffusion matrix read from a Matrix Market file,
whose harvest has 18 conjugate pairs, and a singular system whose
confirmation does not converge), plus direct solver calls with
short user-given shift sets that have to be cycled and a harvest that
exhausts the Krylov space of ``diag:6``.

Each line names the run and gives the sha256 (first 16 hex digits) of its
per-iteration CSV (of the trace arrays for a direct call) and of ``x``,
the counters by phase, the block sizes, wasted columns, restarts, the
convergence and breakdown flags, and s0*.  Two checkouts that print the
same lines computed the same bits on every run.  BLAS runs on one thread,
since the thread count changes summation order.  Compare a change with its
parent by running this on both and diffing the output.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pins)

DIAG = "diag:3000:0.1:10.0"
# the convection-diffusion grid, its cell Peclet numbers, and the harvest
# length that gives 18 conjugate pairs from b = A @ ones
CONVDIFF_GRID, PECLET_X, PECLET_Y, CONVDIFF_STEP = 16, 0.5, 0.3, 40


def write_convdiff(path: str):
    """-Laplacian plus central-difference convection on the grid, as Matrix Market."""
    m = CONVDIFF_GRID
    idx = np.arange(m * m).reshape(m, m)
    parts = [(idx, idx, 4.0),
             (idx[:, 1:], idx[:, :-1], -1.0 - PECLET_X), (idx[:, :-1], idx[:, 1:], -1.0 + PECLET_X),
             (idx[1:], idx[:-1], -1.0 - PECLET_Y), (idx[:-1], idx[1:], -1.0 + PECLET_Y)]
    with open(path, "w", encoding="ascii") as f:
        f.write("%%MatrixMarket matrix coordinate real general\n")
        f.write(f"{m * m} {m * m} {sum(r.size for r, _, _ in parts)}\n")
        for rows, cols, value in parts:
            for r, c in zip(rows.ravel(), cols.ravel()):
                f.write(f"{r + 1} {c + 1} {value!r}\n")


def manifests(mtx: str) -> list:
    """(name, RunManifest keywords) of every run through run_experiment."""
    lap = "lap2d:20"
    return [
        ("gmres-diag", dict(matrix=DIAG, solver="gmres", restart_len=40, track_loo=True)),
        ("gmres-lap2d-ilu0", dict(matrix=lap, solver="gmres", precond="ilu0", restart_len=30)),
        ("monomial-diag", dict(matrix=DIAG, initial_step=10, restart_len=40, track_loo=True)),
        ("newton-lap2d", dict(matrix=lap, basis="newton", initial_step=12, restart_len=36,
                              rhs="random", seed=5)),
        ("scaled-newton-lap2d", dict(matrix=lap, basis="scaled-newton", initial_step=24,
                                     restart_len=48, track_loo=True)),
        ("ilu0-lap2d", dict(matrix=lap, basis="scaled-newton", precond="ilu0",
                            initial_step=30, restart_len=30)),
        ("scalar-eq-diag", dict(matrix=DIAG, basis="scaled-newton", equilibrate="scalar",
                                initial_step=16, restart_len=32)),
        ("scalar-eq-ilu0", dict(matrix=lap, basis="newton", equilibrate="scalar",
                                precond="ilu0", initial_step=10, restart_len=30)),
        ("column-eq-lap2d", dict(matrix=lap, basis="scaled-newton", equilibrate="column",
                                 initial_step=20, restart_len=40, rhs="random", seed=2)),
        ("estimator-lap2d", dict(matrix=lap, basis="scaled-newton", use_step_estimator=True,
                                 initial_step=40, restart_len=40)),
        ("estimator-monomial-diag", dict(matrix=DIAG, use_step_estimator=True, initial_step=20,
                                         restart_len=40, rhs="random", seed=1)),
        ("convdiff-scaled-newton", dict(matrix=mtx, basis="scaled-newton",
                                        use_step_estimator=True, initial_step=CONVDIFF_STEP,
                                        restart_len=CONVDIFF_STEP, track_loo=True)),
        ("convdiff-newton", dict(matrix=mtx, basis="newton", initial_step=16, restart_len=40,
                                 rhs="random", seed=3)),
        ("convdiff-monomial", dict(matrix=mtx, initial_step=12, restart_len=40)),
        ("convdiff-ilu0", dict(matrix=mtx, basis="scaled-newton", precond="ilu0",
                               initial_step=20, restart_len=20, use_step_estimator=True)),
        # singular, b outside the range: the harvest's confirmation improves on
        # b without converging, and the solve then breaks down
        ("singular-scaled-newton", dict(matrix="diag:2:0:1", basis="scaled-newton",
                                        initial_step=2, restart_len=8, max_restarts=5,
                                        rhs="random", seed=4)),
    ]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def trace_digest(tr) -> str:
    return digest(tr.residuals, tr.loo, tr.block_size, tr.reductions_cum, tr.spmv_cum)


def line(name: str, data: str, trace, counters: dict) -> str:
    phases = ",".join(f"{ph}:" + "/".join(str(counters[ph][k]) for k in sorted(counters[ph]))
                      for ph in sorted(counters))
    return (f"{name} data={data} x={digest(trace.x)} counters={phases} "
            f"blocks={[int(p) for p in trace.block_sizes]} wasted={int(trace.wasted_columns)} "
            f"restarts={int(trace.restarts)} converged={bool(trace.converged)} "
            f"breakdown={bool(trace.breakdown)} s0_star={trace.s0_star}")


def direct_runs(sstep, mtx: str) -> list:
    """Solver calls without the harness: user shift sets, harvests, the estimator."""
    out = []
    lap = sstep.gen_laplace2d(12)
    b = lap.matvec(np.ones(lap.n))
    shift_sets = [
        # cycled to each block's width, which at some widths ends on half a pair
        ("shifts-pair-real", "scaled-newton", [2.0 + 1.0j, 2.0 - 1.0j, 0.5], 8),
        ("shifts-pair", "newton", [3.0 + 0.5j, 3.0 - 0.5j], 7),
        ("shifts-real", "newton", [1.0, 4.0], 6),
    ]
    for name, basis, values, step in shift_sets:
        cfg = sstep.SolverConfig(basis=basis, initial_step=step, restart_len=24)
        counter = sstep.ReductionCounter()
        tr = sstep.adaptive_gmres(lap.matvec, b, config=cfg, counter=counter,
                                  ritz=sstep.RitzSet.from_values(values))
        out.append(line(name, trace_digest(tr), tr, counter.as_dict()))

    small = sstep.gen_diagonal(6, 1.0, 6.0)
    rhs = small.matvec(np.ones(6))
    ritz = sstep.ritz_harvest(small.matvec, rhs, 10)
    est = sstep.estimate_initial_step(ritz)
    out.append(f"harvest-diag6 values={digest(ritz.values)} count={len(ritz.values)} "
               f"s0_star={est.s0_star} estimate={digest(est.col_norms, est.log_growth)}")
    cfg = sstep.SolverConfig(basis="scaled-newton", initial_step=10, restart_len=10)
    counter = sstep.ReductionCounter()
    tr = sstep.adaptive_gmres(small.matvec, rhs, config=cfg, counter=counter, ritz=ritz)
    out.append(line("harvested-diag6", trace_digest(tr), tr, counter.as_dict()))

    a = sstep.parse_matrix_market(mtx)
    ritz = sstep.ritz_harvest(a.matvec, a.matvec(np.ones(a.n)), CONVDIFF_STEP)
    est = sstep.estimate_initial_step(ritz)
    pairs = int(np.count_nonzero(ritz.values.imag > 0))
    out.append(f"harvest-convdiff values={digest(ritz.values)} pairs={pairs} "
               f"s0_star={est.s0_star} estimate={digest(est.col_norms, est.log_growth)}")
    return out


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    src = os.path.abspath(os.path.join(args[0], "src"))
    sys.path.insert(0, src)
    import sstep

    if not os.path.abspath(sstep.__file__).startswith(src + os.sep):
        print(f"sstep was imported from {sstep.__file__}, not {src}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as work:
        mtx = os.path.join(work, "convdiff.mtx")
        write_convdiff(mtx)
        lines = []
        for name, kwargs in manifests(mtx):
            res = sstep.run_experiment(sstep.RunManifest(label=name, **kwargs), work)
            with open(res.csv_path, "rb") as f:
                csv = hashlib.sha256(f.read()).hexdigest()[:16]
            lines.append(line(name, csv, res.trace, res.summary["counters"]))
        lines += direct_runs(sstep, mtx)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
