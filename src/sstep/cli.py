"""Command line front end for single experiment runs.

Exit status: 0 when the run completed (converged or budget exhausted),
1 on usage or input errors, 2 when the solver broke down and its fallback
could not continue.
"""

from __future__ import annotations

import argparse
import sys

from .dense import BreakdownError
from .estimator import DEFAULT_GROWTH_LIMIT
from .harness import RunManifest, run_experiment
from .ilu import ZeroPivotError


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this tool reserves 2 for
    # solver breakdown, so usage errors leave with status 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="sstep",
        description="Run one GMRES experiment and write a per-iteration CSV plus a JSON summary.",
    )
    p.add_argument("--matrix", required=True,
                   help="Matrix Market file, or generator spec diag:n:lo:hi | lap2d:n | lap3d:n")
    p.add_argument("--solver", choices=("gmres", "adaptive"), default="adaptive",
                   help="column-at-a-time baseline or the adaptive block solver")
    p.add_argument("--basis", choices=("monomial", "newton", "scaled-newton"),
                   default="monomial", help="basis recurrence for the block solver")
    p.add_argument("--s0", type=int, default=10, help="starting block size")
    p.add_argument("--omega", type=float, default=1e7,
                   help="condition limit enforced by the block factorization")
    p.add_argument("--omega-est", type=float, default=DEFAULT_GROWTH_LIMIT,
                   help="growth threshold for the a priori step-size estimate")
    p.add_argument("--estimator", choices=("on", "off"), default="off",
                   help="cap the starting block size with the a priori estimate")
    p.add_argument("--restart", type=int, default=100, help="Krylov columns per cycle")
    p.add_argument("--max-restarts", type=int, default=10,
                   help="extra cycles allowed after the first")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="relative residual convergence target")
    p.add_argument("--precond", choices=("none", "ilu0"), default="none")
    p.add_argument("--equilibrate", choices=("none", "scalar", "column"), default="none")
    p.add_argument("--loo", choices=("on", "off"), default="off",
                   help="record basis orthogonality loss per iteration")
    p.add_argument("--rhs", choices=("ones", "random"), default="ones",
                   help="b = A @ ones, or a seeded random unit vector")
    p.add_argument("--seed", type=int, default=0, help="seed for the random rhs")
    p.add_argument("--out", default=".", help="directory for the CSV and JSON files")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    manifest = RunManifest(
        matrix=args.matrix,
        solver=args.solver,
        basis=args.basis,
        initial_step=args.s0,
        restart_len=args.restart,
        max_restarts=args.max_restarts,
        rel_tol=args.tol,
        cond_limit=args.omega,
        growth_limit=args.omega_est,
        use_step_estimator=args.estimator == "on",
        precond=args.precond,
        equilibrate=args.equilibrate,
        track_loo=args.loo == "on",
        rhs=args.rhs,
        seed=args.seed,
    )
    try:
        result = run_experiment(manifest, args.out)
    except (ValueError, OSError) as exc:
        print(f"sstep: error: {exc}", file=sys.stderr)
        return 1
    except ZeroPivotError as exc:
        print(f"sstep: error: ilu0: {exc}", file=sys.stderr)
        return 1
    except BreakdownError as exc:
        print(f"sstep: breakdown: {exc}", file=sys.stderr)
        return 2

    res = result.summary["result"]
    prob = result.summary["problem"]
    print(f"matrix {prob['matrix']}  n={prob['n']}  solver={args.solver} basis={args.basis}")
    state = "converged" if res["converged"] else ("broke down" if res["breakdown"] else "stopped")
    ncyc = res["restarts"] + 1
    print(
        f"{state} after {res['iterations']} iterations ({ncyc} cycle{'s' if ncyc != 1 else ''}), "
        f"final relative residual {res['final_relative_residual']:.3e}"
    )
    print(f"wrote {result.csv_path} and {result.json_path}")
    if res["breakdown"] and not res["converged"]:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
