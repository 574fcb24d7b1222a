"""Command line front end for single experiment runs.

Exit status: 0 when the run completed (converged or budget exhausted),
1 on usage or input errors or when the problem does not fit in memory, 2
when the solver broke down and its fallback could not continue.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields

from .dense import BreakdownError
from .harness import CHOICES, GENERATORS, RunManifest, run_experiment
from .ilu import ZeroPivotError


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this tool reserves 2 for
    # solver breakdown, so usage errors leave with status 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# (flag, RunManifest field, help); defaults come from the dataclass, allowed
# values from CHOICES, generator spec forms from GENERATORS, and a bool field
# takes on/off
FLAGS = (
    ("--matrix", "matrix", "Matrix Market file, or generator spec "
     + " | ".join(form for *_, form in GENERATORS.values())),
    ("--solver", "solver", "column-at-a-time baseline or the adaptive block solver"),
    ("--basis", "basis", "basis recurrence for the block solver"),
    ("--s0", "initial_step", "starting block size"),
    ("--omega", "cond_limit", "condition limit enforced by the block factorization"),
    ("--omega-est", "growth_limit", "growth threshold for the a priori step-size estimate"),
    ("--estimator", "use_step_estimator", "cap the starting block size with the a priori estimate"),
    ("--restart", "restart_len", "Krylov columns per cycle"),
    ("--max-restarts", "max_restarts", "extra cycles allowed after the first"),
    ("--tol", "rel_tol", "relative residual convergence target"),
    ("--precond", "precond", None),
    ("--equilibrate", "equilibrate", None),
    ("--loo", "track_loo", "record basis orthogonality loss per iteration"),
    ("--rhs", "rhs", "b = A @ ones, or a seeded random unit vector"),
    ("--seed", "seed", "seed for the random rhs"),
)

_DEFAULTS = {f.name: f.default for f in fields(RunManifest)}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="sstep",
        description="Run one GMRES experiment and write a per-iteration CSV plus a JSON summary.",
    )
    for flag, name, text in FLAGS:
        default = _DEFAULTS[name]
        if default is MISSING:
            p.add_argument(flag, required=True, help=text)
        elif name in CHOICES:
            p.add_argument(flag, choices=CHOICES[name], default=default, help=text)
        elif isinstance(default, bool):
            p.add_argument(flag, choices=("on", "off"), default="on" if default else "off",
                           help=text)
        else:
            p.add_argument(flag, type=type(default), default=default, help=text)
    p.add_argument("--out", default=".", help="directory for the CSV and JSON files")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kwargs = {}
    for flag, name, _ in FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        kwargs[name] = value == "on" if isinstance(_DEFAULTS[name], bool) else value
    try:
        result = run_experiment(RunManifest(**kwargs), args.out)
    except (ValueError, OSError) as exc:
        print(f"sstep: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"sstep: error: the problem does not fit in memory: {exc}", file=sys.stderr)
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
    # a harvest cycle is not a restart, so restarts + 1 need not count the cycles
    nres = res["restarts"]
    print(
        f"{state} after {res['iterations']} iterations ({nres} restart{'s' if nres != 1 else ''}), "
        f"final relative residual {res['final_relative_residual']:.3e}"
    )
    print(f"wrote {result.csv_path} and {result.json_path}")
    if res["breakdown"] and not res["converged"]:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
