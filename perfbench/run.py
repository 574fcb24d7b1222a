"""Solver benchmark: one workload, end-to-end or per-layer metrics, checked solutions.

    python3 perfbench/run.py --workload lap2d-ilu-wide --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src.  A round
solves the workload's problem for four random right-hand sides derived
from --seed, each with one `sstep.harness.run_experiment` call, the path
the `sstep` command takes.  Rounds repeat until --seconds have passed, and
every solution is checked against a reference built without `sstep`.

--trace 0 reports the end-to-end metrics: per solve, the medians over the
rounds of the set-up and solve times, the counts, and how far one extra,
untimed solve raised the peak resident set.  --trace 1 alternates untraced
rounds with rounds traced at the module boundaries and reports per-layer
medians, plus the traced rounds' overhead against the untraced ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; attempted counts solves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# pinned before numpy loads: with the default two threads OpenBLAS made the
# narrow block-QR products slower and their timings less repeatable
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "solve_s": "s", "iterations": "count", "reductions": "count",
    "spmv": "count", "peak_mem_mb": "MB",
}
PHASES = ("harvest", "mpk", "ortho", "residual", "fallback")
REDUCTION_KINDS = ("gram_products", "projections", "norms", "true_residual_checks")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("width"):
        return "columns"
    return "count"


@dataclass
class Solve:
    """One run_experiment call, split at the solver call."""

    setup_s: float
    solve_s: float
    output_s: float
    total_s: float
    result: object
    ritz: object
    layers: dict | None = None

    def counts(self) -> dict:
        c = self.result.summary["counters"]
        out = {"iterations": self.result.summary["result"]["iterations"]}
        out["reductions"] = sum(c[ph][k] for ph in PHASES for k in REDUCTION_KINDS)
        out["spmv"] = sum(c[ph]["spmv"] for ph in PHASES)
        for ph in PHASES:
            out[f"reductions.{ph}"] = sum(c[ph][k] for k in REDUCTION_KINDS)
        for ph in PHASES:
            out[f"spmv.{ph}"] = c[ph]["spmv"]
        return out


class Bench:
    def __init__(self, workload, seed: int, work_dir: Path):
        from sstep import RunManifest
        from workloads import manifest_kwargs, warm_kwargs

        self.w = workload
        self.seed = seed
        self.work = work_dir
        kwargs = manifest_kwargs(workload, seed, str(work_dir))
        self.manifests = [RunManifest(**kw) for kw in kwargs]
        self.warm_manifest = RunManifest(**warm_kwargs(workload, seed, str(work_dir)))
        self.refs = None
        self.attempted = 0
        self.failed = 0
        self.checks = []  # (solve index, Check)
        self._signatures = {}

    def build_references(self):
        from workloads import build_references

        self.refs = build_references(self.w, self.seed)

    def solve(self, manifest, traced: bool = False) -> Solve:
        from sstep import run_experiment
        from tracing import Probe, Tracer, patched

        probe, tracer = Probe(), Tracer() if traced else None
        with patched(probe.patches()):
            with patched(tracer.patches() if traced else []):
                t0 = time.perf_counter()
                result = run_experiment(manifest, str(self.work / "out"))
                t1 = time.perf_counter()
        return Solve(probe.enter - t0, probe.leave - probe.enter, t1 - probe.leave, t1 - t0,
                     result, probe.ritz, tracer.metrics() if traced else None)

    def round(self, traced: bool = False) -> list | None:
        """Solve and check every right-hand side; None when a solve raised."""
        solves = []
        for k, manifest in enumerate(self.manifests):
            self.attempted += 1
            try:
                s = self.solve(manifest, traced)
            except Exception:  # noqa: BLE001 - a failed solve is counted and the run goes on
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                continue
            self.check(k, s)
            solves.append(s)
        return solves if len(solves) == len(self.manifests) else None

    def check(self, k: int, s: Solve):
        from checks import (Check, perturbed_solution_rejected, property_checks, read_csv,
                            solution_checks)

        res, ref = s.result, self.refs[k]
        rel_tol = self.manifests[k].rel_tol
        found = solution_checks(ref, res.trace.x, rel_tol)
        found += property_checks(self.w, res.summary, read_csv(res.csv_path), s.ritz)
        with open(res.csv_path, "rb") as f:
            sig = (hashlib.sha256(f.read()).hexdigest(),
                   json.dumps(res.summary["counters"], sort_keys=True))
        if k not in self._signatures:
            self._signatures[k] = sig
            found.append(perturbed_solution_rejected(ref, res.trace.x, rel_tol))
        else:
            found.append(Check("same_as_first_round", sig == self._signatures[k],
                               "CSV bytes and counters match the first solve of this rhs"))
        self.checks += [(self.attempted - 1, c) for c in found]

    @property
    def correct(self) -> bool:
        return all(c.ok for _, c in self.checks)

    def memory_solve(self) -> tuple:
        """One full solve, unchecked, with how far it raised the peak resident set.

        Call it right after the small warm-up and before the references are
        built, so that the peak it starts from is little above the resident
        set and nothing but the solve can raise it.
        """
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.attempted += 1
        s = self.solve(self.manifests[0])
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return s, (after - before) / 1024  # ru_maxrss is in KiB on Linux


def median_of_rounds(rounds, value) -> float:
    """Median over rounds of the per-solve mean of value(solve)."""
    return statistics.median(statistics.fmean(value(s) for s in r) for r in rounds)


def timed_rounds(bench: Bench, seconds: float, traced_at) -> list:
    """Whole rounds for about `seconds`; at least one of each kind asked for.

    Another round starts while more than half a round's time is left, so
    the rounds end within half a round of the deadline.
    """
    rounds = []
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if k >= 2 and seconds - elapsed <= elapsed / k / 2:
            break
        traced = traced_at(k)
        r = bench.round(traced)
        if r is not None:
            rounds.append((traced, r))
        k += 1
    if {traced_at(0), traced_at(1)} - {t for t, _ in rounds}:
        raise RuntimeError("every round of one kind had a failed solve; no metric to report")
    return rounds


def end_to_end(bench: Bench, seconds: float) -> dict:
    first, peak = bench.memory_solve()
    bench.build_references()
    bench.check(0, first)
    rounds = [r for _, r in timed_rounds(bench, seconds, lambda k: False)]
    counts = [s.counts() for s in rounds[0]]
    return {
        "setup_s": median_of_rounds(rounds, lambda s: s.setup_s),
        "solve_s": median_of_rounds(rounds, lambda s: s.solve_s),
        **{name: statistics.fmean(c[name] for c in counts)
           for name in ("iterations", "reductions", "spmv")},
        "peak_mem_mb": peak,
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    bench.build_references()
    rounds = timed_rounds(bench, seconds, lambda k: k % 2 == 1)
    plain = [r for t, r in rounds if not t]
    traced = [r for t, r in rounds if t]
    out = {name: median_of_rounds(traced, lambda s: s.layers[name]) for name in traced[0][0].layers}
    out["harness.output_s"] = median_of_rounds(traced, lambda s: s.output_s)
    counts = [s.counts() for s in traced[0]]
    for name in counts[0]:
        if "." in name:
            out[name] = statistics.fmean(c[name] for c in counts)
    overhead = (median_of_rounds(traced, lambda s: s.total_s)
                / median_of_rounds(plain, lambda s: s.total_s) - 1.0)
    out["trace.overhead_pct"] = 100.0 * overhead
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sstep" / "__init__.py").is_file():
        print(f"run.py: no sstep package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload '{args.workload}', choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = HERE / ".work" / w.name
    work.mkdir(parents=True, exist_ok=True)
    print("env", json.dumps(environment(), sort_keys=True))

    bench = Bench(w, args.seed, work)
    bench.solve(bench.warm_manifest)
    metrics = per_layer(bench, args.seconds) if args.trace else end_to_end(bench, args.seconds)

    by_name = {}
    for index, c in bench.checks:
        by_name.setdefault(c.name, []).append((index, c))
    for name, found in by_name.items():
        bad = [(i, c) for i, c in found if not c.ok]
        index, c = (bad or found)[0]
        print(f"check {'FAIL' if bad else 'PASS'} {name}: {len(found) - len(bad)}/{len(found)}"
              f" pass; solve {index}: {c.detail}")
    units = {k: layer_unit(k) for k in metrics} if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"metric {name} {value} {units[name]}")
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
