"""The benchmark's timing hooks still bind to the modules a solve passes through.

perfbench/tracing.py patches module attributes by name.  A call site that
moves, or a function looked up once at import, would leave a hook silent
and the benchmark would report zeros; this runs one small traced solve
with those hooks, the way perfbench/run.py does, and checks each fired.
"""

import types
from pathlib import Path

import numpy as np

import sstep.solvers
from sstep import RunManifest, gen_laplace2d, run_experiment

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench/tracing.py as a module, compiled from its text so nothing is written beside it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_probe_and_tracer_see_a_scaled_newton_solve(tmp_path):
    tracing = load_tracing()
    probe, tracer = tracing.Probe(), tracing.Tracer()
    manifest = RunManifest(matrix="lap2d:12", basis="scaled-newton", initial_step=12,
                           restart_len=24, use_step_estimator=True, rhs="random", seed=2)
    harvest = sstep.solvers.ritz_harvest
    with tracing.patched(probe.patches()):
        with tracing.patched(tracer.patches()):
            result = run_experiment(manifest, str(tmp_path))
    assert sstep.solvers.ritz_harvest is harvest  # the patches are undone
    assert result.summary["result"]["converged"]
    assert probe.enter is not None and probe.leave is not None
    assert probe.ritz is not None and len(probe.ritz.values) > 0
    for layer in ("solvers.harvest", "basis.mpk", "blockqr", "dense.lsq"):
        assert tracer.calls[layer] > 0, layer
    # what the kernels return, as the hooks read it, is what the solve records
    blocks = result.trace.blocks
    assert blocks and tracer.accepted > 0
    assert tracer.generated == sum(blk.asked for blk in blocks)
    assert tracer.accepted == sum(blk.kept for blk in blocks)


def test_tracer_sees_the_matrix_market_parse(tmp_path):
    # the benchmark's sparse.parse_s hook wraps the parser the harness calls
    tracing = load_tracing()
    a = gen_laplace2d(4)
    rows = np.repeat(np.arange(a.n), np.diff(a.indptr))
    path = tmp_path / "lap2d4.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n{a.n} {a.n} {a.nnz}\n"
                    + "".join(f"{i + 1} {j + 1} {float(v)!r}\n"
                              for i, j, v in zip(rows, a.indices, a.data)))
    probe, tracer = tracing.Probe(), tracing.Tracer()
    manifest = RunManifest(matrix=str(path), basis="newton", initial_step=4, restart_len=16,
                           rhs="random", seed=1)
    with tracing.patched(probe.patches()):
        with tracing.patched(tracer.patches()):
            result = run_experiment(manifest, str(tmp_path))
    assert result.summary["result"]["converged"]
    assert probe.enter is not None
    assert tracer.calls["sparse.parse"] == 1
    assert tracer.metrics()["sparse.parse_s"] > 0.0
