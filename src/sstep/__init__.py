"""Adaptive s-step GMRES with condition-limited block QR and scaled polynomial bases."""

from .basis import (
    ChangeOfBasis,
    KrylovBlock,
    RitzSet,
    build_change_of_basis,
    default_overflow_limit,
    leja_order,
    matrix_powers,
    newton_scalings,
)
from .blockqr import BlockQrOutcome, bcgs2_partial_cholqr
from .dense import (
    BreakdownError,
    ConditionEstimator,
    GivensLs,
    PartialCholeskyResult,
    hessenberg_eigenvalues,
    partial_cholesky,
    svd_condition,
)
from .estimator import (
    DEFAULT_EPS_MODEL,
    DEFAULT_GROWTH_LIMIT,
    StepEstimate,
    estimate_initial_step,
)
from .harness import (
    ReductionCounter,
    RunComparison,
    RunManifest,
    RunResult,
    SolverConfig,
    build_rhs,
    compare_runs,
    load_run,
    resolve_matrix,
    run_experiment,
)
from .ilu import ILU0, ZeroPivotError, ilu0
from .solvers import (
    SolveTrace,
    adaptive_gmres,
    assemble_hessenberg,
    gmres_baseline,
    ritz_harvest,
)
from .sparse import (
    Equilibration,
    SparseMatrix,
    equilibrate,
    gen_diagonal,
    gen_laplace2d,
    gen_laplace3d,
    parse_matrix_market,
)

__version__ = "0.1.0"

__all__ = [
    "BlockQrOutcome",
    "BreakdownError",
    "ChangeOfBasis",
    "ConditionEstimator",
    "DEFAULT_EPS_MODEL",
    "DEFAULT_GROWTH_LIMIT",
    "Equilibration",
    "GivensLs",
    "ILU0",
    "KrylovBlock",
    "PartialCholeskyResult",
    "ReductionCounter",
    "RitzSet",
    "RunComparison",
    "RunManifest",
    "RunResult",
    "SolveTrace",
    "SolverConfig",
    "SparseMatrix",
    "StepEstimate",
    "ZeroPivotError",
    "adaptive_gmres",
    "assemble_hessenberg",
    "bcgs2_partial_cholqr",
    "build_change_of_basis",
    "default_overflow_limit",
    "compare_runs",
    "equilibrate",
    "estimate_initial_step",
    "gen_diagonal",
    "gen_laplace2d",
    "gen_laplace3d",
    "gmres_baseline",
    "hessenberg_eigenvalues",
    "ilu0",
    "leja_order",
    "load_run",
    "matrix_powers",
    "newton_scalings",
    "parse_matrix_market",
    "partial_cholesky",
    "build_rhs",
    "resolve_matrix",
    "ritz_harvest",
    "run_experiment",
    "svd_condition",
]
