"""dagprox: hierarchical sparsity via the latent overlapping group lasso.

Builds the ancestor group system of a DAG, evaluates the latent
overlapping group (LOG) penalty and its proximal operator with five
interchangeable solvers (block coordinate descent, its randomized variant,
the sharing-scheme ADMM, ISTA and FISTA), certifies solutions through KKT
residuals and proximal-gradient norms, and fits smooth losses regularized
by the penalty with an outer proximal-gradient loop.  A dense-factorization
ADMM is kept as a test reference for the sharing solver.
"""

from .errors import (
    CapExceeded,
    CycleDetected,
    DagproxError,
    DimensionMismatch,
    DuplicateEdge,
    EmptyGroup,
    IndexOutOfRange,
    InnerSolverWarning,
    InsufficientData,
    InvalidStep,
    NoConvergence,
    NonFiniteInput,
    NonFiniteIterate,
)
from .graph import (
    Dag,
    GroupSet,
    HierarchyReport,
    HierarchyViolation,
    ancestor_groups,
    build_index_map,
    check_hierarchy_conformance,
    read_edge_list,
    read_group_file,
    validate_dag,
    write_edge_list,
    write_group_file,
)
from .kernels import (
    ProxInstance,
    SumOperator,
    group_soft_threshold,
    log_penalty_value,
    objective_f,
    operator_norm_sq,
)
from .diagnostics import (
    ConvergenceTrace,
    RateFit,
    TraceRecord,
    fit_linear_rate,
    kkt_residual,
    proxgrad_norm,
)
from .solvers import (
    SOLVER_NAMES,
    ProxResult,
    SolveOptions,
    SolverState,
    prox_log_admm_sharing,
    prox_log_admm_unscaled,
    prox_log_bcd,
    prox_log_pgm,
    solve_prox,
)
from .learn import (
    FitResult,
    LeastSquaresLoss,
    LogisticLoss,
    OuterOptions,
    fit,
    lambda_max,
)
from . import bench

__version__ = "0.1.0"

__all__ = [
    "Dag", "GroupSet", "HierarchyReport", "HierarchyViolation",
    "validate_dag", "ancestor_groups",
    "build_index_map", "check_hierarchy_conformance",
    "read_edge_list", "write_edge_list", "read_group_file", "write_group_file",
    "SumOperator", "ProxInstance", "group_soft_threshold",
    "objective_f", "log_penalty_value", "operator_norm_sq",
    "ConvergenceTrace", "TraceRecord", "RateFit",
    "proxgrad_norm", "kkt_residual", "fit_linear_rate",
    "SolveOptions", "SolverState", "ProxResult", "SOLVER_NAMES",
    "prox_log_bcd", "prox_log_admm_unscaled", "prox_log_admm_sharing",
    "prox_log_pgm", "solve_prox",
    "LeastSquaresLoss", "LogisticLoss", "OuterOptions", "FitResult",
    "fit", "lambda_max",
    "bench",
    "DagproxError", "CycleDetected", "DuplicateEdge", "IndexOutOfRange",
    "EmptyGroup", "DimensionMismatch", "NonFiniteInput", "NonFiniteIterate",
    "InvalidStep", "CapExceeded", "NoConvergence",
    "InsufficientData", "InnerSolverWarning",
]
