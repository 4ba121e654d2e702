"""Solvers and benchmarks for unconstrained two-player Nash equilibrium
problems: a Jacobi-type descent Newton method with prediction-based
simultaneous backtracking, plus Newton and exact-Jacobi baselines, a
benchmark problem suite, and certificate-style diagnostics."""

from .core import (
    NepProblem,
    NonFiniteEvaluation,
    PointClass,
    PointKind,
    Residual,
    classify_point,
    evaluate_residual,
    finite_diff_jacobian,
)
from .linalg import (
    DimensionMismatch,
    ShiftOverflow,
    SingularMatrixError,
    SpdSurrogate,
    assemble_block_system,
    lu_solve,
    modified_cholesky,
    spectral_bounds_sym,
)
from .solver import (
    IterateRecord,
    LineSearchCertificate,
    SolveReport,
    SolveStatus,
    SolverConfig,
    check_inequalities,
    compute_direction,
    safeguard_mixed_blocks,
    solve,
)
from .baselines import (
    InnerSolveFailure,
    exact_jacobi_step,
    newton_kkt_step,
    solve_exact_jacobi,
    solve_newton_kkt,
)
from .suite import (
    FacilityInstance,
    GenerationFailure,
    QuadraticNep,
    UnknownProblemId,
    get_problem,
    make_facility,
    random_quadratic_nep,
)
from .diagnostics import (
    AssumptionEstimates,
    LemmaCheckReport,
    StepsizeReport,
    estimate_assumptions,
    monitor_stepsizes,
    partial_direction_sums,
    validate_derivatives,
    verify_lemma_bounds,
)

__version__ = "0.1.0"
