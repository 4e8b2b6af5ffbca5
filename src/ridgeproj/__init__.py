"""Principal component projection and regression without computing components.

The library projects vectors onto the span of a matrix's top principal
components, and solves principal component regression, using only repeated
calls to a ridge-regression solver.  A scalar toolkit for the underlying
sign/step polynomial approximation theory, a desk-scale SVD oracle for
verification, and a synthetic-experiment harness round out the package.
"""

from .exceptions import (
    BudgetExceeded,
    ConvergenceFailure,
    DimensionMismatch,
    RidgeProjError,
)
from .experiments import convergence_trace, run_convergence
from .fileio import (
    load_matrix,
    load_trace_csv,
    load_vector,
    save_matrix,
    save_trace_csv,
    save_vector,
)
from .matrix import DesignMatrix, gram_apply, gram_norm
from .pcr import PcrConfig, pc_regress
from .project import ProjectionConfig, pc_proj
from .ridge import ridge_solve
from .signpoly import (
    chebyshev_monomial_approx,
    compressed_sign_poly,
    integral_step_oracle,
    p_k_eval,
    p_k_grid,
    sign_error_bound,
    sign_poly_degree,
)
from .spectral import MatrixStats, matrix_stats, spectral_norm_estimate
from .stepfn import OperatorHandle, apply_step
from .svd import SvdFactors, exact_pcr, exact_projection, svd_small
from .synthetic import SyntheticProblem, gen_synthetic
from .trace import ConvergenceTrace

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "RidgeProjError",
    "DimensionMismatch",
    "BudgetExceeded",
    "ConvergenceFailure",
    "DesignMatrix",
    "gram_apply",
    "gram_norm",
    "SvdFactors",
    "svd_small",
    "exact_projection",
    "exact_pcr",
    "MatrixStats",
    "matrix_stats",
    "spectral_norm_estimate",
    "ridge_solve",
    "p_k_eval",
    "p_k_grid",
    "sign_poly_degree",
    "sign_error_bound",
    "integral_step_oracle",
    "chebyshev_monomial_approx",
    "compressed_sign_poly",
    "OperatorHandle",
    "apply_step",
    "ProjectionConfig",
    "pc_proj",
    "PcrConfig",
    "pc_regress",
    "SyntheticProblem",
    "gen_synthetic",
    "ConvergenceTrace",
    "convergence_trace",
    "run_convergence",
    "load_matrix",
    "save_matrix",
    "load_vector",
    "save_vector",
    "save_trace_csv",
    "load_trace_csv",
]
