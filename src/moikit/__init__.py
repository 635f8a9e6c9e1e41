"""moikit: divided differences, operator integrals, and derivatives of matrix functions.

Evaluate scalar functions of Hermitian matrices through spectral
decompositions, their higher Fréchet derivatives through symbol-weighted
spectral sums, and Taylor remainders in three equivalent forms, with
finite-difference and block-triangular oracles and certified Schatten-norm
bounds to verify every identity numerically.
"""

__version__ = "0.1.0"

from .errors import (
    ArityMismatch,
    CoincidentNodes,
    ConvergenceFailure,
    DimensionMismatch,
    EvaluationDomain,
    HolderMismatch,
    InsufficientDerivatives,
    InvalidP,
    MoikitError,
    NotHermitian,
)
from .frechet import (
    DerivativeRequest,
    block_triangular_derivative,
    finite_difference_derivative,
    matrix_function_derivative,
    moi_schatten_check,
    power_map_derivative,
    remainder_schatten_check,
    schatten_norm,
    taylor_remainder_direct,
    taylor_remainder_integral,
    taylor_remainder_moi,
)
from .moi import (
    MoiOperands,
    MoiSymbol,
    moi_evaluate,
    moi_opnorm_bound_check,
    moi_perturbation,
    moi_polynomial,
    moi_separated,
    moi_wiener,
)
from .report import Check, VerificationReport
from .scalar_functions import (
    CallableFunction,
    Polynomial,
    TaylorTruncation,
    WienerAtomic,
    builtin_function,
    divided_difference,
    divided_difference_batch,
    divided_difference_quadrature,
    divided_difference_recursive,
    divided_difference_sup_bound,
    function_from_spec,
    load_function,
    poly_divided_difference,
    simplex_rule,
    wiener_divided_difference,
    wiener_iptp_bound,
    wiener_taylor_truncate,
)
from .spectral import (
    SpectralDecomposition,
    functional_calculus,
    hermitian_eigendecompose,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    save_matrix,
    validate_decomposition,
)
