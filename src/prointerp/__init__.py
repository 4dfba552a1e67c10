"""Positive real odd rational interpolation at matrix points.

Decide whether a matrix pair (A, B) admits a positive real odd rational
function f with f(A) = B, and construct a lossless state-space realization
of one in the full-rank ("suboptimal") case, via Lyapunov quotient maps,
minimal Hill representations, and a structured skew-symmetric least-squares
solve.
"""

from .commutant import (
    MembershipResult,
    SubspaceBasis,
    bicommutant_basis,
    commutant_basis,
    m_max,
    membership,
)
from .errors import (
    NotInBicommutantError,
    NotLyapunovRegularError,
    NotPositiveDefiniteError,
    NotStarLinearError,
    NotSymmetricError,
    PoleHitError,
    ProinterpError,
    RankMismatchError,
    ResidualTooLargeError,
    SingularPencilError,
)
from .hill import (
    C1Result,
    HillRepresentation,
    PositivityTestResult,
    apply_hill,
    block_span,
    c1_diagnostic,
    choi,
    coefficient_stack,
    is_completely_positive,
    minimal_hill,
    positivity_sample_test,
)
from .lyapunov import (
    LinearMatrixMap,
    OrderTestResult,
    is_lyapunov_regular,
    lab_map,
    lyap_map,
    lyap_order_sample_test,
    sample_lyapunov_solution,
    solve_lyapunov,
)
from .matrix_kit import (
    DEFAULT_TOL,
    Tolerances,
    eigenvalues,
    kron,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    psd_factor,
    rank_nullspace_pinv,
    unvec,
    vec,
)
from .pro import ProRealization, eval_matrix, eval_scalar, pro_diagnostics, realization_checks
from .solver import (
    PencilPair,
    SolveReport,
    build_pencils,
    extract_realization,
    hill_pick,
    perturb_free_block,
    range_structure,
    solve,
    solve_skew,
    standard_collection,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
