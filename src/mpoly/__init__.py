"""M-matrix certification and feasibility search over matrix polytopes.

Certifies nonsingular M-matrices through five cross-validating
characterizations, builds the graph-to-matrix-polytope gadget families whose
feasibility encodes independent-set thresholds, and searches matrix
polytopes for combinations that are M-matrices, Hurwitz, or contractive in
spectral radius. Boundary decisions run in exact rational arithmetic
wherever the data allows; float decisions near a boundary are reported as
MARGINAL rather than guessed.
"""

from .config import DEFAULT_TOLERANCE, reset_tolerance, set_tolerance, tolerance
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DomainError,
    NoConvergence,
    NotIndependent,
    NotSymmetric,
    SingularBlock,
)
from .linalg import (
    Backing,
    Matrix,
    Status,
    Verdict,
    collatz_wielandt_ratio,
    det,
    eigenvalues,
    is_z_matrix,
    leading_principal_minors,
    matrices_from_json,
    matrices_to_json,
    schur_complement,
    spectral_radius,
)
from .mmatrix import (
    CONDITIONS,
    CertificationReport,
    certify,
    check_d16,
    check_e17,
    check_n38,
    check_positive_stable,
    check_rho_split,
)
from .oracle import (
    IndependentSetResult,
    MSolveResult,
    alpha_lower_bound,
    decide_threshold,
    extract_independent_set,
    is_threshold_proof,
    max_independent_set,
    motzkin_straus_min,
)
from .reduction import (
    Graph,
    ReductionInstance,
    build_instance,
    convex_combination,
    det_closed_form,
    instance_graph,
    nonneg_parts,
    parse_graph,
    quadratic_form,
    witness_from_independent_set,
    write_graph,
)
from .search import (
    SearchOutcome,
    SearchStatus,
    hurwitz_search,
    minimize_spectral_radius,
    search_general,
    search_symmetric,
)
from .simplex import SimplexPoint

__version__ = "0.1.0"
