"""The public names of the package.

ROADMAP keeps the names that ``mpoly/__init__.py`` exports stable unless a
change says why, so they are pinned here one a line: adding or removing
one shows up as a one-line diff of this list.
"""

import types

import mpoly

PUBLIC_NAMES = [
    'alpha_lower_bound',
    'Backing',
    'BudgetExceeded',
    'build_instance',
    'CertificationReport',
    'certify',
    'check_d16',
    'check_e17',
    'check_n38',
    'check_positive_stable',
    'check_rho_split',
    'collatz_wielandt_ratio',
    'CONDITIONS',
    'convex_combination',
    'decide_threshold',
    'DEFAULT_TOLERANCE',
    'det',
    'det_closed_form',
    'DimensionMismatch',
    'DomainError',
    'eigenvalues',
    'extract_independent_set',
    'Graph',
    'hurwitz_search',
    'IndependentSetResult',
    'instance_graph',
    'is_threshold_proof',
    'is_z_matrix',
    'leading_principal_minors',
    'matrices_from_json',
    'matrices_to_json',
    'Matrix',
    'max_independent_set',
    'minimize_spectral_radius',
    'motzkin_straus_min',
    'MSolveResult',
    'NoConvergence',
    'nonneg_parts',
    'NotIndependent',
    'NotSymmetric',
    'parse_graph',
    'quadratic_form',
    'ReductionInstance',
    'reset_tolerance',
    'schur_complement',
    'search_general',
    'search_symmetric',
    'SearchOutcome',
    'SearchStatus',
    'set_tolerance',
    'SimplexPoint',
    'SingularBlock',
    'spectral_radius',
    'Status',
    'tolerance',
    'Verdict',
    'witness_from_independent_set',
    'write_graph',
]


def test_public_names_are_pinned():
    names = [name for name, value in vars(mpoly).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(names, key=str.lower) == PUBLIC_NAMES
