"""Diagonal and sigma-diagonal Einstein metrics on nice nilpotent Lie algebras.

Exact arithmetic throughout the decision pipeline (lex Groebner bases for
the nonlinear exponent condition), and an independent curvature oracle that
verifies every certificate.
"""

from .algebra import (
    AlgebraFamily,
    NiceLieAlgebra,
    ParseError,
    diagonal_derivations,
    eigendistribution_involutive,
    fundamental_domain,
    jacobi_residuals,
    nonzero_trace_derivation_witness,
    parse,
    parse_family,
    sigma_eigenspace_involutivity,
    tilde_c,
    to_string,
)
from .curvature import (
    DegenerateMetricError,
    LieBrackets,
    ad_invariance_check,
    diagonal_gram,
    levi_civita,
    projected_riemann_norm,
    ricci_tensor,
    riemann_norm,
    scalar_curvature,
    sigma_gram,
)
from .diagram import (
    NiceDiagram,
    automorphisms,
    format_permutation,
    index_set,
    involutions,
    parse_permutation,
    root_matrix,
    sigma_arrow_action,
    validate_nice,
)
from .einstein import (
    ClassificationResult,
    DiagonalMetric,
    EinsteinCertificate,
    SigmaMetric,
    SignatureReport,
    condition_P_holds_exact,
    condition_P_residual,
    diagonal_einstein,
    format_delta,
    halved_signatures,
    logsign,
    parameter_solve,
    parse_delta,
    recover_metric,
    ricci_diagonal,
    ricci_sigma,
    sigma_einstein,
    sigma_signature,
    sufficient_condition,
)
from .linalg import (
    AffineSet,
    MatF2,
    MatQ,
    f2_solve_all,
    kernel_basis,
    smith_normal_form,
    solve_affine,
    solve_multiplicative,
    strict_sign_witness,
    symmetric_signature,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSet", "AlgebraFamily", "ClassificationResult", "DegenerateMetricError",
    "DiagonalMetric", "EinsteinCertificate", "LieBrackets", "MatF2", "MatQ",
    "NiceDiagram", "NiceLieAlgebra", "ParseError", "SigmaMetric",
    "SignatureReport", "ad_invariance_check", "automorphisms",
    "condition_P_holds_exact", "condition_P_residual", "diagonal_derivations",
    "diagonal_einstein", "diagonal_gram", "eigendistribution_involutive",
    "f2_solve_all", "format_delta", "format_permutation", "fundamental_domain",
    "halved_signatures", "index_set", "involutions", "jacobi_residuals",
    "kernel_basis", "levi_civita", "logsign", "nonzero_trace_derivation_witness",
    "parameter_solve", "parse", "parse_delta", "parse_family",
    "parse_permutation", "projected_riemann_norm", "recover_metric",
    "ricci_diagonal", "ricci_sigma", "ricci_tensor", "riemann_norm",
    "root_matrix", "scalar_curvature", "sigma_arrow_action",
    "sigma_eigenspace_involutivity", "sigma_einstein", "sigma_gram",
    "sigma_signature", "smith_normal_form", "solve_affine",
    "solve_multiplicative", "strict_sign_witness", "sufficient_condition",
    "symmetric_signature",
    "tilde_c", "to_string", "validate_nice",
]
