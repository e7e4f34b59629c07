"""Exact summation toolkit for hypergeometric terms.

Indefinite summation with rational certificates, creative telescoping
for definite sums, telescoping-pair verification, truncated power
series, a brute-force exact oracle, and a batch identity-suite runner.
All arithmetic is exact (integers and rationals throughout).
"""

from .gosper import (
    GosperCertificate, NotSummableError, degree_bound, gosper_antidifference, gosper_normal_form,
    telescoped_sum
)
from .hyperterm import (
    DegenerateSampleError, HyperTerm, ParseError, PoleError, TermError, UnboundParameterError,
    eval_term, parse_term, shift_quotient, term_ratio_is_one, term_to_string
)
from .polynomials import (
    Polynomial, RationalFunction, ZnPoly, dispersion_set, integer_roots, poly_gcd, poly_lcm,
    resultant
)
from .series import (
    PowerSeries, ballot_gf, catalan_gf, central_binomial_gf, check_convolution_11897,
    check_shifted_central_identity, known_gf, shifted_central_gf
)
from .suite import (
    CaseResult, bundled_suite, load_suite, mutation_catalog, report_lines, run_case,
    run_identity_suite
)
from .verify import (
    SequenceSpec, VerificationError, WZPair, catalan_sequence, check_binomial_transform,
    check_boundary_couple, check_lower_triangle_identity, check_transform_power_identity,
    oracle_sum
)
from .zeilberger import (
    BoundaryCheckError, NoRecurrenceFound, Recurrence, RecurrenceCheckError,
    TelescopingCertificate, creative_telescope, natural_sum, operator_equal,
    sum_recurrence_natural
)

__version__ = "1.0.0"

__all__ = [
    "BoundaryCheckError", "CaseResult", "DegenerateSampleError", "GosperCertificate",
    "HyperTerm", "NoRecurrenceFound",
    "NotSummableError", "ParseError", "PoleError", "Polynomial", "PowerSeries",
    "RationalFunction", "Recurrence", "RecurrenceCheckError", "SequenceSpec",
    "TelescopingCertificate", "TermError", "UnboundParameterError", "VerificationError",
    "WZPair", "ZnPoly", "ballot_gf", "bundled_suite", "catalan_gf", "catalan_sequence",
    "central_binomial_gf", "check_binomial_transform", "check_boundary_couple",
    "check_convolution_11897", "check_lower_triangle_identity",
    "check_shifted_central_identity", "check_transform_power_identity",
    "creative_telescope", "degree_bound", "dispersion_set", "eval_term",
    "gosper_antidifference", "gosper_normal_form", "integer_roots", "known_gf", "load_suite",
    "mutation_catalog", "natural_sum", "operator_equal", "oracle_sum", "parse_term", "poly_gcd",
    "poly_lcm", "report_lines", "resultant", "run_case", "run_identity_suite", "shift_quotient",
    "shifted_central_gf", "sum_recurrence_natural", "telescoped_sum",
    "term_ratio_is_one", "term_to_string",
]
