"""Exact normal-ordered expansions in two q-deformed three-generator algebras.

The package computes powers of sums of noncommuting generators a, b, c in
two relation systems, both by closed-form coefficient families and by a
brute-force normal-ordering oracle, and verifies that the routes agree
exactly in the field of rational functions of q.
"""

from .exactarith import (
    IntPolynomial,
    PoleError,
    RationalFunction,
    RF_ONE,
    RF_ZERO,
    poly_gcd,
)
from .freealgebra import GENERATORS, NCPolynomial, format_word, parse_word
from .ordering import (
    SYSTEM_A,
    SYSTEM_A_C0,
    SYSTEM_B,
    SYSTEM_B_XI0,
    SYSTEMS,
    RelationSystem,
    is_normal,
    normalize,
)
from .qnumbers import (
    phi_closed,
    phi_recursive,
    psi,
    q_factorial,
    q_int,
    theta_a,
    theta_b,
    xi,
)
from .verify import (
    ExpansionReport,
    Mismatch,
    Pole,
    VerificationSummary,
    eval_at_root,
    expand_formula,
    expand_oracle,
    gaussian_binomial,
    q2_multinomial,
    verify_degenerations,
    verify_expansions,
    verify_identity_4i2,
    verify_phi,
    verify_recurrences,
)

__version__ = "0.1.0"

__all__ = [
    "IntPolynomial",
    "RationalFunction",
    "PoleError",
    "RF_ZERO",
    "RF_ONE",
    "poly_gcd",
    "GENERATORS",
    "NCPolynomial",
    "parse_word",
    "format_word",
    "RelationSystem",
    "SYSTEM_A",
    "SYSTEM_B",
    "SYSTEM_A_C0",
    "SYSTEM_B_XI0",
    "SYSTEMS",
    "is_normal",
    "normalize",
    "q_int",
    "q_factorial",
    "xi",
    "theta_a",
    "theta_b",
    "phi_recursive",
    "phi_closed",
    "psi",
    "ExpansionReport",
    "VerificationSummary",
    "Mismatch",
    "Pole",
    "expand_formula",
    "expand_oracle",
    "verify_expansions",
    "verify_recurrences",
    "verify_phi",
    "verify_degenerations",
    "verify_identity_4i2",
    "eval_at_root",
    "gaussian_binomial",
    "q2_multinomial",
]
