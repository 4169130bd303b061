"""Exact two-site Pauli algebra with a numerical cross-check.

The package builds the letter algebra (three anticommuting involutions with
a fixed cyclic orientation), lifts it to words and to exact linear
combinations over Gaussian rationals, constructs the singlet-sector element
psi and its projector, enumerates the basic anticommuting triples, and runs
a battery of strict and mod-psi identity checks against an independent
dense-matrix representation.  The :mod:`eprkit.cli` module wires it all into
scriptable commands.
"""

from .element import ArityMismatchError, E, Element, IM, ONE, PHASES, Scalar, ZERO, e
from .epr import (
    ClassicalAssignment,
    FallacyReport,
    FallacyStep,
    IdentityCheck,
    VerificationReport,
    all_assignments,
    classical_assignment_search,
    constraint_flags,
    fallacy_trace,
    run_full_report,
    verify_combined_elements,
    verify_constraint_family,
    verify_derived_identities,
    verify_product_constraint,
    verify_resolution,
    verify_singlet_constraints,
    verify_singlet_construction,
)
from .exprparse import (
    ArityConflictError,
    ExprError,
    ExprSyntaxError,
    RangeError,
    parse_expr,
    to_element,
)
from .matrices import (
    DimensionMismatchError,
    TOLERANCE,
    approx_equal,
    element_matrix,
    word_matrix,
)
from .pauli import LengthMismatchError, PauliWord, commute_sign, compose_letters, mul_words
from .singlet import NotAnInvolutionError, SingletState, build_singlet
from .triples import (
    BasicTriple,
    DiffReport,
    PAPER_BASIC_SETS,
    build_incidence,
    diff_with_paper_list,
    enumerate_basic_triples,
    nontrivial_words,
)

__version__ = "0.1.0"

__all__ = [
    "ArityConflictError",
    "ArityMismatchError",
    "BasicTriple",
    "ClassicalAssignment",
    "DiffReport",
    "DimensionMismatchError",
    "E",
    "Element",
    "ExprError",
    "ExprSyntaxError",
    "FallacyReport",
    "FallacyStep",
    "IM",
    "IdentityCheck",
    "LengthMismatchError",
    "NotAnInvolutionError",
    "ONE",
    "PAPER_BASIC_SETS",
    "PHASES",
    "PauliWord",
    "RangeError",
    "Scalar",
    "SingletState",
    "TOLERANCE",
    "VerificationReport",
    "ZERO",
    "all_assignments",
    "approx_equal",
    "build_incidence",
    "build_singlet",
    "classical_assignment_search",
    "commute_sign",
    "compose_letters",
    "constraint_flags",
    "diff_with_paper_list",
    "e",
    "element_matrix",
    "enumerate_basic_triples",
    "fallacy_trace",
    "mul_words",
    "nontrivial_words",
    "parse_expr",
    "run_full_report",
    "to_element",
    "verify_combined_elements",
    "verify_constraint_family",
    "verify_derived_identities",
    "verify_product_constraint",
    "verify_resolution",
    "verify_singlet_constraints",
    "verify_singlet_construction",
    "word_matrix",
]
