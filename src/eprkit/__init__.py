"""Exact two-site Pauli algebra with an exact matrix cross-check.

The package builds the letter algebra (three anticommuting involutions with
a fixed cyclic orientation), lifts it to words and to exact linear
combinations over Gaussian rationals, constructs the singlet-sector element
psi and its projector, enumerates the basic anticommuting triples, and runs
a battery of strict and mod-psi identity checks against an independent
exact matrix representation.  The :mod:`eprkit.cli` module wires it all into
scriptable commands.

Importing the package loads none of its modules: each public name is looked
up in its home module on first use (PEP 562), so ``from eprkit import E``
loads ``pauli`` and ``element`` and nothing else.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "element": ("E", "Element", "IM", "ONE", "PrintLimitError", "Scalar", "ZERO", "e"),
    "epr": ("ClassicalAssignment", "FallacyReport", "FallacyStep", "IdentityCheck",
            "VerificationReport", "all_assignments", "classical_assignment_search",
            "constraint_flags", "fallacy_trace", "run_full_report",
            "verify_combined_elements", "verify_constraint_family",
            "verify_derived_identities", "verify_product_constraint", "verify_resolution",
            "verify_singlet_constraints", "verify_singlet_construction"),
    "exprparse": ("ArityConflictError", "ExprError", "ExprSyntaxError", "RangeError",
                  "parse_expr", "to_element"),
    "matrices": ("DimensionMismatchError", "approx_equal", "element_matrix", "word_matrix"),
    "pauli": ("ArityMismatchError", "PauliWord", "commute_sign", "compose_letters",
              "mul_words"),
    "singlet": ("NotAnInvolutionError", "SingletState", "build_singlet"),
    "triples": ("BasicTriple", "DiffReport", "PAPER_BASIC_SETS", "build_incidence",
                "diff_with_paper_list", "enumerate_basic_triples", "nontrivial_words"),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Nothing is bound here, so every lookup reads the home module's current
    # value: a function replaced there (say, wrapped by a tracer and later
    # restored) is never left behind under the package name.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_HOME[name]), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
