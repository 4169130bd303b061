"""The package surface: every public name, and what importing it loads."""

import importlib
import subprocess
import sys

import pytest

import eprkit

# The public names, as the package listed them when it imported every module.
PUBLIC = (
    "ArityConflictError", "ArityMismatchError", "BasicTriple", "DiffReport",
    "DimensionMismatchError", "E", "Element", "ExprError", "ExprSyntaxError",
    "FallacyReport", "FallacyStep", "IM", "IdentityCheck", "NotAnInvolutionError", "ONE",
    "PAPER_BASIC_SETS", "PauliWord", "PrintLimitError", "RangeError", "Scalar",
    "SingletState", "VerificationReport", "ZERO", "all_assignments", "approx_equal",
    "build_incidence", "build_singlet", "classical_assignment_search", "commute_sign",
    "compose_letters", "constraint_flags", "diff_with_paper_list", "e", "element_matrix",
    "enumerate_basic_triples", "fallacy_trace", "mul_words", "nontrivial_words",
    "parse_expr", "run_full_report", "to_element", "verify_combined_elements",
    "verify_constraint_family", "verify_derived_identities", "verify_product_constraint",
    "verify_resolution", "verify_singlet_constraints", "verify_singlet_construction",
    "word_matrix",
)


def loaded_after(code: str) -> set[str]:
    """The eprkit modules a fresh interpreter holds after running ``code``."""
    script = code + "\nprint(*sorted(n for n in sys.modules if n.startswith('eprkit')))"
    result = subprocess.run([sys.executable, "-c", "import sys\n" + script],
                            capture_output=True, text=True, check=True)
    return set(result.stdout.split())


def test_all_is_sorted_and_unchanged():
    assert eprkit.__all__ == sorted(eprkit.__all__)
    assert eprkit.__all__ == list(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_its_home_modules_object(name):
    home = importlib.import_module(eprkit._HOME[name])
    value = getattr(eprkit, name)
    assert value is getattr(home, name)
    assert getattr(value, "__module__", home.__name__) == home.__name__


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from eprkit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == eprkit.__all__


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(eprkit))


def test_unknown_name_names_the_module():
    with pytest.raises(AttributeError, match="module 'eprkit' has no attribute 'nope'"):
        eprkit.nope  # noqa: B018


def test_import_loads_no_module():
    assert loaded_after("import eprkit") == {"eprkit"}


def test_a_name_loads_only_its_home_and_what_that_imports():
    assert loaded_after("from eprkit import E") == {"eprkit", "eprkit.element",
                                                    "eprkit.pauli"}


def test_from_import_still_gives_a_submodule():
    assert "eprkit.epr" in loaded_after("from eprkit import epr\n"
                                        "assert epr is sys.modules['eprkit.epr']")
