"""The package surface: every public name, and what importing it loads."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import eprkit

# The public names: each one a demo, the README quick start or the benchmark
# harness takes from the package, or an exception that one of those raises.
PUBLIC = (
    "ArityConflictError", "ArityMismatchError", "DimensionMismatchError", "E", "Element",
    "ExprError", "ExprSyntaxError", "NotAnInvolutionError", "PauliWord", "PrintLimitError",
    "RangeError", "approx_equal", "build_incidence", "build_singlet",
    "classical_assignment_search", "compose_letters", "constraint_flags",
    "diff_with_paper_list", "element_matrix", "enumerate_basic_triples", "fallacy_trace",
    "mul_words", "parse_expr", "run_full_report", "to_element", "word_matrix",
)

# Names kept out of the package list, by home module: each is imported from there.
HOME_ONLY = {
    "element": ("IM", "ONE", "Scalar", "ZERO", "e"),
    "epr": ("FallacyReport", "FallacyStep", "IdentityCheck", "VerificationReport",
            "all_assignments", "verify_combined_elements", "verify_constraint_family",
            "verify_derived_identities", "verify_product_constraint", "verify_resolution",
            "verify_singlet_constraints", "verify_singlet_construction"),
    "pauli": ("commute_sign",),
    "singlet": ("SingletState",),
    "triples": ("BasicTriple", "DiffReport", "PAPER_BASIC_SETS", "nontrivial_words"),
}
HOMES = {**{name: f"eprkit.{module}" for module, names in HOME_ONLY.items() for name in names},
         **{name: eprkit._HOME[name] for name in PUBLIC}}


def loaded_after(code: str) -> set[str]:
    """The eprkit modules a fresh interpreter holds after running ``code``."""
    script = code + "\nprint(*sorted(n for n in sys.modules if n.startswith('eprkit')))"
    result = subprocess.run([sys.executable, "-c", "import sys\n" + script],
                            capture_output=True, text=True, check=True)
    return set(result.stdout.split())


def test_all_is_sorted_and_unchanged():
    assert eprkit.__all__ == sorted(eprkit.__all__)
    assert eprkit.__all__ == list(PUBLIC)


@pytest.mark.parametrize("name", sorted(HOMES))
def test_each_name_is_its_home_modules_object(name):
    home = importlib.import_module(HOMES[name])
    value = getattr(home, name)
    assert getattr(value, "__module__", home.__name__) == home.__name__
    if name in PUBLIC:
        assert getattr(eprkit, name) is value
    else:
        with pytest.raises(AttributeError):
            getattr(eprkit, name)


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


def test_the_readme_quick_start_gives_its_commented_results():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace, shown = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment:
            shown.append((eval(code, namespace), comment.strip()))
        elif code:
            exec(code, namespace)
    (psi, psi_says), (product, product_says), (equal, equal_says), \
        (nonzero, nonzero_says), (mean, mean_says), (overall, overall_says) = shown
    assert str(psi) == psi_says == "-1/4 + 1/4*E11 + 1/4*E22 + 1/4*E33"
    assert str(product) == product_says == "i*E03"
    assert equal is True and equal_says.startswith("True:")
    assert nonzero != 0 and nonzero_says.startswith("nonzero as an element")
    assert mean == -1 and str(mean) == "-1" and mean_says == "-1, exactly"
    assert overall == "pass" and overall_says == '"pass"'
