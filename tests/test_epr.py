"""The identity suite: constraints, search, fallacy, resolution, report."""

import ast
import gc
import itertools
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import given, strategies as st

from eprkit import element, epr, exprparse, matrices, pauli
from eprkit.element import E, Element, Scalar
from eprkit.epr import (
    all_assignments,
    classical_assignment_search,
    constraint_flags,
    fallacy_trace,
    peres_counts,
    run_full_report,
    verify_combined_elements,
    verify_constraint_family,
    verify_derived_identities,
    verify_product_constraint,
    verify_resolution,
    verify_singlet_constraints,
    verify_singlet_construction,
)
from eprkit.exprparse import parse_expr
from eprkit.matrices import approx_equal, element_matrix
from eprkit.pauli import PauliWord

from numeric import rank
from test_element import elements


GOLDEN_JSON = (Path(__file__).parent / "golden" / "report.json").read_text(encoding="utf-8")

# The six defining constraints: E0k + Ek0 and Ekk + 1.
GENERATORS = [E(0, k) + E(k, 0) for k in (1, 2, 3)] + [E(k, k) + 1 for k in (1, 2, 3)]

# The battery equations the suite verifies mod psi; "E12 = E21" is refuted.
VERIFIED_BATTERY = ("E01 = -E10", "E02 = -E20", "E03 = -E30", "E01 = -i*E23",
                    "E02 = i*E13", "E03 = i*E21", "E12 = -E21", "E23 = -E32",
                    "E13 = -E31")


def by_name(checks):
    return {c.name: c for c in checks}


class TestConstraintChecks:
    def test_combined_elements_all_strict_verified(self):
        checks = verify_combined_elements()
        assert len(checks) == 6
        for c in checks:
            assert c.kind == "strict" and c.status == "verified" and c.ok

    def test_singlet_construction(self, singlet):
        checks = by_name(verify_singlet_construction(singlet))
        assert checks["psi*psi = -psi"].ok
        assert checks["trace_normalized(-psi) = 1/4"].ok
        assert all(c.ok for c in checks.values())

    def test_singlet_constraints(self, singlet):
        checks = by_name(verify_singlet_constraints(singlet))
        for k in (1, 2, 3):
            mod = checks[f"(E0{k}+E{k}0)*psi = 0"]
            assert mod.kind == "mod-psi" and mod.status == "verified" and mod.ok
            strict = checks[f"E0{k}+E{k}0 = 0 (strict)"]
            assert strict.expected == "refuted"
            assert strict.status == "refuted" and strict.ok
            assert strict.residual_terms > 0

    def test_product_constraint(self, singlet):
        checks = by_name(verify_product_constraint(singlet))
        mod = checks["E01*E20 = -E10*E02 (mod psi)"]
        assert mod.status == "verified" and mod.ok
        strict = checks["E01*E20 = -E10*E02 (strict)"]
        assert strict.status == "refuted" and strict.ok
        assert strict.residual_terms > 0

    def test_constraint_family_covers_all_words(self, singlet):
        checks = verify_constraint_family(singlet)
        assert len(checks) == 45  # 15 nontrivial words x 3 correlators
        assert all(c.status == "verified" and c.ok for c in checks)


class TestClassicalSearch:
    def test_full_search_is_empty(self):
        assert classical_assignment_search() == []

    def test_dropping_any_one_family_leaves_four(self):
        for drop in epr.CONSTRAINT_NAMES:
            kept = tuple(c for c in epr.CONSTRAINT_NAMES if c != drop)
            assert len(classical_assignment_search(kept)) == 4

    def test_no_constraints_leaves_all_sixteen(self):
        assert len(classical_assignment_search(())) == 16
        assert len(all_assignments()) == 16

    def test_unknown_constraint_rejected(self):
        with pytest.raises(ValueError):
            classical_assignment_search(("opposite_z",))

    def test_flags_on_a_specific_assignment(self):
        table = {PauliWord((0, 1)): 1, PauliWord((1, 0)): -1,
                 PauliWord((0, 2)): 1, PauliWord((2, 0)): -1}
        flags = constraint_flags(table)
        assert flags["opposite_x"] and flags["opposite_y"]
        assert not flags["opposite_products"]
        assert table in all_assignments()

    def test_the_tables_name_the_words_in_the_rows_order(self):
        words = [PauliWord((0, 1)), PauliWord((1, 0)), PauliWord((0, 2)), PauliWord((2, 0))]
        tables = all_assignments()
        assert all(list(table) == words for table in tables)
        assert [list(table.values()) for table in tables] == [
            list(signs) for signs in itertools.product((1, -1), repeat=4)]

    def test_flags_match_the_hand_written_formulas(self):
        for table in all_assignments():
            m01, m10, m02, m20 = table.values()
            assert constraint_flags(table) == {
                "opposite_x": m01 == -m10,
                "opposite_y": m02 == -m20,
                "opposite_products": m01 * m20 == -(m10 * m02),
            }

    def test_the_counts_agree_with_the_search(self):
        counts = peres_counts([constraint_flags(table) for table in all_assignments()])
        assert counts == {"assignments": 16,
                          "solutions": len(classical_assignment_search()),
                          "solutions_without_product_constraint":
                              len(classical_assignment_search(("opposite_x", "opposite_y")))}

    def test_the_search_reads_the_claim_table(self, monkeypatch):
        row = epr.CONSTRAINT_NAMES["opposite_products"]
        assert row is epr.CLAIMS["product"][0]
        assert classical_assignment_search() == []
        monkeypatch.setitem(epr.CONSTRAINT_NAMES, "opposite_products",
                            row._replace(rhs="E10*E02"))
        found = classical_assignment_search()
        assert len(found) == 4
        assert all(constraint_flags(table) == dict.fromkeys(epr.CONSTRAINT_NAMES, True)
                   for table in found)


class TestDerivedIdentities:
    def test_battery_verified_mod_psi(self, singlet):
        checks = by_name(verify_derived_identities(singlet))
        for label in ("E01 = -E10", "E02 = -E20", "E03 = -E30",
                      "E01 = -i*E23", "E02 = i*E13", "E03 = i*E21",
                      "E12 = -E21", "E23 = -E32", "E13 = -E31"):
            assert checks[f"{label} (mod psi)"].status == "verified"
            assert checks[f"{label} (mod psi)"].ok
            assert checks[f"closure: {label}"].status == "verified"
            assert checks[f"closure: {label}"].ok

    def test_negative_control_is_refuted_both_ways(self, singlet):
        checks = by_name(verify_derived_identities(singlet))
        assert checks["E12 = E21 (mod psi)"].status == "refuted"
        assert checks["E12 = E21 (mod psi)"].ok
        control = checks["closure: E12 = E21"]
        assert control.status == "refuted" and control.ok
        assert control.residual_terms > 0

    def test_rewrite_decides_the_twelve_dimensional_constraint_ideal(self, all_words):
        products = [Element.from_word(w) * g for w in all_words
                    for g in GENERATORS]
        assert len(products) == 96
        # Sound: the rewrite sends every word * generator product to zero.
        for p in products:
            assert epr._constraint_remainder(p).is_zero, p
        # floating-point rank of the products, independent of the rewrite
        assert rank([[p.coefficient(v) for v in all_words] for p in products]) == 12
        # Complete: the 16 words leave a remainder of rank 4, so the rewrite's
        # kernel has dimension 12 and is exactly the ideal.
        remainders = [[epr._constraint_remainder(Element.from_word(w)).coefficient(v)
                       for v in all_words] for w in all_words]
        assert rank(remainders) == 4

    @given(elements, st.sampled_from(GENERATORS))
    def test_remainder_vanishes_exactly_on_the_annihilator_of_psi(self, singlet, a, g):
        # a is rarely in the ideal and a*g always is
        for el in (a, a * g):
            assert epr._constraint_remainder(el).is_zero == (el * singlet.psi).is_zero


class TestFallacyTrace:
    def test_decompositions_are_strictly_true(self, singlet):
        report = fallacy_trace(singlet)
        checks = by_name(report.checks())
        assert checks["fallacy: E12 = E10*E02"].status == "verified"
        assert checks["fallacy: E21 = E20*E01"].status == "verified"
        assert checks["fallacy: E01*E20 = E21"].status == "verified"

    def test_substitution_steps_are_flagged_invalid(self, singlet):
        report = fallacy_trace(singlet)
        invalid = [s for s in report.steps if not s.legitimate]
        substitutions = [s for s in invalid if "substitute" in s.description]
        assert len(substitutions) == 2
        for step in substitutions:
            assert step.check is not None
            assert step.check.expected == "refuted"
            assert step.check.status == "refuted"
            assert step.check.residual_terms > 0

    def test_conclusion_refuted_strictly_and_mod_psi(self, singlet):
        checks = by_name(fallacy_trace(singlet).checks())
        assert checks["fallacy: E12 = E21 (strict)"].status == "refuted"
        assert checks["fallacy: E12 = E21 (mod psi)"].status == "refuted"
        for name in ("fallacy: E12 = E21 (strict)", "fallacy: E12 = E21 (mod psi)"):
            assert checks[name].ok

    def test_the_clash_is_a_battery_row_verified_in_the_full_report(self, singlet):
        clash = fallacy_trace(singlet).clash_with
        assert clash in [row.name for row in epr.CLAIMS["battery"]]
        check = by_name(run_full_report().checks)[clash]
        assert check.status == "verified" and check.ok

    def test_clash_points_at_the_verified_sector_identity(self, singlet):
        report = fallacy_trace(singlet)
        battery = by_name(verify_derived_identities(singlet))
        assert report.clash_with in battery
        assert battery[report.clash_with].status == "verified"


class TestResolution:
    def test_all_checks_pass(self, singlet):
        checks = verify_resolution(singlet)
        assert all(c.ok for c in checks)

    def test_strict_rewritings(self, singlet):
        checks = by_name(verify_resolution(singlet))
        for name in ("E12 = -i*E13*E01", "E21 = -i*E22*E03",
                     "E12 = -i*E10*E03*E01", "E21 = -i*E20*E02*E03",
                     "E02 = -i*E03*E01", "E01 = -i*E02*E03"):
            assert checks[name].kind == "strict"
            assert checks[name].status == "verified"

    def test_sector_form_restores_the_opposite_sign(self, singlet):
        checks = by_name(verify_resolution(singlet))
        assert checks["E12 = i*E03 (mod psi)"].status == "verified"
        assert checks["E21 = -i*E03 (mod psi)"].status == "verified"
        assert checks["E12 = -E21 (mod psi, resolved)"].status == "verified"


class TestFullReport:
    def test_overall_pass_and_oracle_concurrence(self):
        report = run_full_report()
        assert report.overall == "pass"
        assert report.failing_names() == []
        assert all(c.oracle_ok for c in report.checks)

    def test_checks_sorted_and_unique(self):
        report = run_full_report()
        names = [c.name for c in report.checks]
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_structural_summaries(self):
        report = run_full_report()
        assert report.triples["count"] == 20
        assert report.triples["extra_in_paper"] == []
        assert len(report.triples["missing_from_paper"]) == 3
        assert report.triples["incidence_degrees"] == [4]
        assert len(report.triples["e12_memberships"]) == 4
        assert report.peres == {"assignments": 16, "solutions": 0,
                                "solutions_without_product_constraint": 4}
        assert report.homomorphism == {"pairs": 256, "oracle_agree": 256}

    def test_deterministic_serialization(self):
        assert run_full_report().to_json() == run_full_report().to_json()

    @pytest.mark.parametrize("fault", [None, "corrupt-singlet"])
    def test_json_is_the_standard_encoders_bytes(self, fault):
        report = run_full_report(fault=fault)
        assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"

    def test_warm_report_parses_nothing(self, monkeypatch):
        # The claim rows are constant text: after one report, every tree the
        # next one evaluates was parsed already.
        run_full_report()

        def refuse(text):
            raise AssertionError(f"a warm report parsed {text!r}")

        monkeypatch.setattr(exprparse, "parse_expr", refuse)
        monkeypatch.setattr(epr, "parse_expr", refuse)
        assert run_full_report().to_json() == GOLDEN_JSON

    def test_reused_trees_are_evaluated_against_each_reports_psi(self):
        # Only syntax is reused: a corrupted psi, the true one and the
        # corrupted one again give three independent verdicts.
        first = run_full_report(fault="corrupt-singlet").failing_names()
        assert run_full_report().to_json() == GOLDEN_JSON
        assert run_full_report(fault="corrupt-singlet").failing_names() == first
        assert len(first) == 69

    def test_a_warm_report_redoes_every_oracle_product(self, monkeypatch):
        # Only syntax is reused: after one report, with every cache left as it
        # is, negating each matrix product moves the next report's oracle.
        run_full_report()
        product = matrices.Matrix.__mul__
        monkeypatch.setattr(matrices.Matrix, "__mul__", lambda a, b: -product(a, b))
        report = run_full_report()
        assert report.homomorphism == {"pairs": 256, "oracle_agree": 0}
        assert report.overall == "fail"
        failing = report.failing_names()
        assert len(failing) == 24
        assert not any(by_name(report.checks)[n].oracle_ok for n in failing)

    def test_markdown_names_the_verdict(self):
        md = run_full_report().to_markdown()
        assert "overall: **pass**" in md
        assert "| E12 = -E21 (mod psi) |" in md

    def test_injected_fault_fails_with_named_checks(self, singlet):
        report = run_full_report(fault="corrupt-singlet")
        assert report.overall == "fail"
        words = [f"E{a}{b}" for a, b in itertools.product(range(4), repeat=2)
                 if a or b]
        expected = {f"{x}*(E{k}{k}+1)*psi = 0" for x in words for k in (1, 2, 3)}
        expected |= {name for k in (1, 2, 3) for name in (
            f"(E{k}{k}+1)*psi = 0", f"E{k}{k}*psi = -psi", f"(E0{k}+E{k}0)*psi = 0")}
        expected |= {f"{label} (mod psi)" for label in VERIFIED_BATTERY}
        expected |= {"psi*psi = -psi", "(-psi)*(-psi) = -psi",
                     "E01*E20 = -E10*E02 (mod psi)", "E12 = i*E03 (mod psi)",
                     "E21 = -i*E03 (mod psi)", "E12 = -E21 (mod psi, resolved)"}
        failing = report.failing_names()
        assert len(failing) == 69 and set(failing) == expected
        # The matrix route builds its own psi, so it must disagree with every
        # verdict the corrupted psi produced, the singlet-construction checks
        # (psi*psi = -psi, Ekk*psi = -psi, ...) included.
        checks = by_name(report.checks)
        assert all(checks[name].oracle_ok is False for name in failing)

    def test_mod_psi_read_as_strict_fails_every_verified_sector_claim(self, monkeypatch):
        # Drop the right factor psi from the exact route's residual: every
        # verified mod-psi claim is then refuted there, and the oracle, which
        # writes its own mod-psi text, disagrees with each.  The closure twins
        # pass: their borrowed oracle is right.
        monkeypatch.setattr(epr, "_residual", lambda kind, lhs, rhs, psi: lhs - rhs)
        report = run_full_report()
        assert report.overall == "fail"
        mod_psi = {f"{label} (mod psi)" for label in VERIFIED_BATTERY}
        mod_psi |= {f"(E0{k}+E{k}0)*psi = 0" for k in (1, 2, 3)}
        mod_psi |= {"E01*E20 = -E10*E02 (mod psi)", "E12 = i*E03 (mod psi)",
                    "E21 = -i*E03 (mod psi)", "E12 = -E21 (mod psi, resolved)"}
        failing = report.failing_names()
        assert len(failing) == 16 and set(failing) == mod_psi
        checks = by_name(report.checks)
        assert all(checks[n].status == "refuted" and not checks[n].oracle_ok for n in mod_psi)

    @pytest.mark.parametrize("equal", [False, True])
    def test_element_equality_is_a_shortcut_never_the_judge(self, monkeypatch, equal):
        # The exact route compares a claim's two values before it subtracts.
        # Equality that never holds sends every pair to its residual and moves
        # no byte; equality that always holds refutes no claim, so exactly the
        # checks expected to be refuted fail, each against its oracle.
        run_full_report()
        monkeypatch.setattr(Element, "__eq__", lambda self, other: equal)
        report = run_full_report()
        if not equal:
            assert report.to_json() == GOLDEN_JSON
            return
        assert report.overall == "fail"
        assert report.failing_names() == [
            "E01*E20 = -E10*E02 (strict)", "E01+E10 = 0 (strict)", "E02+E20 = 0 (strict)",
            "E03+E30 = 0 (strict)", "E12 = E21 (mod psi)", "closure: E12 = E21",
            "fallacy: E02 = -E20 (strict substitution)",
            "fallacy: E10 = -E01 (strict substitution)", "fallacy: E12 = E21 (mod psi)",
            "fallacy: E12 = E21 (strict)"]
        checks = by_name(report.checks)
        assert all(not checks[n].oracle_ok for n in report.failing_names())

    def test_i_read_as_minus_i_moves_the_exact_route_alone(self, monkeypatch):
        # A fault in the parser's reading of a claim: the oracle reads the text
        # itself, so it disagrees with every check whose verdict the fault moves.
        monkeypatch.setitem(exprparse._FACTORS, "i", -element.IM)
        epr._record.cache_clear()
        epr._program.cache_clear()
        try:
            report = run_full_report()
        finally:
            epr._record.cache_clear()
            epr._program.cache_clear()
        golden = {c["name"]: c["status"] for c in json.loads(GOLDEN_JSON)["checks"]}
        moved = {c.name for c in report.checks if c.status != golden[c.name]}
        assert len(moved) == 14
        assert set(report.failing_names()) == moved
        assert not any(by_name(report.checks)[n].oracle_ok for n in moved)

    def test_an_unknown_check_kind_is_refused(self):
        row = epr.CLAIMS["battery"][0]._replace(kind="weird")
        with pytest.raises(ValueError, match="^unknown check kind 'weird'$"):
            epr._record(row)

    def test_a_row_held_twice_is_refused(self, monkeypatch):
        monkeypatch.setitem(epr.CLAIMS, "combined", epr.CLAIMS["combined"] * 2)
        with pytest.raises(RuntimeError, match="^duplicate check names in report$"):
            run_full_report()

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            run_full_report(fault="nonsense")

    def test_corrupted_composition_table_fails(self, monkeypatch):
        # Drop the phase from e1*e2.  pauli owns the rule, so the symbolic
        # route, the closure rewrite included, sees the slip and the matrix
        # route, built from the letter matrices alone, refutes every verdict.
        # Earlier tests have filled the product table from the true rule, so
        # the run starts from an empty one, dropped again when the patch goes.
        # A report runs first: the closure rewrite's axis words, built once,
        # must still be multiplied afresh under the corrupted rule.
        run_full_report()
        original = pauli.compose_letters

        def corrupted(a, b):
            if (a, b) == (1, 2):
                return 0, 3
            return original(a, b)

        monkeypatch.setattr(pauli, "compose_letters", corrupted)
        monkeypatch.setattr(pauli, "_PRODUCTS", {})
        report = run_full_report()
        assert report.overall == "fail"
        assert report.homomorphism == {"pairs": 256, "oracle_agree": 225}
        assert report.triples["count"] == 6
        failing = report.failing_names()
        assert len(failing) == 66
        assert [n for n in failing if n.startswith("closure: ")] == ["closure: E12 = -E21"]
        checks = by_name(report.checks)
        assert all(checks[n].status == "refuted" and not checks[n].oracle_ok
                   for n in failing)

    def test_corrupted_letter_matrix_fails_on_the_matrix_route(self, monkeypatch):
        # negate the e2 matrix before any symbol matrix is built from it: psi is
        # unchanged (it holds e2 twice), and every claim whose two sides differ in
        # the parity of their e2 letters loses its oracle, as do 120 of 256 products.
        # The cross-check's phase table is built from the symbol matrices, so it
        # is cleared with them, before the report and after: a table left from
        # the true letters would compare true products with true phases and
        # hide the fault, and one left from the negated letters would spoil
        # every later report in the process.
        letters = matrices.LETTER_MATRICES
        monkeypatch.setattr(matrices, "LETTER_MATRICES",
                            (letters[0], letters[1], -letters[2], letters[3]))
        caches = (matrices._symbol_matrix, epr._word_phases, epr._program, epr._record)
        for cached in caches:
            cached.cache_clear()
        try:
            report = run_full_report()
        finally:
            for cached in caches:
                cached.cache_clear()
        assert report.overall == "fail"
        assert report.homomorphism == {"pairs": 256, "oracle_agree": 136}
        assert report.failing_names() == [
            "E01 = -i*E02*E03", "E01 = -i*E23 (mod psi)", "E02 = -i*E03*E01",
            "E02 = i*E13 (mod psi)", "E03 = i*E21 (mod psi)", "E12 = -i*E10*E03*E01",
            "E12 = -i*E13*E01", "E12 = i*E03 (mod psi)", "E21 = -i*E03 (mod psi)",
            "E21 = -i*E20*E02*E03", "E21 = -i*E22*E03", "closure: E01 = -i*E23",
            "closure: E02 = i*E13", "closure: E03 = i*E21"]
        checks = by_name(report.checks)
        assert all(checks[n].status == "verified" and not checks[n].oracle_ok
                   for n in report.failing_names())


# A warm report's calls of each operation, stage by stage: mul_words at every
# import site, Element.__mul__, Element's add family (+, - and negation, as
# one), the tree walk exprparse.evaluate with its recursion, Matrix.__mul__,
# Matrix.__eq__, Element.__eq__, commute_sign at every import site, and
# Matrix.__add__, Matrix.__neg__ and Matrix.__sub__.  The realist reading is
# all_assignments, constraint_flags and peres_counts; what no stage runs is
# building psi.
OPERATIONS = ("mul_words", "element.mul", "element.add", "evaluate", "matrix.mul", "matrix.eq",
              "element.eq", "commute_sign", "matrix.add", "matrix.neg", "matrix.sub")
WARM_REPORT_OPERATIONS = {
    "verify_combined_elements": (6, 6, 0, 24, 6, 6, 6, 0, 0, 0, 0),
    "verify_singlet_construction": (116, 20, 47, 97, 20, 10, 10, 0, 15, 20, 12),
    "verify_singlet_constraints": (24, 6, 15, 24, 6, 6, 6, 0, 6, 0, 0),
    "verify_product_constraint": (12, 6, 5, 14, 6, 2, 2, 0, 0, 2, 0),
    "verify_derived_identities": (97, 60, 49, 33, 23, 10, 20, 0, 0, 7, 0),
    "verify_constraint_family": (450, 90, 45, 360, 90, 45, 45, 0, 45, 0, 0),
    "fallacy_trace": (11, 5, 14, 22, 5, 7, 7, 0, 0, 2, 0),
    "verify_resolution": (40, 30, 2, 79, 30, 11, 11, 0, 0, 9, 0),
    "enumerate_basic_triples": (290, 0, 0, 0, 0, 0, 0, 105, 0, 0, 0),
    "realist reading": (0, 0, 0, 240, 0, 0, 0, 0, 0, 0, 0),
    "_word_product_cross_check": (256, 0, 0, 0, 256, 256, 0, 0, 0, 0, 0),
    "outside the stages": (12, 3, 10, 13, 0, 0, 0, 0, 0, 0, 0),
}


def test_a_warm_report_does_the_pinned_work_in_each_stage(monkeypatch):
    run_full_report()
    counts = defaultdict(Counter)
    stage = ["outside the stages"]

    def counted(op, fn):
        def wrapper(*args, **kwargs):
            counts[stage[-1]][op] += 1
            return fn(*args, **kwargs)
        return wrapper

    def staged(name, fn):
        def wrapper(*args, **kwargs):
            stage.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stage.pop()
        return wrapper

    modules = [m for name, m in sys.modules.items() if name.startswith("eprkit.")]
    for op, fn in (("mul_words", pauli.mul_words), ("evaluate", exprparse.evaluate),
                   ("commute_sign", pauli.commute_sign)):
        for module in modules:
            for attr in [k for k, v in vars(module).items() if v is fn]:
                monkeypatch.setattr(module, attr, counted(op, fn))
    for op, cls, names in (
            ("element.mul", Element, ("__mul__",)),
            ("element.add", Element, ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")),
            ("matrix.mul", matrices.Matrix, ("__mul__",)),
            ("matrix.eq", matrices.Matrix, ("__eq__",)),
            ("element.eq", Element, ("__eq__",)),
            ("matrix.add", matrices.Matrix, ("__add__",)),
            ("matrix.neg", matrices.Matrix, ("__neg__",)),
            ("matrix.sub", matrices.Matrix, ("__sub__",))):
        for name in names:
            monkeypatch.setattr(cls, name, counted(op, vars(cls)[name]))
    stages = {name: (name,) for name in WARM_REPORT_OPERATIONS if hasattr(epr, name)}
    stages["realist reading"] = ("all_assignments", "constraint_flags", "peres_counts")
    for name, functions in stages.items():
        for fn in functions:
            monkeypatch.setattr(epr, fn, staged(name, getattr(epr, fn)))
    assert run_full_report().to_json() == GOLDEN_JSON
    assert {name: tuple(counts[name][op] for op in OPERATIONS)
            for name in WARM_REPORT_OPERATIONS} == WARM_REPORT_OPERATIONS


def test_matrix_route_uses_no_symbolic_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("the matrix route reached the symbolic layer")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                 "__rsub__", "__neg__"):
        monkeypatch.setattr(Element, name, refuse)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                 "__rsub__", "__neg__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(Scalar, name, refuse)
    monkeypatch.setattr(pauli, "mul_words", refuse)
    monkeypatch.setattr(element, "mul_words", refuse)
    monkeypatch.setattr(matrices, "element_matrix", refuse)
    monkeypatch.setattr(exprparse, "parse_expr", refuse)
    monkeypatch.setattr(epr, "parse_expr", refuse)
    # Read every row afresh, under the patches: the oracle's reading is its own.
    epr._program.cache_clear()
    rows = [row for rows in epr.CLAIMS.values() for row in rows]
    assert len(rows) == 97  # the report adds the 10 closure checks and the trace
    for row in rows:
        left, right = epr._programs(row)
        assert approx_equal(left(), right()) == (row.expected == "verified"), row.name


def test_epr_evaluates_parsed_sides_and_builds_no_tree():
    # exprparse owns the tree format: epr parses the claim sides and evaluates
    # them, and names none of the node types, so it neither builds nor
    # rewrites a tree.  A name is checked wherever it occurs, as an attribute
    # too, so neither BinOp(...) nor exprparse.Sym(...) gets past.
    tree = ast.parse(Path(epr.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "exprparse"
                for alias in node.names}
    assert imported == {"Expr", "evaluate", "parse_expr", "to_element"}
    nodes = {t.__name__ for t in get_args(exprparse.Expr)} - {"Scalar"}
    assert nodes == {"BinOp", "Neg", "Sym"}
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert named & nodes == set()


def test_the_hot_paths_leave_no_cyclic_garbage():
    # Reference counting alone frees what a report and a tree walk make:
    # with the collector off, a full collection afterwards finds nothing.
    text = "(1/2 - 3*i)*E01*E02 + -(E33 - E12)*E21"
    table = all_assignments()[5]
    run_full_report().to_json()  # warm: the claim trees and per-process tables are built
    gc.collect()
    gc.disable()
    try:
        for work in (lambda: run_full_report().to_json(),
                     lambda: exprparse.to_element(parse_expr(text)),
                     lambda: matrices.expr_program(text)(),
                     lambda: constraint_flags(table)):
            work()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_numeric_psi_route_matches_symbolic_psi(singlet):
    numeric = matrices.expr_program("psi")()
    assert approx_equal(numeric, element_matrix(singlet.psi))
    with pytest.raises(TypeError):
        numeric[0, 0] = 0


# Text with the characters an encoder must escape, and ints past 64 bits.
json_text = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f')),
                    max_size=6)
json_values = st.recursive(
    st.one_of(json_text, st.booleans(), st.integers(),
              st.integers(10 ** 20, 10 ** 30), st.integers(-(10 ** 30), -(10 ** 20))),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=20)


@given(json_values)
def test_report_writer_matches_the_standard_encoder(value):
    assert epr._json(value) == json.dumps(value, indent=2)


def test_report_writer_writes_a_check_as_the_dict_of_its_fields():
    # One template per depth stands for the check's _asdict(), escapes included.
    check = epr.IdentityCheck('a "quoted" \u00e9 name', "ref", "strict", "verified",
                              "refuted", 12, False)
    for value, as_dicts in ((check, check._asdict()),
                            ([check], [check._asdict()]),
                            ({"checks": [check, check]}, {"checks": [check._asdict()] * 2}),
                            ([{"deeper": [check]}], [{"deeper": [check._asdict()]}])):
        assert epr._json(value) == json.dumps(as_dicts, indent=2)
    with pytest.raises(TypeError):
        epr._json(check._replace(residual_terms=1.5))
    for field in ("name", "paper_ref"):
        for wrong in (1, None, b"name", ["name"]):
            with pytest.raises(TypeError):
                epr._json(check._replace(**{field: wrong}))
    # The count and the verdict are written by their types, as json.dumps does.
    for odd in (check._replace(residual_terms=True), check._replace(oracle_ok=1)):
        assert epr._json(odd) == json.dumps(odd._asdict(), indent=2)


def test_report_writer_refuses_what_a_report_does_not_hold():
    assert epr._json([True, False, 1, 0, [], {}]) == json.dumps([True, False, 1, 0, [], {}],
                                                               indent=2)
    assert epr._json({"ok": True}) == '{\n  "ok": true\n}'
    for value in (0.5, None, [None], {"a": [1.0]}, {(1, 2): 1}, (1, 2)):
        with pytest.raises(TypeError):
            epr._json(value)
