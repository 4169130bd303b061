"""The identity suite: constraints, search, fallacy, resolution, report."""

import itertools

import numpy as np
import pytest

from eprkit import element, epr, matrices, pauli
from eprkit.element import E, Element
from eprkit.epr import (
    ClassicalAssignment,
    all_assignments,
    classical_assignment_search,
    constraint_flags,
    fallacy_trace,
    run_full_report,
    singlet_constraint_generators,
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
from eprkit.singlet import SingletState


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
        a = ClassicalAssignment(m01=1, m10=-1, m02=1, m20=-1)
        flags = constraint_flags(a)
        assert flags["opposite_x"] and flags["opposite_y"]
        assert not flags["opposite_products"]
        assert a.values == {"E01": 1, "E10": -1, "E02": 1, "E20": -1}


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

    def test_constraint_ideal_has_dimension_twelve(self, all_words):
        basis = epr._constraint_ideal_basis(all_words)
        assert len(basis) == 12
        # numpy rank of the same span as a cross-check
        rows = []
        for w in all_words:
            w_el = Element.from_word(w)
            for g in singlet_constraint_generators():
                rows.append([complex((w_el * g).coefficient(v))
                             for v in all_words])
        assert np.linalg.matrix_rank(np.array(rows)) == 12


class TestFallacyTrace:
    def test_decompositions_are_strictly_true(self, singlet):
        report = fallacy_trace(singlet)
        checks = by_name(report.checks())
        assert checks["fallacy: E12 = E10*E02"].status == "verified"
        assert checks["fallacy: E21 = E20*E01"].status == "verified"
        assert checks["fallacy: E01*E20 = E21"].status == "verified"

    def test_substitution_steps_are_flagged_invalid(self, singlet):
        report = fallacy_trace(singlet)
        invalid = report.invalid_steps
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

    def test_markdown_names_the_verdict(self):
        md = run_full_report().to_markdown()
        assert "overall: **pass**" in md
        assert "| E12 = -E21 (mod psi) |" in md

    def test_injected_fault_fails_with_named_checks(self, singlet):
        report = run_full_report(fault="corrupt-singlet")
        assert report.overall == "fail"
        battery = ("E01 = -E10", "E02 = -E20", "E03 = -E30", "E01 = -i*E23",
                   "E02 = i*E13", "E03 = i*E21", "E12 = -E21", "E23 = -E32",
                   "E13 = -E31")
        words = [f"E{a}{b}" for a, b in itertools.product(range(4), repeat=2)
                 if a or b]
        expected = {f"{x}*(E{k}{k}+1)*psi = 0" for x in words for k in (1, 2, 3)}
        expected |= {name for k in (1, 2, 3) for name in (
            f"(E{k}{k}+1)*psi = 0", f"E{k}{k}*psi = -psi", f"(E0{k}+E{k}0)*psi = 0")}
        expected |= {f"{label} (mod psi)" for label in battery}
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

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            run_full_report(fault="nonsense")

    def test_corrupted_composition_table_fails(self, monkeypatch):
        # drop the phase from e1*e2; the suite must notice, not crash
        import eprkit.pauli as pauli_mod
        original = pauli_mod.compose_letters

        def corrupted(a, b):
            if (a, b) == (1, 2):
                return 0, 3
            return original(a, b)

        monkeypatch.setattr(pauli_mod, "compose_letters", corrupted)
        report = run_full_report()
        assert report.overall == "fail"
        assert report.failing_names()

    def test_corrupted_singlet_state_fails(self, singlet):
        bad_psi = singlet.psi + E(1, 2) / 2
        report = run_full_report(SingletState(psi=bad_psi, projector=-bad_psi))
        assert report.overall == "fail"
        assert report.failing_names()


def test_numpy_route_uses_no_symbolic_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("the numpy route reached the symbolic layer")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                 "__rsub__", "__neg__"):
        monkeypatch.setattr(Element, name, refuse)
    monkeypatch.setattr(pauli, "mul_words", refuse)
    monkeypatch.setattr(element, "mul_words", refuse)
    monkeypatch.setattr(matrices, "element_matrix", refuse)
    psi_m = epr._numeric_psi_matrix()
    rows = [row for rows in epr.CLAIMS.values() for row in rows]
    assert len(rows) == 97  # the report adds the 10 closure checks and the trace
    for row in rows:
        left = matrices.expr_matrix(parse_expr(row.lhs), psi_m)
        right = matrices.expr_matrix(parse_expr(row.rhs), psi_m)
        if row.kind == "mod-psi":
            left, right = left @ psi_m, right @ psi_m
        assert approx_equal(left, right) == (row.expected == "verified"), row.name


def test_numeric_psi_route_matches_symbolic_psi(singlet):
    numeric = epr._numeric_psi_matrix()
    assert np.max(np.abs(numeric - element_matrix(singlet.psi))) < 1e-12
