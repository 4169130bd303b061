"""The singlet identity suite end to end.

Every claim is one row of the table :data:`CLAIMS`: a name, a paper
reference, a kind, the expected verdict, and the two sides as text in the
expression grammar of :mod:`eprkit.exprparse`.  To add a claim, add a row.
Each side is parsed once and evaluated by two interpreters: the exact
symbolic layer (:func:`~eprkit.exprparse.to_element`, Gaussian-rational
coefficients, decided by literal equality) and numpy
(:func:`~eprkit.matrices.expr_matrix`, products of letter matrices, compared
at a fixed tolerance), which shares the tree walk with the first but none of
its arithmetic.  Only ``trace_normalized(-psi) = 1/4`` is outside the
grammar and checked by hand.  Each check
carries an explicit kind, ``strict`` for equalities of elements and
``mod-psi`` for equalities that hold only after right-multiplication by psi;
the fallacy trace exists precisely because conflating the two kinds silently
turns a true singlet-sector statement into a false strict one.

Checks that are *supposed* to fail (the fallacy's conclusion, the strict
readings of sector-only constraints) are first-class: the suite asserts
refutation, not merely absence of verification.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .element import E, Element, Scalar
from .exprparse import parse_expr, to_element
from .matrices import TOLERANCE, approx_equal, expr_matrix, word_matrix
from .pauli import PauliWord, mul_words
from .singlet import SingletState, build_singlet
from .triples import (build_incidence, diff_with_paper_list, enumerate_basic_triples,
                      nontrivial_words)

__all__ = [
    "CLAIMS",
    "Claim",
    "ClassicalAssignment",
    "CONSTRAINT_NAMES",
    "EXPECTED_INCIDENCE_DEGREE",
    "EXPECTED_TRIPLE_COUNT",
    "FallacyReport",
    "FallacyStep",
    "IdentityCheck",
    "VerificationReport",
    "all_assignments",
    "classical_assignment_search",
    "constraint_flags",
    "fallacy_trace",
    "run_full_report",
    "singlet_constraint_generators",
    "verify_combined_elements",
    "verify_constraint_family",
    "verify_derived_identities",
    "verify_product_constraint",
    "verify_resolution",
    "verify_singlet_constraints",
    "verify_singlet_construction",
]

# Pinned by brute force over the matrix representation before the symbolic
# layer existed; the enumeration must keep reproducing them.
EXPECTED_TRIPLE_COUNT = 20
EXPECTED_INCIDENCE_DEGREE = 4

# psi = psi1*psi2*psi3 with psi_k = (E_kk - 1)/2, as the numpy route builds it.
_PSI = "1/8*(E11-1)*(E22-1)*(E33-1)"


@dataclass
class IdentityCheck:
    """Outcome of one verified claim, with both routes recorded."""

    name: str
    paper_ref: str
    kind: str              # "strict" or "mod-psi"
    expected: str          # "verified" or "refuted"
    status: str
    residual_terms: int
    oracle_ok: bool        # matrix route agrees with the symbolic verdict
    residual: Element | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == self.expected and self.oracle_ok

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "paper_ref": self.paper_ref,
            "kind": self.kind,
            "expected": self.expected,
            "status": self.status,
            "residual_terms": self.residual_terms,
            "oracle_ok": self.oracle_ok,
        }


class Claim(NamedTuple):
    """One row of the claim table: ``lhs = rhs`` in the expression grammar."""

    name: str
    paper_ref: str
    kind: str              # "strict" or "mod-psi"
    expected: str          # "verified" or "refuted"
    lhs: str
    rhs: str


def _row(equation: str, ref: str, kind: str = "strict", expected: str = "verified",
         name: str = "{}") -> Claim:
    """The row for ``"lhs = rhs"``; ``name`` is a template for the equation."""
    lhs, rhs = equation.split(" = ")
    return Claim(name.format(equation), ref, kind, expected, lhs, rhs)


# --- the claim table -----------------------------------------------------------

_FALLACY_REF = "realist substitution argument"
_RESOLUTION_REF = "permutation-aware resolution"
_DEPENDENCE_REF = "functional dependence of the one-side words"

# (description, legitimate, note, claim), replayed by fallacy_trace.
_FALLACY_STEPS = (
    ("decompose E12 into one-side words",
     True, "plain product identity, valid everywhere",
     _row("E12 = E10*E02", _FALLACY_REF, name="fallacy: {}")),
    ("decompose E21 into one-side words",
     True, "plain product identity, valid everywhere",
     _row("E21 = E20*E01", _FALLACY_REF, name="fallacy: {}")),
    ("substitute E10 -> -E01 as if strict",
     False, "E01 + E10 is a nonzero element; the equality only holds against "
            "psi, so using it inside a strict identity is the illegitimate move",
     _row("E10 = -E01", _FALLACY_REF, expected="refuted",
          name="fallacy: {} (strict substitution)")),
    ("substitute E02 -> -E20 as if strict",
     False, "E02 + E20 is a nonzero element; same illegitimate move on the "
            "other axis",
     _row("E02 = -E20", _FALLACY_REF, expected="refuted",
          name="fallacy: {} (strict substitution)")),
    ("recombine the substituted product",
     True, "the recombination itself is sound: the signs cancel and E01*E20 "
           "really is E21",
     _row("E01*E20 = E21", _FALLACY_REF, name="fallacy: {}")),
    ("conclude E12 = E21, read strictly",
     False, "refuted: distinct words are never strictly equal",
     _row("E12 = E21", _FALLACY_REF, expected="refuted", name="fallacy: {} (strict)")),
    ("conclude E12 = E21, read on the singlet sector",
     False, "refuted there too; the sector enforces the opposite sign",
     _row("E12 = E21", _FALLACY_REF, "mod-psi", "refuted",
          name="fallacy: {} (mod psi)")),
)

# Every claim of the suite, by stage.  trace_normalized(-psi) = 1/4 is the one
# claim the grammar cannot state; see _trace_check.
CLAIMS: dict[str, tuple[Claim, ...]] = {
    "combined": tuple(
        _row(equation, "pair correlators from one-side word products")
        for k in (1, 2, 3)
        for equation in (f"E{k}{k} = E0{k}*E{k}0", f"E{k}{k} = E{k}0*E0{k}")),
    "construction": (
        *(_row(equation, "singlet construction")
          for k in (1, 2, 3)
          for equation in (f"(E{k}{k}+1)*psi = 0", f"E{k}{k}*psi = -psi")),
        _row("psi*psi = -psi", "singlet construction"),
        _row("(-psi)*(-psi) = -psi", "singlet construction"),
        _row(f"{_PSI} = 1/8*(E22-1)*(E11-1)*(E33-1)", "singlet construction",
             name="psi1*psi2*psi3 = psi2*psi1*psi3"),
        _row(f"{_PSI} = 1/8*(E33-1)*(E11-1)*(E22-1)", "singlet construction",
             name="psi1*psi2*psi3 = psi3*psi1*psi2"),
    ),
    "constraints": tuple(
        row for k in (1, 2, 3) for row in (
            _row(f"E0{k}+E{k}0 = 0", "singlet anticorrelation constraint",
                 "mod-psi", name=f"(E0{k}+E{k}0)*psi = 0"),
            _row(f"E0{k}+E{k}0 = 0",
                 "singlet anticorrelation constraint read strictly",
                 expected="refuted", name="{} (strict)"))),
    "product": (
        _row("E01*E20 = -E10*E02", "opposite product values on the singlet",
             "mod-psi", name="{} (mod psi)"),
        _row("E01*E20 = -E10*E02", "opposite product values read strictly",
             expected="refuted", name="{} (strict)"),
    ),
    # The last row is a deliberately false sector identity, a negative control.
    "battery": tuple(
        _row(equation, "singlet-sector identity battery", "mod-psi", expected,
             name="{} (mod psi)")
        for equation, expected in (
            ("E01 = -E10", "verified"), ("E02 = -E20", "verified"),
            ("E03 = -E30", "verified"), ("E01 = -i*E23", "verified"),
            ("E02 = i*E13", "verified"), ("E03 = i*E21", "verified"),
            ("E12 = -E21", "verified"), ("E23 = -E32", "verified"),
            ("E13 = -E31", "verified"), ("E12 = E21", "refuted"))),
    "family": tuple(
        _row(f"{x.name}*(E{k}{k}+1)*psi = 0",
             "constraint family generated by the correlator relations")
        for x in nontrivial_words() for k in (1, 2, 3)),
    "fallacy": tuple(claim for *_, claim in _FALLACY_STEPS),
    "resolution": (
        _row("E12 = -i*E13*E01", _RESOLUTION_REF),
        _row("E21 = -i*E22*E03", _RESOLUTION_REF),
        _row("E12 = -i*E10*E03*E01", _RESOLUTION_REF),
        _row("E21 = -i*E20*E02*E03", _RESOLUTION_REF),
        _row("E02 = -i*E03*E01", _DEPENDENCE_REF),
        _row("E01 = -i*E02*E03", _DEPENDENCE_REF),
        _row("E10*E03*E01 = E03*E10*E01", _RESOLUTION_REF),
        _row("E20*E02*E03 = -E03*E02*E20", _RESOLUTION_REF),
        _row("E12 = i*E03", _RESOLUTION_REF, "mod-psi", name="{} (mod psi)"),
        _row("E21 = -i*E03", _RESOLUTION_REF, "mod-psi", name="{} (mod psi)"),
        _row("E12 = -E21", _RESOLUTION_REF, "mod-psi",
             name="{} (mod psi, resolved)"),
    ),
}


# --- the two interpreters --------------------------------------------------------

def _numeric_psi_matrix() -> np.ndarray:
    """psi built by the numpy interpreter, independent of the symbolic layer."""
    return expr_matrix(parse_expr(_PSI))


def _outcome(row: Claim, residual: Element, oracle_equal: bool) -> IdentityCheck:
    status = "verified" if residual.is_zero else "refuted"
    return IdentityCheck(name=row.name, paper_ref=row.paper_ref, kind=row.kind,
                         expected=row.expected, status=status,
                         residual_terms=len(residual.terms),
                         oracle_ok=oracle_equal == (status == "verified"),
                         residual=residual)


def _sides(row: Claim, psi: Element | None, psi_m: np.ndarray
           ) -> tuple[Element, np.ndarray, np.ndarray]:
    """Parse both sides once: the exact difference, and each side through numpy."""
    lhs, rhs = parse_expr(row.lhs), parse_expr(row.rhs)
    return (to_element(lhs, psi) - to_element(rhs, psi),
            expr_matrix(lhs, psi_m), expr_matrix(rhs, psi_m))


def _check(row: Claim, psi: Element | None, psi_m: np.ndarray) -> IdentityCheck:
    residual, left, right = _sides(row, psi, psi_m)
    if row.kind == "mod-psi":
        residual = residual * psi
        left, right = left @ psi_m, right @ psi_m
    elif row.kind != "strict":
        raise ValueError(f"unknown check kind {row.kind!r}")
    return _outcome(row, residual, approx_equal(left, right))


def _run(stage: str, psi: Element | None = None) -> list[IdentityCheck]:
    psi_m = _numeric_psi_matrix()
    return [_check(row, psi, psi_m) for row in CLAIMS[stage]]


def _trace_check(psi: Element) -> IdentityCheck:
    """trace_normalized(-psi) = 1/4, the claim the grammar cannot state."""
    row = Claim("trace_normalized(-psi) = 1/4", "singlet construction", "strict",
                "verified", "trace_normalized(-psi)", "1/4")
    residual = Element.scalar((-psi).trace_normalized() - Fraction(1, 4), 2)
    oracle_equal = float(abs(np.trace(-_numeric_psi_matrix()) / 4 - 0.25)) <= TOLERANCE
    return _outcome(row, residual, oracle_equal)


# --- exact left-ideal machinery for the closure re-derivation ---------------

def _all_words() -> list[PauliWord]:
    return [PauliWord(t) for t in itertools.product(range(4), repeat=2)]


def _vector(el: Element, words: list[PauliWord]) -> list[Scalar]:
    return [el.coefficient(w) for w in words]


def _reduce_vector(basis: list[tuple[int, list[Scalar]]],
                   vec: list[Scalar]) -> list[Scalar]:
    vec = list(vec)
    for pivot, row in basis:
        c = vec[pivot]
        if c:
            vec = [a - c * b for a, b in zip(vec, row)]
    return vec


def _insert_row(basis: list[tuple[int, list[Scalar]]], vec: list[Scalar]) -> None:
    vec = _reduce_vector(basis, vec)
    for idx, c in enumerate(vec):
        if c:
            basis.append((idx, [x / c for x in vec]))
            basis.sort(key=lambda pr: pr[0])
            return


def singlet_constraint_generators() -> list[Element]:
    """The six defining constraints: E0k + Ek0 and Ekk + 1."""
    return [E(0, k) + E(k, 0) for k in (1, 2, 3)] + \
           [E(k, k) + 1 for k in (1, 2, 3)]


def _constraint_ideal_basis(words: list[PauliWord]) -> list[tuple[int, list[Scalar]]]:
    """Row basis of the left ideal spanned by word * generator products."""
    basis: list[tuple[int, list[Scalar]]] = []
    gens = singlet_constraint_generators()
    for w in words:
        w_el = Element.from_word(w)
        for g in gens:
            _insert_row(basis, _vector(w_el * g, words))
    return basis


# --- the stages: views over the table -------------------------------------------

def verify_combined_elements() -> list[IdentityCheck]:
    """Pair correlators as products of one-side words, both orders."""
    return _run("combined")


def verify_singlet_construction(s: SingletState) -> list[IdentityCheck]:
    """The defining properties of psi and its projector."""
    return _run("construction", s.psi) + [_trace_check(s.psi)]


def verify_singlet_constraints(s: SingletState) -> list[IdentityCheck]:
    """Opposite one-side values on the singlet, and their strict refutations."""
    return _run("constraints", s.psi)


def verify_product_constraint(s: SingletState) -> list[IdentityCheck]:
    """Opposite cross products on the singlet, and the strict refutation."""
    return _run("product", s.psi)


def verify_derived_identities(s: SingletState) -> list[IdentityCheck]:
    """The singlet-sector identity battery, each claim twice over.

    Once as a mod-psi check (does the difference annihilate psi?) and once
    as an exact ideal-membership reduction (is the difference a combination
    of word * constraint products?).  The two routes agree because the left
    ideal generated by the constraints is the full left annihilator of psi,
    but the second never multiplies by psi at all.
    """
    psi_m = _numeric_psi_matrix()
    words = _all_words()
    ideal = _constraint_ideal_basis(words)
    checks = []
    for row in CLAIMS["battery"]:
        diff, left, right = _sides(row, s.psi, psi_m)
        oracle_equal = approx_equal(left @ psi_m, right @ psi_m)
        checks.append(_outcome(row, diff * s.psi, oracle_equal))
        remainder = _reduce_vector(ideal, _vector(diff, words))
        closure = row._replace(name=f"closure: {row.lhs} = {row.rhs}",
                               paper_ref="re-derivation from the defining constraints")
        checks.append(_outcome(closure, Element(2, dict(zip(words, remainder))),
                               oracle_equal))
    return checks


def verify_constraint_family(s: SingletState) -> list[IdentityCheck]:
    """X*(Ekk+1)*psi = 0 for every nontrivial word X and k = 1, 2, 3."""
    return _run("family", s.psi)


def verify_resolution(s: SingletState) -> list[IdentityCheck]:
    """The permutation-aware rewriting that dissolves the contradiction.

    Strict identities express E12 and E21 through genuinely noncommuting
    factors; pushing them onto the singlet sector then lands on opposite
    multiples of E03, which restores E12 = -E21 instead of E12 = E21.
    """
    return _run("resolution", s.psi)


# --- classical value assignments ---------------------------------------------

CONSTRAINT_NAMES = ("opposite_x", "opposite_y", "opposite_products")


@dataclass(frozen=True)
class ClassicalAssignment:
    """One candidate table of definite +1/-1 outcomes for the four words."""

    m01: int
    m10: int
    m02: int
    m20: int

    @property
    def values(self) -> dict[str, int]:
        return {"E01": self.m01, "E10": self.m10,
                "E02": self.m02, "E20": self.m20}


def all_assignments() -> list[ClassicalAssignment]:
    """All 16 sign tables, in a fixed order."""
    return [ClassicalAssignment(*signs)
            for signs in itertools.product((1, -1), repeat=4)]


def constraint_flags(a: ClassicalAssignment) -> dict[str, bool]:
    """Which singlet constraints the assignment satisfies.

    ``opposite_x``/``opposite_y`` demand opposite values within each pair;
    ``opposite_products`` demands the two cross products carry opposite
    signs, which is what the product constraint forces on the singlet.
    """
    return {
        "opposite_x": a.m01 == -a.m10,
        "opposite_y": a.m02 == -a.m20,
        "opposite_products": a.m01 * a.m20 == -(a.m10 * a.m02),
    }


def classical_assignment_search(
        constraints: tuple[str, ...] = CONSTRAINT_NAMES) -> list[ClassicalAssignment]:
    """Exhaustively scan the 16 sign tables against the given constraints.

    With all three constraint families active the result is empty: the first
    two force the cross products equal while the third forces them opposite.
    """
    for c in constraints:
        if c not in CONSTRAINT_NAMES:
            raise ValueError(f"unknown constraint {c!r}")
    return [a for a in all_assignments()
            if all(constraint_flags(a)[c] for c in constraints)]


# --- the fallacy and its resolution ------------------------------------------

@dataclass
class FallacyStep:
    description: str
    legitimate: bool
    note: str
    check: IdentityCheck


@dataclass
class FallacyReport:
    """Replay of the realist substitution argument, step by step.

    The decompositions and the recombination are sound; the two substitution
    steps are not, because they promote sector-only equalities to strict
    ones.  The conclusion is refuted in both senses and clashes with the
    verified sector identity named in ``clash_with``.
    """

    steps: list[FallacyStep]
    clash_with: str

    @property
    def invalid_steps(self) -> list[FallacyStep]:
        return [s for s in self.steps if not s.legitimate]

    def checks(self) -> list[IdentityCheck]:
        return [s.check for s in self.steps]


def fallacy_trace(s: SingletState) -> FallacyReport:
    """Replay the slide from sector equalities to the false E12 = E21."""
    checks = _run("fallacy", s.psi)
    steps = [FallacyStep(description, legitimate, note, check)
             for (description, legitimate, note, _), check in zip(_FALLACY_STEPS, checks)]
    return FallacyReport(steps=steps, clash_with="E12 = -E21 (mod psi)")


# --- report assembly ----------------------------------------------------------

@dataclass
class VerificationReport:
    """Aggregated outcome of the whole suite, canonically serializable."""

    version: str
    checks: list[IdentityCheck]
    triples: dict
    peres: dict
    homomorphism: dict
    notes: list[str]
    overall: str

    def failing_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.ok]

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "checks": [c.to_dict() for c in self.checks],
            "triples": self.triples,
            "peres": self.peres,
            "homomorphism": self.homomorphism,
            "notes": list(self.notes),
            "overall": self.overall,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_markdown(self) -> str:
        lines = [
            "# eprkit verification report",
            "",
            f"version: {self.version}",
            f"overall: **{self.overall}**",
            "",
            "## identity checks",
            "",
            "| check | kind | expected | status | oracle | residual terms |",
            "| --- | --- | --- | --- | --- | --- |",
        ]
        for c in self.checks:
            lines.append(f"| {c.name} | {c.kind} | {c.expected} | {c.status} "
                         f"| {'ok' if c.oracle_ok else 'DISAGREES'} "
                         f"| {c.residual_terms} |")
        lines += [
            "",
            "## basic triples",
            "",
            f"- enumerated: {self.triples['count']}",
            f"- incidence degrees: {self.triples['incidence_degrees']}",
            "- found but not in the published list: "
            + (", ".join("(" + ", ".join(t) + ")"
                         for t in self.triples["missing_from_paper"]) or "none"),
            "- listed but not found: "
            + (", ".join("(" + ", ".join(t) + ")"
                         for t in self.triples["extra_in_paper"]) or "none"),
            "- sets containing E12: "
            + ", ".join("(" + ", ".join(t) + ")"
                        for t in self.triples["e12_memberships"]),
            "",
            "## classical assignment search",
            "",
            f"- assignments scanned: {self.peres['assignments']}",
            f"- satisfying all constraints: {self.peres['solutions']}",
            f"- satisfying all but the product constraint: "
            f"{self.peres['solutions_without_product_constraint']}",
            "",
            "## word-product cross-check",
            "",
            f"- word pairs: {self.homomorphism['pairs']}, matrix route agrees: "
            f"{self.homomorphism['oracle_agree']}",
            "",
            "## notes",
            "",
        ]
        lines += [f"- {n}" for n in self.notes]
        lines.append("")
        return "\n".join(lines)


_REPORT_NOTES = [
    "psi*psi = -psi: the construction is anti-idempotent as built; the "
    "projector -psi is exposed alongside and used for all expectations",
    "outcome probabilities use the Born pair (1 +/- mean)/2; the "
    "half-plus-mean pair (1/2 +/- mean) is printed by `expect` for "
    "comparison and can leave [0, 1]",
    "the published basic-set list omits three sets that exhaustive "
    "enumeration finds; see triples.missing_from_paper",
]


def _word_product_cross_check() -> dict:
    """Every two-site word product against the matrix route."""
    words = _all_words()
    agree = 0
    mats = {w: word_matrix(w) for w in words}
    for a in words:
        for b in words:
            k, w = mul_words(a, b)
            if approx_equal(mats[a] @ mats[b], (1j ** k) * mats[w]):
                agree += 1
    return {"pairs": len(words) ** 2, "oracle_agree": agree}


def run_full_report(s: SingletState | None = None,
                    fault: str | None = None) -> VerificationReport:
    """Run every check and aggregate one deterministic report.

    ``fault="corrupt-singlet"`` deliberately perturbs psi before running, so
    downstream failure handling can be exercised end to end.
    """
    from . import __version__

    if s is None:
        s = build_singlet()
    if fault == "corrupt-singlet":
        bad = s.psi + Element.from_word(PauliWord((1, 2)), Fraction(1, 2))
        s = SingletState(psi=bad, projector=-bad)
    elif fault is not None:
        raise ValueError(f"unknown fault {fault!r}")

    checks = (verify_combined_elements()
              + verify_singlet_construction(s)
              + verify_singlet_constraints(s)
              + verify_product_constraint(s)
              + verify_derived_identities(s)
              + verify_constraint_family(s)
              + fallacy_trace(s).checks()
              + verify_resolution(s))
    checks.sort(key=lambda c: c.name)
    names = [c.name for c in checks]
    if len(names) != len(set(names)):
        raise RuntimeError("duplicate check names in report")

    found = enumerate_basic_triples()
    diff = diff_with_paper_list(found)
    incidence = build_incidence(found)
    degrees = sorted({len(v) for v in incidence.values()})
    e12 = incidence[PauliWord((1, 2))]
    triples_summary = diff.to_dict()
    triples_summary["incidence_degrees"] = degrees
    triples_summary["e12_memberships"] = [list(t.names) for t in e12]

    peres = {
        "assignments": len(all_assignments()),
        "solutions": len(classical_assignment_search()),
        "solutions_without_product_constraint":
            len(classical_assignment_search(("opposite_x", "opposite_y"))),
    }
    homomorphism = _word_product_cross_check()

    structural_ok = (
        homomorphism["oracle_agree"] == homomorphism["pairs"]
        and triples_summary["count"] == EXPECTED_TRIPLE_COUNT
        and not triples_summary["extra_in_paper"]
        and degrees == [EXPECTED_INCIDENCE_DEGREE]
        and peres["solutions"] == 0
        and peres["solutions_without_product_constraint"] == 4
    )
    overall = "pass" if structural_ok and all(c.ok for c in checks) else "fail"
    return VerificationReport(version=__version__, checks=checks,
                              triples=triples_summary, peres=peres,
                              homomorphism=homomorphism,
                              notes=list(_REPORT_NOTES), overall=overall)
