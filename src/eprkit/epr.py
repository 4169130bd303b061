"""The singlet identity suite end to end.

Every claim is one row of the table :data:`CLAIMS`: a name, a paper
reference, a kind, the expected verdict, and the two sides as text in the
expression grammar of :mod:`eprkit.exprparse`.  To add a claim, add a row.
Each check carries an explicit kind, ``strict`` for equalities of elements
and ``mod-psi`` for equalities that hold only after right-multiplication by
psi; the fallacy trace exists precisely because conflating the two kinds
silently turns a true singlet-sector statement into a false strict one.
Two interpreters decide each row, each reading a mod-psi claim as the
strict claim ``(lhs)*psi = (rhs)*psi`` for itself: the exact symbolic layer,
which evaluates each parsed side (:func:`~eprkit.exprparse.to_element`),
compares the two values in :func:`_residual` and builds their residual
only where they differ, and the exact
matrix oracle (:func:`~eprkit.matrices.expr_program`, with its own psi),
which reads the text of that claim with its own reader and shares neither
the parser, the tree walk nor the arithmetic of the first.  Both decide by
literal equality.  The constraint rows get a third, realist reading
(:func:`constraint_flags`): each word a definite +1/-1 value, the
assumption the paper disputes.  Only ``trace_normalized(-psi) = 1/4`` is
outside the grammar and checked by hand.  The rows are constant, so each
row is read once per process into one record (:func:`_record`): its parsed
sides, the oracle's two programs (each text read once, :data:`_program`)
and a battery row's closure twin.  A record holds syntax only, never a
value: each report evaluates the sides against its own psi and runs the
programs afresh.

The ``closure:`` checks decide the battery without psi, by rewriting each
side with the singlet constraints at the right end of its words
(``Eab = Ea0*E0b -> -Ea0*Eb0``) and asking whether the two rewrites differ;
the rewrite is linear, so their residual is that of the difference.

Checks that are *supposed* to fail (the fallacy's conclusion, the strict
readings of sector-only constraints) are first-class: the suite asserts
refutation, not merely absence of verification.  The report's JSON is the
standard encoder's bytes; only a check is written from a template of its own.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from json.encoder import JSONEncoder, _make_iterencode, encode_basestring_ascii
from typing import Callable, NamedTuple

from .element import E, Element
from .exprparse import Expr, evaluate, parse_expr, to_element
from .matrices import Matrix, _symbol_matrix, approx_equal, expr_program
from .pauli import PauliWord, mul_words
from .singlet import PSI_TEXT, SingletState, build_singlet
from .triples import (build_incidence, diff_with_paper_list, enumerate_basic_triples,
                      nontrivial_words)

__all__ = [
    "CLAIMS",
    "Claim",
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
    "peres_counts",
    "run_full_report",
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


class IdentityCheck(NamedTuple):
    """Outcome of one verified claim, with both routes recorded."""

    name: str
    paper_ref: str
    kind: str              # "strict" or "mod-psi"
    expected: str          # "verified" or "refuted"
    status: str
    residual_terms: int
    oracle_ok: bool        # matrix route agrees with the symbolic verdict

    @property
    def ok(self) -> bool:
        return self.status == self.expected and self.oracle_ok


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

# (description, note, claim), replayed by fallacy_trace; a step is
# legitimate exactly when its claim is expected to be verified.
_FALLACY_STEPS = (
    ("decompose E12 into one-side words",
     "plain product identity, valid everywhere",
     _row("E12 = E10*E02", _FALLACY_REF, name="fallacy: {}")),
    ("decompose E21 into one-side words",
     "plain product identity, valid everywhere",
     _row("E21 = E20*E01", _FALLACY_REF, name="fallacy: {}")),
    ("substitute E10 -> -E01 as if strict",
     "E01 + E10 is a nonzero element; the equality only holds against "
     "psi, so using it inside a strict identity is the illegitimate move",
     _row("E10 = -E01", _FALLACY_REF, expected="refuted",
          name="fallacy: {} (strict substitution)")),
    ("substitute E02 -> -E20 as if strict",
     "E02 + E20 is a nonzero element; same illegitimate move on the other axis",
     _row("E02 = -E20", _FALLACY_REF, expected="refuted",
          name="fallacy: {} (strict substitution)")),
    ("recombine the substituted product",
     "the recombination itself is sound: the signs cancel and E01*E20 really is E21",
     _row("E01*E20 = E21", _FALLACY_REF, name="fallacy: {}")),
    ("conclude E12 = E21, read strictly",
     "refuted: distinct words are never strictly equal",
     _row("E12 = E21", _FALLACY_REF, expected="refuted", name="fallacy: {} (strict)")),
    ("conclude E12 = E21, read on the singlet sector",
     "refuted there too; the sector enforces the opposite sign",
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
        _row(f"{PSI_TEXT} = 1/8*(E22-1)*(E11-1)*(E33-1)", "singlet construction",
             name="psi1*psi2*psi3 = psi2*psi1*psi3"),
        _row(f"{PSI_TEXT} = 1/8*(E33-1)*(E11-1)*(E22-1)", "singlet construction",
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

def _outcome(row: Claim, residual: Element, oracle_equal: bool) -> IdentityCheck:
    verified = residual.is_zero
    # Positional, with tuple.__new__: the NamedTuple without its keyword __new__.
    return tuple.__new__(IdentityCheck, (
        row.name, row.paper_ref, row.kind, row.expected,
        "verified" if verified else "refuted", len(residual.terms), oracle_equal == verified))


def _difference(lhs: Element, rhs: Element) -> Element:
    """``lhs - rhs``, subtracted only when the two values differ.

    Equal elements have a zero difference, so equality only short-cuts the
    zero case: a pair that differs is still decided by its residual.
    """
    return Element.zero(lhs.arity) if lhs == rhs else lhs - rhs


def _residual(kind: str, lhs: Element, rhs: Element, psi: Element | None) -> Element:
    """The residual of ``lhs = rhs``; a mod-psi claim reads ``(lhs)*psi = (rhs)*psi``.

    The two values the claim equates are compared first, and subtracted
    only where they differ (:func:`_difference`).
    """
    if kind == "mod-psi":
        lhs, rhs = lhs * psi, rhs * psi
    return _difference(lhs, rhs)


# The oracle's program of each claim text, read once per process; only the
# claim table's texts come here, so the table bounds the cache.
_program = cache(expr_program)


def _programs(row: Claim) -> tuple[Callable[[], Matrix], Callable[[], Matrix]]:
    """The oracle's programs for the two sides of ``row``.

    The oracle writes its own mod-psi text: ``lhs = rhs`` becomes
    ``(lhs)*psi = (rhs)*psi``.  A kind other than these two is refused.
    """
    if row.kind == "mod-psi":
        return _program(f"({row.lhs})*psi"), _program(f"({row.rhs})*psi")
    if row.kind != "strict":
        raise ValueError(f"unknown check kind {row.kind!r}")
    return _program(row.lhs), _program(row.rhs)


class _Record(NamedTuple):
    """A claim row as read once per process: syntax only, never a value."""

    sides: tuple[Expr, Expr]        # the parsed lhs and rhs
    left: Callable[[], Matrix]      # the oracle's programs for the same claim
    right: Callable[[], Matrix]
    closure: Claim | None           # a battery row's closure twin, else None


@cache
def _record(row: Claim) -> _Record:
    """``row`` read once per process: parsed and read by the oracle."""
    sides = parse_expr(row.lhs), parse_expr(row.rhs)
    closure = None
    if row in CLAIMS["battery"]:
        closure = row._replace(name=f"closure: {row.lhs} = {row.rhs}",
                               paper_ref="re-derivation from the defining constraints")
    return _Record(sides, *_programs(row), closure)


def _run(stage: str, psi: Element | None = None) -> list[IdentityCheck]:
    """Each row of ``stage`` decided on its two side values, a closure twin after its row."""
    checks = []
    for row in CLAIMS[stage]:
        rec = _record(row)
        lhs, rhs = rec.sides
        lhs, rhs = to_element(lhs, psi), to_element(rhs, psi)
        oracle_equal = approx_equal(rec.left(), rec.right())
        checks.append(_outcome(row, _residual(row.kind, lhs, rhs, psi), oracle_equal))
        if rec.closure is not None:
            remainder = _difference(_constraint_remainder(lhs), _constraint_remainder(rhs))
            checks.append(_outcome(rec.closure, remainder, oracle_equal))
    return checks


_TRACE_ROW = Claim("trace_normalized(-psi) = 1/4", "singlet construction", "strict",
                   "verified", "trace_normalized(-psi)", "1/4")


def _trace_check(psi: Element) -> IdentityCheck:
    """trace_normalized(-psi) = 1/4, the claim the grammar cannot state."""
    residual = Element.scalar((-psi).trace_normalized() - Fraction(1, 4), 2)
    re, im = _program("-psi")().trace()
    return _outcome(_TRACE_ROW, residual, (re / 4, im) == (Fraction(1, 4), 0))


# --- the closure re-derivation: rewriting with the constraints ------------------

# The axis words E00, E10, E20, E30 as elements, built once: elements are
# immutable, so every rewrite shares them, as exprparse._WORDS is shared.
_AXES = tuple(E(a, 0) for a in range(4))


def _constraint_remainder(el: Element) -> Element:
    """A two-site element modulo the left ideal of the singlet constraints.

    ``Eab = Ea0*E0b`` and ``X*E0b = -X*Eb0`` modulo the ideal, so for b != 0
    ``Eab`` reduces to the element product ``-Ea0*Eb0``, whose letters
    :mod:`eprkit.pauli` composes.  The four ``Ea0`` are read from
    :data:`_AXES`, and the product is taken afresh for every term.  What is
    left is a combination of E00, E10, E20, E30, zero exactly on the ideal.
    ``Ekk + 1 = Ek0*(E0k + Ek0)`` needs no rule of its own.
    """
    rest = Element.zero(2)
    for (a, b), c in el.terms.items():
        rest += (-_AXES[a] * _AXES[b] if b else _AXES[a]) * c
    return rest


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
    as a closure check: do the two sides rewritten with the constraints
    (:func:`_constraint_remainder`) agree?  The rewrite is linear, so this
    asks whether the plain difference rewrites to nothing.  The second
    never multiplies by psi; its oracle is the first one's.  A test pins that
    the rewrite kills every word * generator product and leaves a rank-4
    remainder of the 16 words, so its kernel is exactly the twelve-dimensional
    left ideal of the constraints, which is the full left annihilator of psi;
    hence the two routes agree.  Battery sides name no psi, so both checks
    read the same two side values.
    """
    return _run("battery", s.psi)


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


# --- the realist reading: the constraint rows over definite values -------------

CONSTRAINT_NAMES = {"opposite_x": CLAIMS["constraints"][0],
                    "opposite_y": CLAIMS["constraints"][2],
                    "opposite_products": CLAIMS["product"][0]}


@cache
def _table_words(rows: tuple[Claim, ...]) -> tuple[PauliWord, ...]:
    """The words ``rows`` name, in order of first appearance (syntax only)."""
    first: dict[PauliWord, int] = {}
    for side in itertools.chain.from_iterable(_record(row).sides for row in rows):
        evaluate(side, lambda letters: first.setdefault(PauliWord(letters), 1))
    return tuple(first)


def all_assignments() -> list[dict[PauliWord, int]]:
    """All 16 tables of +1/-1 values for the words the constraint rows name, in order."""
    words = _table_words(tuple(CONSTRAINT_NAMES.values()))
    return [dict(zip(words, signs)) for signs in itertools.product((1, -1), repeat=len(words))]


def constraint_flags(table: dict[PauliWord, int]) -> dict[str, bool]:
    """Which constraint rows hold when each word takes its value in ``table``.

    Sums and products of words become sums and products of numbers: the
    realist reading, which the paper disputes.
    """
    value = table.__getitem__
    flags = {}
    for name, row in CONSTRAINT_NAMES.items():
        lhs, rhs = _record(row).sides
        flags[name] = evaluate(lhs, value) == evaluate(rhs, value)
    return flags


def peres_counts(flags: list[dict[str, bool]]) -> dict[str, int]:
    """The Peres counts over the tables' :func:`constraint_flags`.

    ``solutions`` counts the tables that satisfy every constraint row, and
    ``solutions_without_product_constraint`` those that satisfy both
    opposite-value rows.
    """
    return {"assignments": len(flags),
            "solutions": sum(all(f.values()) for f in flags),
            "solutions_without_product_constraint":
                sum(f["opposite_x"] and f["opposite_y"] for f in flags)}


def classical_assignment_search(
        constraints: tuple[str, ...] = tuple(CONSTRAINT_NAMES)) -> list[dict[PauliWord, int]]:
    """Exhaustively scan the 16 sign tables against the given constraints.

    With all three constraint rows active the result is empty: the first
    two force the cross products equal while the third forces them opposite.
    """
    if isinstance(constraints, str):
        raise TypeError(f"constraints must be an iterable of names, not the str {constraints!r}")
    constraints = tuple(constraints)
    for c in constraints:
        if c not in CONSTRAINT_NAMES:
            raise ValueError(f"unknown constraint {c!r}")
    return [table for table in all_assignments()
            if all(map(constraint_flags(table).__getitem__, constraints))]


# --- the fallacy and its resolution ------------------------------------------

class FallacyStep(NamedTuple):
    description: str
    legitimate: bool
    note: str
    check: IdentityCheck


class FallacyReport(NamedTuple):
    """Replay of the realist substitution argument, step by step.

    The decompositions and the recombination are sound; the two substitution
    steps are not, because they promote sector-only equalities to strict
    ones.  The conclusion is refuted in both senses and clashes with the
    verified sector identity named in ``clash_with``.
    """

    steps: list[FallacyStep]
    clash_with: str

    def checks(self) -> list[IdentityCheck]:
        return [s.check for s in self.steps]


# The battery row the fallacy's conclusion clashes with: its words, opposite sign.
_CONCLUSION = _FALLACY_STEPS[-1][-1]
_CLASH_WITH = next(row.name for row in CLAIMS["battery"]
                   if (row.lhs, row.rhs) == (_CONCLUSION.lhs, "-" + _CONCLUSION.rhs))


def fallacy_trace(s: SingletState) -> FallacyReport:
    """Replay the slide from sector equalities to the false E12 = E21."""
    checks = _run("fallacy", s.psi)
    steps = [FallacyStep(description, claim.expected == "verified", note, check)
             for (description, note, claim), check in zip(_FALLACY_STEPS, checks)]
    return FallacyReport(steps=steps, clash_with=_CLASH_WITH)


# --- report assembly ----------------------------------------------------------

# json.dumps(value, indent=2)'s own writer, the private json.encoder._make_iterencode, made
# once: json.dumps remakes it per call in a cycle (test_the_hot_paths_leave_no_cyclic_garbage).
_indented = _make_iterencode(None, JSONEncoder().default, encode_basestring_ascii, "  ",
                             float.__repr__, ": ", ",", False, False, False)
# A check as json.dumps(report.to_dict(), indent=2) writes it, a %s per field.
_CHECK = "\n    {" + ",".join(f'\n      "{f}": %s' for f in IdentityCheck._fields) + "\n    }"


def _int_json(value) -> str:
    """An int or a bool as json.dumps writes it; any other type raises TypeError."""
    return "true" if value is True else "false" if value is False else int.__repr__(value)


class VerificationReport(NamedTuple):
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
        return {**self._asdict(), "checks": [c._asdict() for c in self.checks]}

    def to_json(self) -> str:
        """The bytes of ``json.dumps(self.to_dict(), indent=2) + "\\n"``: each check
        fills :data:`_CHECK`, every other field goes through :data:`_indented`."""
        text = encode_basestring_ascii
        checks = ",".join([_CHECK % (text(name), text(ref), text(kind), text(expected),
                                     text(status), _int_json(terms), _int_json(ok))
                           for name, ref, kind, expected, status, terms, ok in self.checks])
        fields = [f'\n  "{key}": ' + ("[" + checks + "\n  ]" if key == "checks" and checks
                                      else "".join(_indented(value, 1)))
                  for key, value in self._asdict().items()]
        return "{" + ",".join(fields) + "\n}\n"

    def to_markdown(self) -> str:
        def sets(key: str) -> str:
            return ", ".join("(" + ", ".join(t) + ")" for t in self.triples[key]) or "none"

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
            "- found but not in the published list: " + sets("missing_from_paper"),
            "- listed but not found: " + sets("extra_in_paper"),
            "- sets containing E12: " + sets("e12_memberships"),
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


@cache
def _word_phases() -> dict[PauliWord, tuple[Matrix, ...]]:
    """Each two-site word's oracle matrix times each unit ``i**k``, k = 0..3.

    Built once per process from :func:`~eprkit.matrices._symbol_matrix`
    alone, like the word matrices themselves; ``k = 0`` is the word matrix.
    """
    return {w: tuple(_symbol_matrix(w).times_i(k) for k in range(4))
            for w in map(PauliWord, itertools.product(range(4), repeat=2))}


def _word_product_cross_check() -> dict:
    """Every two-site word product against the matrix route.

    The phase table is constant; each report multiplies all 256 pairs of
    word matrices afresh and compares each product with the phase image of
    the word and phase that ``mul_words`` gives.
    """
    phases = _word_phases()
    agree = 0
    for a, pa in phases.items():
        ma = pa[0]
        for b, pb in phases.items():
            k, w = mul_words(a, b)
            if ma * pb[0] == phases[w][k]:
                agree += 1
    return {"pairs": len(phases) ** 2, "oracle_agree": agree}


def run_full_report(fault: str | None = None) -> VerificationReport:
    """Run every check on :func:`build_singlet`'s psi and aggregate one report.

    ``fault="corrupt-singlet"`` deliberately perturbs psi before running, so
    downstream failure handling can be exercised end to end.
    """
    from . import __version__

    s = build_singlet()
    if fault == "corrupt-singlet":
        bad = s.psi + Element.from_word(PauliWord((1, 2)), Fraction(1, 2))
        s = SingletState(bad)
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

    peres = peres_counts([constraint_flags(table) for table in all_assignments()])
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
