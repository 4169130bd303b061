"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
every expected figure is pinned here, nothing is deferred.
"""

import itertools
import json
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

from eprkit.element import E, Element, IM
from eprkit.epr import (
    CONSTRAINT_NAMES,
    classical_assignment_search,
    fallacy_trace,
    verify_product_constraint,
    verify_resolution,
    verify_singlet_constraints,
)
from eprkit.matrices import Matrix, approx_equal, element_matrix, word_matrix
from eprkit.pauli import PauliWord, compose_letters, mul_words
from eprkit.singlet import build_singlet
from eprkit.triples import (
    PAPER_BASIC_SETS,
    build_incidence,
    enumerate_basic_triples,
    paper_sets_as_words,
)

from numeric import eigenvalues

ALL_WORDS = [PauliWord(t) for t in itertools.product(range(4), repeat=2)]
NONTRIVIAL = [w for w in ALL_WORDS if not w.is_identity]


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def test_criterion_1_generator_laws():
    with criterion(1, "generator laws"):
        # the nine nonzero-letter results, written out independently
        expected = {
            (1, 1): (0, 0), (2, 2): (0, 0), (3, 3): (0, 0),
            (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
            (2, 1): (3, 3), (3, 2): (3, 1), (1, 3): (3, 2),
        }
        for pair, result in expected.items():
            assert compose_letters(*pair) == result
        # all 256 two-site products: recompute site by site from the letter
        # table (with identity absorption) and confirm via the matrix route
        def site_table(a, b):
            if a == 0:
                return 0, b
            if b == 0:
                return 0, a
            return expected[a, b]

        for wa, wb in itertools.product(ALL_WORDS, repeat=2):
            phase, letters = 0, []
            for x, y in zip(wa, wb):
                k, c = site_table(x, y)
                phase += k
                letters.append(c)
            assert mul_words(wa, wb) == (phase % 4, PauliWord(letters))
            k, w = mul_words(wa, wb)
            assert approx_equal(word_matrix(wa) * word_matrix(wb),
                                word_matrix(w).times_i(k))


def test_criterion_2_singlet_construction():
    with criterion(2, "singlet construction"):
        s = build_singlet()
        for k in (1, 2, 3):
            assert ((E(k, k) + 1) * s.psi).is_zero
            assert E(k, k) * s.psi == -s.psi
        factors = [(E(k, k) - 1) / 2 for k in (1, 2, 3)]
        for perm in itertools.permutations(factors):
            assert perm[0] * perm[1] * perm[2] == s.psi
        assert s.psi * s.psi == -s.psi
        m = element_matrix(-s.psi)
        assert eigenvalues(m) == [0, 0, 0, 1]
        assert m.trace() == (1, 0)


def test_criterion_3_peres_constraints():
    with criterion(3, "singlet constraints"):
        s = build_singlet()
        for k in (1, 2, 3):
            assert ((E(0, k) + E(k, 0)) * s.psi).is_zero
            assert not (E(0, k) + E(k, 0)).is_zero
        product_sum = E(0, 1) * E(2, 0) + E(1, 0) * E(0, 2)
        assert (product_sum * s.psi).is_zero
        assert not product_sum.is_zero
        for check in verify_singlet_constraints(s) + verify_product_constraint(s):
            assert check.ok


def test_criterion_4_classical_contradiction():
    with criterion(4, "classical assignment contradiction"):
        assert classical_assignment_search() == []
        without_product = classical_assignment_search(
            tuple(c for c in CONSTRAINT_NAMES if c != "opposite_products"))
        assert len(without_product) == 4


def test_criterion_5_identity_battery_and_fallacy():
    with criterion(5, "identity battery and fallacy"):
        s = build_singlet()
        battery = [
            (E(0, 1), -E(1, 0)), (E(0, 1), -IM * E(2, 3)),
            (E(0, 2), -E(2, 0)), (E(0, 2), IM * E(1, 3)),
            (E(0, 3), -E(3, 0)), (E(0, 3), IM * E(2, 1)),
            (E(1, 2), -E(2, 1)), (E(2, 3), -E(3, 2)), (E(1, 3), -E(3, 1)),
        ]
        for lhs, rhs in battery:
            assert ((lhs - rhs) * s.psi).is_zero
        assert not (E(1, 2) - E(2, 1)).is_zero
        assert not ((E(1, 2) - E(2, 1)) * s.psi).is_zero
        trace = fallacy_trace(s)
        flagged = [st for st in trace.steps
                   if not st.legitimate and "substitute" in st.description]
        assert len(flagged) == 2
        for step in flagged:
            assert step.check.status == "refuted"
        conclusion = {c.name: c for c in trace.checks()}
        assert conclusion["fallacy: E12 = E21 (strict)"].status == "refuted"
        assert conclusion["fallacy: E12 = E21 (mod psi)"].status == "refuted"


def test_criterion_6_resolution():
    with criterion(6, "permutation-aware resolution"):
        s = build_singlet()
        strict_cases = [
            (E(1, 2), -IM * (E(1, 3) * E(0, 1))),
            (E(2, 1), -IM * (E(2, 2) * E(0, 3))),
            (E(1, 2), -IM * (E(1, 0) * E(0, 3) * E(0, 1))),
            (E(2, 1), -IM * (E(2, 0) * E(0, 2) * E(0, 3))),
            (E(0, 2), -IM * (E(0, 3) * E(0, 1))),
            (E(0, 1), -IM * (E(0, 2) * E(0, 3))),
        ]
        for lhs, rhs in strict_cases:
            assert lhs == rhs
            assert approx_equal(element_matrix(lhs), element_matrix(rhs))
        for lhs, rhs in [(E(1, 2), IM * E(0, 3)),
                         (E(2, 1), -IM * E(0, 3)),
                         (E(1, 2), -E(2, 1))]:
            assert ((lhs - rhs) * s.psi).is_zero
        for check in verify_resolution(s):
            assert check.ok
            if check.kind == "strict":
                assert check.oracle_ok


def test_criterion_7_enumeration():
    with criterion(7, "triple enumeration"):
        found = enumerate_basic_triples()
        # matrix-only recount, independent of the symbolic route
        zero, i_eye = Matrix.scalar(4, 0), Matrix.scalar(4, 0, 1)
        recount = 0
        for combo in itertools.combinations(NONTRIVIAL, 3):
            a, b, c = (word_matrix(w) for w in combo)
            if not all(x * y + y * x == zero for x, y in ((a, b), (a, c), (b, c))):
                continue
            if a * b * c in (i_eye, -i_eye):
                recount += 1
        assert recount == 20
        assert len(found) == 20
        member_sets = {frozenset(t.members) for t in found}
        for s in paper_sets_as_words():
            assert frozenset(s) in member_sets
        incidence = build_incidence(found)
        for w in NONTRIVIAL:
            assert len(incidence[w]) == 4
        e12_sets = {frozenset(t.members) for t in incidence[PauliWord((1, 2))]}
        assert e12_sets == {frozenset(PauliWord(p) for p in PAPER_BASIC_SETS[i])
                            for i in (0, 6, 12, 15)}
        assert found == enumerate_basic_triples()


def test_criterion_8_expectations():
    with criterion(8, "expectations and probabilities"):
        s = build_singlet()
        correlators = {PauliWord((k, k)) for k in (1, 2, 3)}
        for w in NONTRIVIAL:
            mean = s.expectation(Element.from_word(w))
            assert mean == (-1 if w in correlators else 0)
            p_plus, p_minus = s.outcome_probabilities(Element.from_word(w))
            assert p_plus + p_minus == 1
        assert s.expectation(Element.one(2)) == 1
        assert s.outcome_probabilities(E(1, 1)) == (Fraction(0), Fraction(1))


def test_criterion_9_cli():
    with criterion(9, "command-line interface"):
        def run(*argv):
            return subprocess.run([sys.executable, "-m", "eprkit", *argv],
                                  capture_output=True, text=True, check=False)

        first = run("verify", "--format", "json")
        second = run("verify", "--format", "json")
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["overall"] == "pass"

        faulted = run("verify", "--inject-fault")
        assert faulted.returncode == 1

        broken = run("eval", "E01*")
        assert broken.returncode != 0
        assert "SyntaxError" in broken.stderr
