"""Construction and use of the singlet sector."""

import itertools
from fractions import Fraction

import pytest

from eprkit.element import ArityMismatchError, E, Element, IM, Scalar, e
from eprkit.matrices import approx_equal, element_matrix
from eprkit.pauli import PauliWord
from eprkit.singlet import NotAnInvolutionError, build_singlet

from numeric import eigenvalues


class TestConstruction:
    def test_expanded_form(self, singlet):
        # psi = (E11 + E22 + E33 - 1)/4, worked out by hand and by matrices
        expected = (E(1, 1) + E(2, 2) + E(3, 3) - 1) / 4
        assert singlet.psi == expected

    def test_anti_idempotent(self, singlet):
        assert singlet.psi * singlet.psi == -singlet.psi

    def test_projector_is_idempotent(self, singlet):
        p = singlet.projector
        assert p * p == p
        assert p == -singlet.psi

    def test_projector_trace(self, singlet):
        assert singlet.projector.trace_normalized() == Fraction(1, 4)

    def test_correlators_absorb_with_minus_one(self, singlet):
        for k in (1, 2, 3):
            assert E(k, k) * singlet.psi == -singlet.psi
            assert ((E(k, k) + 1) * singlet.psi).is_zero

    def test_all_factor_orderings_agree(self, singlet):
        factors = [(E(k, k) - 1) / 2 for k in (1, 2, 3)]
        for perm in itertools.permutations(factors):
            assert perm[0] * perm[1] * perm[2] == singlet.psi

    def test_projector_is_rank_one_with_unit_trace(self, singlet):
        m = element_matrix(singlet.projector)
        assert eigenvalues(m) == [0, 0, 0, 1]
        assert m.trace() == (1, 0)


class TestEqualModPsi:
    def test_opposite_one_side_words(self, singlet):
        assert singlet.equal_mod_psi(E(0, 1), -E(1, 0))

    def test_reflexive_for_arbitrary_elements(self, singlet):
        el = 3 * E(0, 1) - IM * E(2, 2)
        assert singlet.equal_mod_psi(el, el)

    def test_same_sign_pair_differs(self, singlet):
        assert not singlet.equal_mod_psi(E(0, 1), E(1, 0))
        residual = (E(0, 1) - E(1, 0)) * singlet.psi
        assert not residual.is_zero

    def test_is_an_equivalence_on_the_word_basis(self, singlet, all_words):
        projected = {w: Element.from_word(w) * singlet.psi for w in all_words}
        related = {(a, b) for a in all_words for b in all_words
                   if projected[a] == projected[b]}
        for a in all_words:
            assert (a, a) in related
        for a, b in related:
            assert (b, a) in related
        for a, b in related:
            for c in all_words:
                if (b, c) in related:
                    assert (a, c) in related

    def test_implies_matrix_agreement(self, singlet, all_words):
        psi_m = element_matrix(singlet.psi)
        for w in all_words:
            for v in all_words:
                a, b = Element.from_word(w), Element.from_word(v)
                if singlet.equal_mod_psi(a, b):
                    assert approx_equal(element_matrix(a) * psi_m,
                                        element_matrix(b) * psi_m)

    def test_arity_mismatch(self, singlet):
        with pytest.raises(ArityMismatchError):
            singlet.equal_mod_psi(e(1), e(2))


class TestExpectation:
    def test_correlators_have_mean_minus_one(self, singlet):
        for k in (1, 2, 3):
            assert singlet.expectation(E(k, k)) == -1

    def test_identity_has_mean_one(self, singlet):
        assert singlet.expectation(Element.one(2)) == 1

    def test_all_other_words_have_mean_zero(self, singlet, nontrivial):
        correlators = {PauliWord((k, k)) for k in (1, 2, 3)}
        for w in nontrivial:
            expected = -1 if w in correlators else 0
            assert singlet.expectation(Element.from_word(w)) == expected

    def test_mean_is_exact_scalar(self, singlet):
        mean = singlet.expectation(E(1, 1) / 3)
        assert mean == Scalar(Fraction(-1, 3))

    def test_matches_matrix_route(self, singlet, nontrivial):
        p = element_matrix(singlet.projector)
        norm, _ = p.trace()
        for w in nontrivial:
            re, im = (p * element_matrix(Element.from_word(w))).trace()
            mean = singlet.expectation(Element.from_word(w))
            assert (re / norm, im / norm) == (mean.re, mean.im)


class TestOutcomeProbabilities:
    def test_certain_outcome(self, singlet):
        assert singlet.outcome_probabilities(E(1, 1)) == \
            (Scalar(0), Scalar(1))

    def test_identity(self, singlet):
        assert singlet.outcome_probabilities(Element.one(2)) == \
            (Scalar(1), Scalar(0))

    def test_unbiased_word(self, singlet):
        half = Scalar(Fraction(1, 2))
        assert singlet.outcome_probabilities(E(0, 3)) == (half, half)

    def test_sum_to_one_for_every_word(self, singlet, nontrivial):
        for w in nontrivial:
            p_plus, p_minus = singlet.outcome_probabilities(Element.from_word(w))
            assert p_plus + p_minus == 1

    def test_rejects_non_involutions(self, singlet):
        with pytest.raises(NotAnInvolutionError):
            singlet.outcome_probabilities(singlet.psi)
        with pytest.raises(NotAnInvolutionError):
            singlet.outcome_probabilities(2 * E(0, 1))
        with pytest.raises(NotAnInvolutionError):
            singlet.outcome_probabilities(IM * E(0, 3))

    def test_half_plus_mean_rule_can_leave_the_unit_interval(self, singlet):
        p_plus, p_minus = singlet.half_plus_mean_probabilities(E(1, 1))
        assert p_plus == Scalar(Fraction(-1, 2))
        assert p_minus == Scalar(Fraction(3, 2))
        assert p_plus + p_minus == 1

    def test_half_plus_mean_agrees_with_born_at_mean_zero(self, singlet):
        assert singlet.half_plus_mean_probabilities(E(1, 2)) == \
            singlet.outcome_probabilities(E(1, 2))


def test_rebuild_is_deterministic(singlet):
    again = build_singlet()
    assert again.psi == singlet.psi
    assert again.projector == singlet.projector
