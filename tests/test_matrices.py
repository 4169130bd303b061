"""The dense representation and its agreement with the exact layer."""

import itertools

import numpy as np
import pytest

from eprkit.element import E, Element, IM
from eprkit.matrices import (
    DimensionMismatchError,
    LETTER_MATRICES,
    TOLERANCE,
    approx_equal,
    element_matrix,
    word_matrix,
)
from eprkit.pauli import PauliWord, mul_words

E01_MATRIX = np.array([
    [0, 1, 0, 0],
    [1, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
], dtype=complex)

E02_MATRIX = np.array([
    [0, -1j, 0, 0],
    [1j, 0, 0, 0],
    [0, 0, 0, -1j],
    [0, 0, 1j, 0],
], dtype=complex)

E20_MATRIX = np.array([
    [0, 0, -1j, 0],
    [0, 0, 0, -1j],
    [1j, 0, 0, 0],
    [0, 1j, 0, 0],
], dtype=complex)


class TestWordMatrix:
    def test_explicit_4x4_patterns(self):
        assert np.array_equal(word_matrix(PauliWord((0, 1))), E01_MATRIX)
        assert np.array_equal(word_matrix(PauliWord((0, 2))), E02_MATRIX)
        assert np.array_equal(word_matrix(PauliWord((2, 0))), E20_MATRIX)
        assert np.array_equal(word_matrix(PauliWord((3, 0))),
                              np.diag([1, 1, -1, -1]).astype(complex))
        assert np.array_equal(word_matrix(PauliWord((0, 3))),
                              np.diag([1, -1, 1, -1]).astype(complex))

    def test_identity_word(self):
        assert np.array_equal(word_matrix(PauliWord((0, 0))), np.eye(4))

    def test_single_site(self):
        assert np.array_equal(word_matrix(PauliWord((3,))),
                              np.diag([1, -1]).astype(complex))

    def test_single_site_result_cannot_corrupt_the_letters(self):
        m = word_matrix(PauliWord((1,)))
        with pytest.raises(ValueError):
            m[0, 0] = 5
        assert np.array_equal(LETTER_MATRICES[1], [[0, 1], [1, 0]])

    def test_entries_are_clean(self, all_words):
        for w in all_words:
            m = word_matrix(w)
            assert set(np.unique(m)) <= {0, 1, -1, 1j, -1j}

    def test_homomorphism_exhaustive(self, all_words):
        mats = {w: word_matrix(w) for w in all_words}
        for a, b in itertools.product(all_words, repeat=2):
            k, w = mul_words(a, b)
            assert approx_equal(mats[a] @ mats[b], (1j ** k) * mats[w])


class TestElementMatrix:
    def test_zero_element(self):
        assert np.array_equal(element_matrix(Element.zero(2)),
                              np.zeros((4, 4)))

    def test_product_matches_scaled_word(self):
        lhs = element_matrix(E(0, 1) * E(0, 2))
        rhs = 1j * element_matrix(E(0, 3))
        assert approx_equal(lhs, rhs)

    def test_linear(self):
        el = 2 * E(0, 1) - IM * E(3, 3)
        expected = 2 * word_matrix(PauliWord((0, 1))) \
            - 1j * word_matrix(PauliWord((3, 3)))
        assert approx_equal(element_matrix(el), expected)

    def test_projector_spectrum_is_rank_one(self, singlet):
        eigs = np.linalg.eigvalsh(element_matrix(singlet.projector))
        assert np.max(np.abs(np.sort(eigs) - np.array([0, 0, 0, 1]))) < TOLERANCE

    def test_trace_agrees_with_exact_layer(self, all_words, singlet):
        for w in all_words:
            el = Element.from_word(w)
            assert abs(np.trace(element_matrix(el)) / 4
                       - complex(el.trace_normalized())) < TOLERANCE
        assert abs(np.trace(element_matrix(singlet.psi)) / 4
                   - complex(singlet.psi.trace_normalized())) < TOLERANCE


class TestApproxEqual:
    def test_reflexive_at_zero_tolerance(self):
        m = word_matrix(PauliWord((1, 2)))
        assert approx_equal(m, m, 0.0)

    def test_product_identity(self):
        lhs = element_matrix(E(1, 2))
        rhs = element_matrix(E(1, 0)) @ element_matrix(E(0, 2))
        assert approx_equal(lhs, rhs)

    def test_distinct_words_differ(self):
        assert not approx_equal(element_matrix(E(1, 2)), element_matrix(E(2, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            approx_equal(np.eye(2), np.eye(4))
