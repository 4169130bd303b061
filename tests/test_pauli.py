"""The letter table and word products, cross-checked against matrices."""

import itertools

import pytest

from eprkit import pauli
from eprkit.epr import run_full_report
from eprkit.matrices import LETTER_MATRICES, approx_equal, word_matrix
from eprkit.pauli import (
    ArityMismatchError,
    PauliWord,
    commute_sign,
    compose_letters,
    mul_words,
)

WORDS1 = [PauliWord((x,)) for x in range(4)]
WORDS2 = [PauliWord(t) for t in itertools.product(range(4), repeat=2)]


def fold(a, b):
    """The site-by-site product through compose_letters, never stored."""
    k, out = 0, []
    for x, y in zip(a, b):
        ph, c = compose_letters(x, y)
        k += ph
        out.append(c)
    return k % 4, PauliWord(out)


# The nine nonzero-letter products, written out from the defining relations:
# squares give the identity, cyclic pairs give +i times the third letter,
# reversed pairs give -i times it.
SINGLE_SITE_TABLE = {
    (1, 1): (0, 0), (2, 2): (0, 0), (3, 3): (0, 0),
    (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
    (2, 1): (3, 3), (3, 2): (3, 1), (1, 3): (3, 2),
}


class TestComposeLetters:
    def test_nonzero_table(self):
        for (a, b), expected in SINGLE_SITE_TABLE.items():
            assert compose_letters(a, b) == expected

    def test_identity_absorbs(self):
        for k in range(4):
            assert compose_letters(0, k) == (0, k)
            assert compose_letters(k, 0) == (0, k)

    def test_examples(self):
        assert compose_letters(1, 2) == (1, 3)   # e1*e2 = i*e3
        assert compose_letters(2, 2) == (0, 0)   # squares to 1
        assert compose_letters(0, 3) == (0, 3)
        assert compose_letters(2, 1) == (3, 3)   # e2*e1 = -i*e3

    def test_matches_2x2_matrices_all_16_pairs(self):
        for a in range(4):
            for b in range(4):
                k, c = compose_letters(a, b)
                product = LETTER_MATRICES[a] * LETTER_MATRICES[b]
                assert approx_equal(product, LETTER_MATRICES[c].times_i(k))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            compose_letters(4, 1)
        with pytest.raises(ValueError):
            compose_letters(1, -1)

    def test_rejects_bool_and_float_letters(self):
        for a, b in [(True, 2), (1, 2.0), (1.0, 1), (False, 0)]:
            with pytest.raises(ValueError):
                compose_letters(a, b)


class TestPauliWord:
    def test_validation(self):
        for letters in [(), (0, 5), (4,), (-1, 0), (1, None)]:
            with pytest.raises(ValueError):
                PauliWord(letters)

    def test_bool_and_float_letters_are_refused(self):
        # they equal 1 and 0, but would name the word E1.0True
        for letters in [(1.0, True), (True,), (0, 2.0), (False, 1)]:
            with pytest.raises(ValueError):
                PauliWord(letters)

    def test_value_semantics(self):
        assert PauliWord((1, 2)) == PauliWord((1, 2))
        assert hash(PauliWord((1, 2))) == hash(PauliWord((1, 2)))
        assert PauliWord((1, 2)) != PauliWord((2, 1))

    def test_a_word_is_its_letter_tuple(self):
        w = PauliWord([1, 2])
        assert isinstance(w, tuple) and not hasattr(w, "__dict__")
        assert w == (1, 2) and hash(w) == hash((1, 2))
        assert {(1, 2): "found"}[w] == "found"
        assert list(w) == [1, 2] and w[1] == 2 and len(w) == w.arity == 2
        assert repr(w) == "PauliWord((1, 2))" and str(w) == "E12"

    def test_ordering_is_lexicographic(self):
        words = [PauliWord((1, 0)), PauliWord((0, 3)), PauliWord((0, 1))]
        assert sorted(words) == [PauliWord((0, 1)), PauliWord((0, 3)),
                                 PauliWord((1, 0))]
        assert sorted(words) == sorted(tuple(w) for w in words)

    def test_names(self):
        assert PauliWord((0, 0)).name == "I"
        assert PauliWord((0,)).name == "I"
        assert PauliWord((2,)).name == "e2"
        assert PauliWord((1, 3)).name == "E13"

    def test_identity_constructor(self):
        assert PauliWord.identity(2) == PauliWord((0, 0))
        assert PauliWord.identity(2).is_identity

    def test_one_and_two_site_units_are_shared(self):
        assert PauliWord.identity(1) is PauliWord.identity(1) == PauliWord((0,))
        assert PauliWord.identity(2) is PauliWord.identity(2)
        three = PauliWord.identity(3)
        assert type(three) is PauliWord and three == (0, 0, 0) and three.is_identity
        assert PauliWord.identity(3) is not three  # built afresh: not stored
        for arity in (0, -1):
            with pytest.raises(ValueError):
                PauliWord.identity(arity)


class TestMulWords:
    def test_one_side_factors_combine(self):
        # E10 * E02 lands on E12 with no phase
        assert mul_words(PauliWord((1, 0)), PauliWord((0, 2))) == \
            (0, PauliWord((1, 2)))

    def test_every_word_squares_to_identity(self, all_words):
        for w in all_words:
            assert mul_words(w, w) == (0, PauliWord.identity(2))

    def test_cross_site_product_picks_up_phase(self):
        # E13 * E01 = i * E12; the matrix route must agree
        k, w = mul_words(PauliWord((1, 3)), PauliWord((0, 1)))
        assert (k, w) == (1, PauliWord((1, 2)))
        lhs = word_matrix(PauliWord((1, 3))) * word_matrix(PauliWord((0, 1)))
        assert approx_equal(lhs, word_matrix(w).times_i(k))

    def test_length_mismatch(self):
        with pytest.raises(ArityMismatchError):
            mul_words(PauliWord((1,)), PauliWord((1, 2)))

    def test_associative_single_site(self):
        letters = [PauliWord((x,)) for x in range(4)]
        for a, b, c in itertools.product(letters, repeat=3):
            k1, ab = mul_words(a, b)
            k2, ab_c = mul_words(ab, c)
            k3, bc = mul_words(b, c)
            k4, a_bc = mul_words(a, bc)
            assert ((k1 + k2) % 4, ab_c) == ((k3 + k4) % 4, a_bc)

    def test_associative_two_sites_exhaustive(self, all_words):
        for a, b, c in itertools.product(all_words, repeat=3):
            k1, ab = mul_words(a, b)
            k2, ab_c = mul_words(ab, c)
            k3, bc = mul_words(b, c)
            k4, a_bc = mul_words(a, bc)
            assert ((k1 + k2) % 4, ab_c) == ((k3 + k4) % 4, a_bc)


class TestProductTable:
    def test_a_warm_table_holds_the_folded_products(self, monkeypatch):
        monkeypatch.setattr(pauli, "_PRODUCTS", {})
        run_full_report()
        table = pauli._PRODUCTS
        assert table and len(table) <= 272
        assert all(product == fold(a, b) for (a, b), product in table.items())
        pairs = [*itertools.product(WORDS1, repeat=2), *itertools.product(WORDS2, repeat=2)]
        for a, b in pairs:
            assert mul_words(a, b) == fold(a, b)
        assert len(table) == 272
        # longer words, which the grammar never builds, are folded every time
        a, b = PauliWord((1, 2, 3)), PauliWord((2, 2, 1))
        assert mul_words(a, b) == fold(a, b) == (2, PauliWord((3, 0, 2)))
        assert len(table) == 272

    def test_plain_tuples_are_checked_not_read_from_the_table(self):
        assert mul_words(PauliWord((1, 2)), PauliWord((1, 0))) == (0, PauliWord((0, 2)))
        for bad in [(True, 2), (1, 2.0)]:
            with pytest.raises(ValueError):
                mul_words(bad, (1, 0))
            with pytest.raises(ValueError):
                mul_words(PauliWord((1, 0)), bad)


class TestCommuteSign:
    def test_single_site_anticommutes(self):
        assert commute_sign(PauliWord((1,)), PauliWord((2,))) == -1

    def test_identity_commutes_with_everything(self, all_words):
        ident = PauliWord.identity(2)
        for w in all_words:
            assert commute_sign(ident, w) == 1

    def test_two_anticommuting_sites_cancel(self):
        # E11 vs E22: both sites anticommute, signs cancel
        a, b = PauliWord((1, 1)), PauliWord((2, 2))
        assert commute_sign(a, b) == 1
        k1, ab = mul_words(a, b)
        k2, ba = mul_words(b, a)
        assert (k1, ab) == (k2, ba)

    def test_sign_agrees_with_both_product_orders(self, nontrivial):
        for a, b in itertools.combinations(nontrivial, 2):
            k1, ab = mul_words(a, b)
            k2, ba = mul_words(b, a)
            assert ab == ba
            if commute_sign(a, b) == 1:
                assert k1 == k2
            else:
                assert (k1 - k2) % 4 == 2

    def test_anticommutation_census(self, nontrivial):
        # every nontrivial word anticommutes with exactly 8 of the other 14
        for w in nontrivial:
            partners = [v for v in nontrivial
                        if v != w and commute_sign(w, v) == -1]
            assert len(partners) == 8

    def test_sign_counts_sites_of_distinct_nonzero_letters(self):
        for a, b in itertools.product(WORDS2, repeat=2):
            m = sum(1 for x, y in zip(a, b) if x and y and x != y)
            assert commute_sign(a, b) == (-1) ** m

    def test_length_mismatch(self):
        with pytest.raises(ArityMismatchError):
            commute_sign(PauliWord((1, 2)), PauliWord((1,)))
