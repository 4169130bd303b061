"""The exact matrix representation and its agreement with the exact layer."""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from eprkit import matrices
from eprkit.element import E, Element, IM
from eprkit.exprparse import parse_expr
from eprkit.matrices import (
    DimensionMismatchError,
    LETTER_MATRICES,
    Matrix,
    approx_equal,
    element_matrix,
    expr_matrix,
    word_matrix,
)
from eprkit.pauli import PauliWord, mul_words

from numeric import eigenvalues

E01_MATRIX = Matrix([
    [0, 1, 0, 0],
    [1, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
])

E02_MATRIX = Matrix([
    [0, -1j, 0, 0],
    [1j, 0, 0, 0],
    [0, 0, 0, -1j],
    [0, 0, 1j, 0],
])

E20_MATRIX = Matrix([
    [0, 0, -1j, 0],
    [0, 0, 0, -1j],
    [1j, 0, 0, 0],
    [0, 1j, 0, 0],
])


def diagonal(*entries):
    return Matrix([[x if r == c else 0 for c in range(len(entries))]
                   for r, x in enumerate(entries)])


class TestWordMatrix:
    def test_explicit_4x4_patterns(self):
        assert word_matrix(PauliWord((0, 1))) == E01_MATRIX
        assert word_matrix(PauliWord((0, 2))) == E02_MATRIX
        assert word_matrix(PauliWord((2, 0))) == E20_MATRIX
        assert word_matrix(PauliWord((3, 0))) == diagonal(1, 1, -1, -1)
        assert word_matrix(PauliWord((0, 3))) == diagonal(1, -1, 1, -1)

    def test_identity_word(self):
        assert word_matrix(PauliWord((0, 0))) == Matrix.scalar(4)

    def test_single_site(self):
        assert word_matrix(PauliWord((3,))) == diagonal(1, -1)

    def test_takes_any_sequence_of_letters(self):
        assert word_matrix((1, 3)) == word_matrix(PauliWord((1, 3)))
        assert word_matrix([3]) == diagonal(1, -1)
        for letters in [(), (4,), (-1,), (0, 5)]:
            with pytest.raises(ValueError):
                word_matrix(letters)

    def test_refuses_bool_and_float_letters(self):
        for letters in [(True,), (1.0, 0), (0, False)]:
            with pytest.raises(ValueError):
                word_matrix(letters)

    def test_single_site_result_cannot_corrupt_the_letters(self):
        m = word_matrix(PauliWord((1,)))
        with pytest.raises(TypeError):
            m[0, 0] = 5
        with pytest.raises(AttributeError):
            m.dim = 4
        assert LETTER_MATRICES[1] == Matrix([[0, 1], [1, 0]])

    def test_entries_are_clean(self, all_words):
        units = {(1, 0), (-1, 0), (0, 1), (0, -1)}
        for w in all_words:
            m = word_matrix(w)
            entries = [m.entry(r, c) for r in range(4) for c in range(4)]
            assert set(entries) <= units | {(0, 0)}
            # a word matrix is monomial: one unit entry in every row
            assert sum(x in units for x in entries) == 4

    def test_homomorphism_exhaustive(self, all_words):
        mats = {w: word_matrix(w) for w in all_words}
        for a, b in itertools.product(all_words, repeat=2):
            k, w = mul_words(a, b)
            assert approx_equal(mats[a] * mats[b], mats[w].times_i(k))


class TestMatrix:
    def test_phases_cycle(self):
        m = E02_MATRIX
        assert m.times_i(1) == Matrix.scalar(4, 0, 1) * m
        assert m.times_i(2) == -m
        assert m.times_i(3) == -m.times_i(1)
        assert m.times_i(4) == m.times_i(0) == m

    def test_canonical_denominator(self):
        half = Matrix.scalar(2, Fraction(1, 2))
        assert half + half == Matrix.scalar(2)
        assert half * half + half * half == half  # 2/4 reduces to 1/2
        assert half.entry(0, 0) == (Fraction(1, 2), 0)
        assert half - half == Matrix.scalar(2, 0)

    def test_trace(self):
        assert Matrix.scalar(4, Fraction(1, 3), 2).trace() == (Fraction(4, 3), 8)
        assert E01_MATRIX.trace() == (0, 0)

    def test_kron_puts_the_first_factor_leftmost(self):
        x, z = LETTER_MATRICES[1], LETTER_MATRICES[3]
        assert x.kron(z) == word_matrix(PauliWord((1, 3)))
        assert z.kron(x) != x.kron(z)

    def test_rejects_entries_that_are_not_gaussian_integers(self):
        with pytest.raises(ValueError):
            Matrix([[0.5]])
        with pytest.raises(ValueError):
            Matrix([[1, 0]])

    @pytest.mark.parametrize("n", [2 ** 53 + 1, -(10 ** 30), True])
    def test_int_entries_are_taken_exactly(self, n):
        m = Matrix([[n, 1j], [0, 2 + 0j]])
        assert m.entry(0, 0) == (int(n), 0)
        assert m.entry(0, 1) == (0, 1) and m.entry(1, 1) == (2, 0)

    def test_a_float_scalar_is_refused(self):
        # A str is refused too: Scalar reads "1/2", but Matrix.scalar takes ints and Fractions.
        for re, im in [(0.5, 0), (1, 0.5), ("1/2", 0), (1, "1/2")]:
            with pytest.raises(TypeError, match="scalar parts must be exact, int or Fraction"):
                Matrix.scalar(4, re, im)


def rebuilt(m):
    """``m``'s parts passed once more through the canonicalizing ``_set``."""
    return Matrix._new(m.dim, m._den, list(m._rows))


# Four-dimensional matrices of three kinds: a word matrix times a unit (the
# products that are kept as built), small Gaussian-integer matrices (whose
# products sum entries and can cancel them), and either kind scaled by a
# rational (denominators above 1).
small = st.integers(-2, 2)
rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
unit_word_matrices = st.builds(lambda w, k: word_matrix(w).times_i(k),
                               st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               st.integers(0, 3))
integer_matrices = st.lists(st.lists(st.builds(complex, small, small), min_size=4, max_size=4),
                            min_size=4, max_size=4).map(Matrix)
scaled_matrices = st.builds(lambda m, re, im: Matrix.scalar(4, re, im) * m,
                            st.one_of(unit_word_matrices, integer_matrices), rationals, rationals)
any_matrices = st.one_of(unit_word_matrices, integer_matrices, scaled_matrices)

ONE_PLUS_E01, ONE_MINUS_E01 = Matrix.scalar(4) + E01_MATRIX, Matrix.scalar(4) - E01_MATRIX
HALF_E01 = Matrix.scalar(4, Fraction(1, 2)) * E01_MATRIX
TWO_E02 = Matrix.scalar(4, 2) * E02_MATRIX


@given(any_matrices, any_matrices, st.integers(0, 3), rationals, rationals)
@example(ONE_PLUS_E01, ONE_MINUS_E01, 1, Fraction(0), Fraction(0))  # every entry cancels; zero
@example(HALF_E01, TWO_E02, 2, Fraction(1, 2), Fraction(0))  # denominators with a common factor
@example(word_matrix((1, 2)), word_matrix((2, 1)), 3, Fraction(-3, 4), Fraction(1, 6))
# disjoint supports over denominators 2 and 6: a sum stored as built
@example(HALF_E01, Matrix.scalar(4, Fraction(1, 6)), 1, Fraction(1, 6), Fraction(0))
# no entry summed, over 3*4 with 6 to take out: a product stored after one gcd
@example(Matrix.scalar(4, Fraction(2, 3)) * E01_MATRIX,
         Matrix.scalar(4, Fraction(3, 4), Fraction(3, 4)) * E02_MATRIX, 0, Fraction(0), Fraction(1))
def test_every_result_is_stored_canonical(a, b, k, re, im):
    assert rebuilt(a) == a
    results = [a * b, b * a, a + b, a - b, -a, a.times_i(k), a.kron(b), b.kron(a),
               Matrix.scalar(4, re, im), Matrix.scalar(2, re)]
    for m in results:
        assert rebuilt(m) == m


def test_the_canonical_shortcut_cases():
    # Entries summed to zero, denominators sharing a factor, the zero scalar.
    assert ONE_PLUS_E01 * ONE_MINUS_E01 == Matrix.scalar(4, 0)
    assert (ONE_PLUS_E01 * ONE_MINUS_E01)._rows == ({},) * 4
    product = HALF_E01 * TWO_E02
    assert product == word_matrix((0, 3)).times_i(1) and product._den == 1
    assert HALF_E01.kron(TWO_E02) == word_matrix((0, 1, 0, 2))
    disjoint = HALF_E01 + Matrix.scalar(4, Fraction(1, 6))
    assert disjoint._den == 6
    assert disjoint.entry(0, 0) == (Fraction(1, 6), 0) and disjoint.entry(0, 1) == (Fraction(1, 2), 0)
    product = (Matrix.scalar(4, Fraction(2, 3)) * E01_MATRIX
               * (Matrix.scalar(4, Fraction(3, 4), Fraction(3, 4)) * E02_MATRIX))
    assert product == Matrix.scalar(4, Fraction(1, 2), Fraction(1, 2)) * word_matrix((0, 3)).times_i(1)
    assert product._den == 2
    assert Matrix.scalar(2, Fraction(0), Fraction(0))._rows == ({}, {})
    assert Matrix.scalar(2, Fraction(2, 4), Fraction(-1, 6))._den == 6


@pytest.mark.parametrize("dim, texts", [(4, ("0*E01", "0")), (2, ("0*e1", "0*e0"))])
def test_the_zero_scalar_is_built_empty(dim, texts):
    zero = Matrix.scalar(dim, 0)
    assert zero._den == 1 and zero._rows == ({},) * dim
    assert zero == Matrix._new(dim, 7, [{r: (0, 0)} for r in range(dim)])  # the pruned form
    assert zero == Matrix.scalar(dim, Fraction(0), 0) == Matrix._scalar(dim, 1, 0, 0)
    for text in texts:
        assert expr_matrix(parse_expr(text)) == zero


class TestElementMatrix:
    def test_zero_element(self):
        assert element_matrix(Element.zero(2)) == Matrix.scalar(4, 0)

    def test_product_matches_scaled_word(self):
        lhs = element_matrix(E(0, 1) * E(0, 2))
        rhs = element_matrix(E(0, 3)).times_i(1)
        assert approx_equal(lhs, rhs)

    def test_linear(self):
        el = 2 * E(0, 1) - IM * E(3, 3)
        expected = Matrix.scalar(4, 2) * word_matrix(PauliWord((0, 1))) \
            - word_matrix(PauliWord((3, 3))).times_i(1)
        assert approx_equal(element_matrix(el), expected)

    def test_projector_spectrum_is_rank_one(self, singlet):
        assert eigenvalues(element_matrix(singlet.projector)) == [0, 0, 0, 1]

    def test_singlet_matrices_are_hermitian(self, singlet):
        # eigenvalues() reads one triangle only, so it cannot see this.
        for m in (element_matrix(singlet.psi), element_matrix(singlet.projector),
                  matrices.expr_matrix(parse_expr("psi"))):
            for r, c in itertools.product(range(m.dim), repeat=2):
                re, im = m.entry(c, r)
                assert m.entry(r, c) == (re, -im), (r, c)

    def test_trace_agrees_with_exact_layer(self, all_words, singlet):
        for el in [Element.from_word(w) for w in all_words] + [singlet.psi]:
            re, im = element_matrix(el).trace()
            assert (re / 4, im / 4) == (el.trace_normalized().re,
                                        el.trace_normalized().im)


class TestApproxEqual:
    def test_reflexive(self):
        m = word_matrix(PauliWord((1, 2)))
        assert approx_equal(m, m)

    def test_product_identity(self):
        lhs = element_matrix(E(1, 2))
        rhs = element_matrix(E(1, 0)) * element_matrix(E(0, 2))
        assert approx_equal(lhs, rhs)

    def test_distinct_words_differ(self):
        assert not approx_equal(element_matrix(E(1, 2)), element_matrix(E(2, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            approx_equal(Matrix.scalar(2), Matrix.scalar(4))


def test_the_oracle_imports_no_eprkit_module_but_the_tree_walk():
    # Independence by construction: the matrix route cannot reach the
    # letter composition or the element arithmetic it cross-checks.
    tree = ast.parse(Path(matrices.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level and node.module:
            imported.add("eprkit." + node.module)
        elif isinstance(node, ast.ImportFrom) and node.level:
            imported.update("eprkit." + alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert {m for m in imported if m.split(".")[0] == "eprkit"} == {"eprkit.exprparse"}
