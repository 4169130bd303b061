"""The exact matrix representation and its agreement with the exact layer."""

import ast
import itertools
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from eprkit import matrices
from eprkit.element import E, Element, IM
from eprkit.exprparse import parse_expr, to_element
from eprkit.matrices import (
    DimensionMismatchError,
    LETTER_MATRICES,
    Matrix,
    ReadError,
    approx_equal,
    element_matrix,
    expr_program,
    word_matrix,
)
from eprkit.pauli import PauliWord, mul_words

import reader_agreement
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
        assert half * half + half * half == half  # 2/4 equals 1/2
        assert half.entry(0, 0) == (Fraction(1, 2), 0)
        assert half - half == Matrix.scalar(2, 0)

    def test_times_i_takes_an_int_power_only(self):
        m = word_matrix((1, 2))
        assert m.times_i(-1) == m.times_i(3) != m
        for k in [1.5, 3.0, "1", None]:
            with pytest.raises(TypeError, match="times_i takes an int power of i"):
                m.times_i(k)

    @pytest.mark.parametrize("op", [lambda m: m + 1, lambda m: m - 1, lambda m: m * 2,
                                    lambda m: m * "x"], ids=["add", "sub", "mul", "mul-str"])
    def test_an_operand_that_is_no_matrix_is_refused(self, op):
        # Each operator returns NotImplemented, and Python raises TypeError.
        with pytest.raises(TypeError):
            op(Matrix.scalar(4))

    def test_a_non_matrix_is_never_equal(self):
        m = Matrix.scalar(4)
        assert m.__eq__(1) is NotImplemented
        assert (m == 1) is False and (1 == m) is False and m != "E00"

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

    @pytest.mark.parametrize("build", [lambda: Matrix([]), lambda: Matrix.scalar(0),
                                       lambda: Matrix.scalar(-1)], ids=["rows", "0", "-1"])
    def test_a_dimension_below_one_is_refused(self, build):
        with pytest.raises(ValueError, match="dimension at least 1"):
            build()

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


def stores_no_zero(m):
    """Whether ``m`` keeps the one storage invariant: no row holds a ``(0, 0)`` entry."""
    return all((0, 0) not in row.values() for row in m._rows)


def entries(m):
    return [m.entry(r, c) for r in range(m.dim) for c in range(m.dim)]


def times_i_entries(a, k):
    """The entries of ``a.times_i(k)``, each entry turned by ``i`` (or by ``-i``) ``|k|`` times."""
    out = []
    for re, im in entries(a):
        for _ in range(abs(k)):
            re, im = (-im, re) if k > 0 else (im, -re)
        out.append((re, im))
    return out


def product_entries(a, b):
    """The entries of ``a * b`` by the textbook sum over ``entries``, the reference for ``*``."""
    n, x, y = a.dim, entries(a), entries(b)
    out = []
    for r, c in itertools.product(range(n), repeat=2):
        re = im = Fraction(0)
        for k in range(n):
            (ar, ai), (br, bi) = x[r * n + k], y[k * n + c]
            re, im = re + ar * br - ai * bi, im + ar * bi + ai * br
        out.append((re, im))
    return out


# Four-dimensional matrices of three kinds: a word matrix times a unit (whose
# products sum no entry), small Gaussian-integer matrices (whose products sum
# entries and can cancel them), and either kind scaled by a rational
# (denominators above 1).
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
# disjoint supports over denominators 2 and 6
@example(HALF_E01, Matrix.scalar(4, Fraction(1, 6)), 1, Fraction(1, 6), Fraction(0))
# no entry summed, over 3*4 with a common factor 6 left in
@example(Matrix.scalar(4, Fraction(2, 3)) * E01_MATRIX,
         Matrix.scalar(4, Fraction(3, 4), Fraction(3, 4)) * E02_MATRIX, 0, Fraction(0), Fraction(1))
# row 0 of a * b: the (0, 0) entry cancels after two terms and the third stores it again
@example(Matrix([[1, 1, 1, 0], [0, 1j, 0, 0], [2, 0, -1, 0], [0, 0, 0, 1]]),
         Matrix([[1, 0, 0, 0], [-1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]), 0, Fraction(1), Fraction(0))
# a diagonal matrix and a word matrix: each row of either product only ever stores new entries
@example(Matrix([[2, 0, 0, 0], [0, -1j, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1 + 1j]]),
         word_matrix((1, 2)), 1, Fraction(1, 2), Fraction(-1, 3))
def test_no_result_stores_a_zero_entry(a, b, k, re, im):
    # (a - b) + b and a rescaled there and back hold a's values over other denominators.
    results = [a, a * b, b * a, a + b, a - b, -a, a.times_i(k), a.kron(b), b.kron(a),
               Matrix.scalar(4, re, im), Matrix.scalar(2, re), (a - b) + b,
               a * Matrix.scalar(4, Fraction(1, 6)) * Matrix.scalar(4, 6)]
    assert all(map(stores_no_zero, results))
    assert entries(results[1]) == product_entries(a, b)
    assert entries(results[2]) == product_entries(b, a)
    x, y = entries(a), entries(b)
    assert entries(results[3]) == [(ar + br, ai + bi) for (ar, ai), (br, bi) in zip(x, y)]
    assert entries(results[4]) == [(ar - br, ai - bi) for (ar, ai), (br, bi) in zip(x, y)]
    for j in range(-5, 6):
        turned = a.times_i(j)
        assert stores_no_zero(turned) and entries(turned) == times_i_entries(a, j)
    assert results[-2] == a == results[-1]
    # Equality is agreement at every entry, whatever the two denominators.
    values = [entries(m) for m in results]
    for (x, vx), (y, vy) in itertools.combinations(zip(results, values), 2):
        assert (x == y) == (y == x) == (vx == vy)


def test_equality_compares_values_across_denominators():
    # Entries summed to zero, denominators sharing a factor, the zero scalar.
    zero = ONE_PLUS_E01 * ONE_MINUS_E01
    assert zero == Matrix.scalar(4, 0) and stores_no_zero(zero)
    assert HALF_E01 * TWO_E02 == word_matrix((0, 3)).times_i(1)
    assert HALF_E01.kron(TWO_E02) == word_matrix((0, 1, 0, 2))
    disjoint = HALF_E01 + Matrix.scalar(4, Fraction(1, 6))
    assert disjoint.entry(0, 0) == (Fraction(1, 6), 0) and disjoint.entry(0, 1) == (Fraction(1, 2), 0)
    product = (Matrix.scalar(4, Fraction(2, 3)) * E01_MATRIX
               * (Matrix.scalar(4, Fraction(3, 4), Fraction(3, 4)) * E02_MATRIX))
    assert product == Matrix.scalar(4, Fraction(1, 2), Fraction(1, 2)) * word_matrix((0, 3)).times_i(1)
    assert Matrix.scalar(4, Fraction(1, 2)) * Matrix.scalar(4, 2) == Matrix.scalar(4)
    assert Matrix.scalar(4) == Matrix.scalar(4, Fraction(1, 3)) * Matrix.scalar(4, 3)
    assert HALF_E01 * Matrix.scalar(4, 2) == E01_MATRIX != HALF_E01
    # Over denominators 2 and 1, one support: the real parts agree, the imaginary do not.
    one_plus_i = Matrix.scalar(4, Fraction(1, 2), Fraction(1, 2)) * Matrix.scalar(4, 2)
    assert one_plus_i == Matrix.scalar(4, 1, 1) != Matrix.scalar(4, 1, 2)
    # A different support over another denominator.
    assert E01_MATRIX * Matrix.scalar(4, Fraction(1, 2)) * Matrix.scalar(4, 2) != Matrix.scalar(4)


def test_equality_across_denominators_compares_up_to_the_last_part():
    # One support over denominators 6 and 1, equal everywhere but the last
    # row's imaginary part: the comparison runs to its last entry.
    rows = [[1, 2j, 0, 0], [0, 1 + 1j, 0, 3], [1j, 0, 2, 0], [0, 0, 1, 1 + 1j]]
    a = Matrix(rows)
    sixths = a * Matrix.scalar(4, Fraction(1, 6)) * Matrix.scalar(4, 6)
    b = Matrix(rows[:3] + [[0, 0, 1, 1 + 2j]])
    assert (sixths._den, b._den) == (6, 1)
    assert [row.keys() for row in sixths._rows] == [row.keys() for row in b._rows]
    assert sixths == a and a == sixths
    assert sixths != b and b != sixths


@pytest.mark.parametrize("dim, texts", [(4, ("0*E01", "0")), (2, ("0*e1", "0*e0"))])
def test_the_zero_scalar_is_built_empty(dim, texts):
    zero = Matrix.scalar(dim, 0)
    assert zero._rows == ({},) * dim
    assert zero == Matrix.scalar(dim, Fraction(0), 0) == Matrix._scalar(dim, 7, 0, 0)
    assert Matrix._scalar(dim, 7, 0, 0)._rows == zero._rows  # empty over any denominator
    for text in texts:
        m = expr_program(text)()
        assert m == zero and m._rows == zero._rows


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
                  matrices.expr_program("psi")()):
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
        with pytest.raises(DimensionMismatchError, match="dimensions differ: 2 vs 4"):
            approx_equal(Matrix.scalar(2), Matrix.scalar(4))

    def test_a_non_matrix_is_unequal_on_either_side(self):
        m = word_matrix(PauliWord((1, 2)))
        assert not approx_equal(m, "E12")
        assert not approx_equal("E12", m)


def test_the_oracle_imports_no_eprkit_module():
    # Independence by construction: the matrix route cannot reach the
    # letter composition, the element arithmetic or the parser it cross-checks.
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
    assert {m for m in imported if m.split(".")[0] == "eprkit"} == set()


def test_the_oracle_reads_without_python_s_compiler():
    # The oracle's reader writes and runs its own program: no text of the
    # grammar reaches Python's compiler, so the oracle's language is the same
    # on every Python.  A name is checked wherever it occurs, so neither a
    # call nor a reference such as partial(eval, ...) gets past.
    tree = ast.parse(Path(matrices.__file__).read_text(encoding="utf-8"))
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert named & {"eval", "exec", "compile", "__import__"} == set()


@pytest.mark.parametrize("text", [
    "E01", "e1*e2", "2", "I", "i*e0", "psi", "-(1/2*E11 - i) + E22*-E33",
    # whitespace anywhere between tokens, a literal's '/' included; leading zeros
    "1 /\t2*E01\n+ E10", "\n(E01)\n", "007*E12 - 0/3", "- -E01*-(E00)",
    # whitespace past ASCII's: both readers skip what str.isspace calls space
    "E01\u3000+E02", "E01\xa0+E02", "E01\u2028",
    # precedence and associativity: '-' to the left, '*' before '+' and '-',
    # a unary '-' on the one factor after it
    "E01-E02-E03", "1/2-1/3-1/6", "E01-E02*E03", "E01*E02-E03*E10", "-E01+E02",
    "-(E01+E02)*E03", "E01--E02", "(E01*E02)*E03 - E01*(E02*E03)",
    # 250 nested parentheses, which the exact route reads at the default recursion limit
    pytest.param("(" * 250 + "E01" + ")" * 250, id="250-nested"),
])
def test_the_oracle_reads_what_the_parser_reads(text, singlet):
    assert expr_program(text)() == element_matrix(to_element(parse_expr(text), psi=singlet.psi))


def test_a_unary_minus_negates_the_one_factor_after_it(monkeypatch):
    # Negation commutes with every product, so no value shows which factor a
    # unary '-' took; an affine stand-in for it does: -a*b is (a+1)*b, not ab+1.
    monkeypatch.setattr(Matrix, "__neg__", lambda m: m + Matrix.scalar(m.dim))
    one = Matrix.scalar(4)
    assert expr_program("-E01*E02")() == (E01_MATRIX + one) * E02_MATRIX
    assert expr_program("E01*-E02*E01")() == E01_MATRIX * (E02_MATRIX + one) * E01_MATRIX
    assert expr_program("-(E01*E02)")() == E01_MATRIX * E02_MATRIX + one


def test_the_two_readers_agree_on_every_short_text(singlet):
    # Every text of one to four tokens: the parser and the tree walk accept
    # exactly the texts the oracle's reader accepts, each with one matrix.
    # CI runs the same enumeration at five tokens as a script.
    read, accepted, differ = reader_agreement.compare(
        reader_agreement.texts(reader_agreement.SMALL_TOKENS, 4, " "), singlet.psi)
    assert differ == []
    assert (read, accepted) == (22620, 454)


def test_the_two_readers_agree_on_every_short_string_of_characters(singlet):
    # Every string of one to three characters, so that digits, '/', names and
    # spaces also meet inside one token.  CI runs it at five characters.
    read, accepted, differ = reader_agreement.compare(
        reader_agreement.texts(reader_agreement.SMALL_CHARS, 3), singlet.psi)
    assert differ == []
    assert (read, accepted) == (5219, 342)


def test_the_agreement_script_exits_1_on_a_disagreement(monkeypatch, capsys):
    assert reader_agreement.main(["--tokens", "1"]) == 0
    negated = matrices.expr_program
    monkeypatch.setattr(reader_agreement, "expr_program", lambda text: lambda: -negated(text)())
    assert reader_agreement.main(["--tokens", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    # negated, each of the 7 one-token texts both readers accept disagrees
    assert out[-1] == "texts: 12, accepted: 0, disagreements: 7"
    assert out[1:-1] == [f"readers disagree: {t!r}" for t in ("E01", "e1", "psi", "i", "I", "2", "1/2")]


@pytest.mark.parametrize("text, message", [
    # names outside the table
    ("E0", "unknown name 'E0'"), ("E04", "unknown name 'E04'"), ("X12", "unknown name 'X12'"),
    ("e12", "unknown name 'e12'"), ("E0_1", "unknown name 'E0'"), ("if", "unknown name 'if'"),
    # '/' outside an int/int literal
    ("E01/E02", "'/' outside an int/int literal"), ("1/E01", "'/' outside an int/int literal"),
    ("1/", "'/' outside an int/int literal"), ("1/0", "zero denominator"),
    # characters outside the grammar
    ("E01**E02", "operands and operators out of turn"), ("1.5", "unexpected character '.'"),
    ("E01,E02", "unexpected character ','"),
    # juxtaposition, which Python reads as a call; (), a tuple; unary +; the empty text
    ("E01 E02", "operands and operators out of turn"),
    ("E01(E02)", "operands and operators out of turn"),
    ("(E01)(E02)", "operands and operators out of turn"),
    ("()", "operands and operators out of turn"), ("+E01", "operands and operators out of turn"),
    ("E01*+E02", "operands and operators out of turn"), ("", "operands and operators out of turn"),
    ("E01*", "operands and operators out of turn"),
    # unpaired parentheses: an unmatched ')' wherever it stands, else an unclosed '('
    ("(E01", "parentheses"), ("E01)", "parentheses"), ("E01)+(E02", "parentheses"),
    ("((E01)", "parentheses: '(' was never closed"), ("(E01))+((E02", "parentheses: unmatched ')'"),
    pytest.param("1" + "0" * 5000, "numeric literal too long", id="5001-digit literal"),
    # names and digits are ASCII: a full-width E01 or an accented letter is no name
    ("\uff25\uff10\uff11", "unexpected character '\uff25'"), ("\xe9", "unexpected character '\xe9'"),
    # names of both arities
    ("e1+E01", "single-site and two-site names mixed"), ("psi*e1", "single-site and two-site names mixed"),
])
def test_the_oracle_refuses_what_the_grammar_does_not_read(text, message):
    with pytest.raises(ReadError) as info:
        expr_program(text)()
    assert str(info.value).startswith(message)


# Deep shapes of n tokens' worth of nesting or length, each with its matrix.
DEEP_SHAPES = {
    "chain": (lambda n: "*".join(["E01"] * n), lambda n: E01_MATRIX if n % 2 else Matrix.scalar(4)),
    "sum": (lambda n: "+".join(["E01"] * n), lambda n: Matrix.scalar(4, n) * E01_MATRIX),
    "parentheses": (lambda n: "(" * n + "E01" + ")" * n, lambda n: E01_MATRIX),
    "signs": (lambda n: "-" * n + "E01", lambda n: E01_MATRIX.times_i(2 * n)),
    "signed parentheses": (lambda n: "-(" * n + "E01" + ")" * n,
                           lambda n: E01_MATRIX.times_i(2 * n)),
}


@pytest.mark.parametrize("n", [10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 50, 51, 1000, 1001])
@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_the_oracle_reads_or_refuses_any_depth(shape, n):
    # The reader and the program it writes use no recursion, so a text of
    # any depth or length gives a program or a ReadError: the shape reads and
    # runs to its matrix, and one ')' too many is refused.
    build, value = DEEP_SHAPES[shape]
    assert matrices.expr_program(build(n))() == value(n)
    with pytest.raises(ReadError, match="^parentheses: unmatched '\\)'$"):
        matrices.expr_program(build(n) + ")")


def test_a_long_product_stores_a_bounded_denominator():
    # A product's denominator past 64 bits is divided by the gcd of its parts,
    # so 10**4 projector factors, read and run by the oracle, leave at most
    # 65 bits, not 10**4.
    projector = Matrix.scalar(4, Fraction(1, 2)) * (Matrix.scalar(4) + word_matrix((1, 1)))
    product = matrices.expr_program("*".join(["(1/2+1/2*E11)"] * 10 ** 4))()
    assert product._den.bit_length() <= 65
    assert product == projector


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_the_two_readers_agree_at_depth_100(shape, singlet):
    build, value = DEEP_SHAPES[shape]
    text = build(100)
    assert element_matrix(to_element(parse_expr(text), psi=singlet.psi)) == expr_program(text)() == value(100)


@pytest.mark.parametrize("n", [10 ** 4, 10 ** 5])
@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_the_exact_route_refuses_each_deep_shape_with_recursion_error(shape, n):
    # The exact route's column of the depth table: its parser and tree walk
    # recurse once per level, so each shape this deep ends in RecursionError
    # and in no other error.  An iterative pipeline (ROADMAP item 2) is to
    # flip this test, on purpose, to "evaluates to the shape's value".
    build = DEEP_SHAPES[shape][0]
    with pytest.raises(RecursionError):
        to_element(parse_expr(build(n)))


def _at_depth(depth, call):
    """``call()`` made from ``depth`` frames deep, counted from the outermost frame."""
    frame, frames = sys._getframe(), 0
    while frame is not None:
        frame, frames = frame.f_back, frames + 1
    return call() if frames >= depth else _at_depth(depth, call)


def test_the_oracle_reads_from_any_depth_of_the_caller():
    # Neither reading nor running recurses, so a deep caller gets a program
    # and its value: a 1,000-operand chain read and run 900 frames deep.
    text = "*".join(["E01"] * 1000)
    assert sys.getrecursionlimit() == 1000
    assert _at_depth(900, lambda: matrices.expr_program(text)()) == Matrix.scalar(4)


@pytest.mark.parametrize("value", [b"E01", None, 1, ["E01"]])
def test_the_oracle_reads_only_text(value):
    with pytest.raises(TypeError, match="the oracle reads text"):
        matrices.expr_program(value)
