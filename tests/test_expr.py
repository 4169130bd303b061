"""The expression grammar: parsing, evaluation, printing round trip, errors."""

import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from eprkit import exprparse
from eprkit.element import E, Element, IM, ONE, Scalar, e
from eprkit.exprparse import (
    ArityConflictError,
    BinOp,
    ExprError,
    ExprSyntaxError,
    Neg,
    RangeError,
    Sym,
    parse_expr,
    to_element,
)
from eprkit.matrices import ReadError, element_matrix, expr_matrix
from eprkit.pauli import PREFIXES, SCALAR_ARITY, ArityMismatchError, PauliWord

# Every word the grammar names, by pauli's prefix table: a prefix, then one
# digit 0..3 per site it gives (E00..E33, then e0..e3).
TABLE_NAMES = {prefix + "".join(map(str, letters)): PauliWord(letters)
               for prefix, sites in PREFIXES.items()
               for letters in itertools.product(range(4), repeat=sites)}

ROUND_TRIP_CORPUS = [
    "E01*E02",
    "1/2*(E11 - 1)",
    "E01*E20 + E10*E02",
    "-i*E13*E01",
    "E12 - -E21",
    "psi*psi + psi",
    "(E11+1)*psi",
    "2 + 3/4*i - E33",
    "e1*e2*e3",
    "-(E01 + E10)",
    "1 - (2 - 3)",
    "E01*(E02*E03)",
    "I",
    "e0 - e1*e1",
    "(1+i)*e0",
]


def typed(node):
    """A tree as nested tuples that name each node's type before its fields.

    Tree nodes are tuples, so ``Sym("E01") == Neg("E01")``; comparing typed
    trees tells the node types apart as well.  A leaf is named by its type
    too, so a literal's :class:`Scalar` does not equal an int or a Fraction
    of the same value.
    """
    if isinstance(node, (Sym, Neg, BinOp)):
        return (type(node).__name__, *map(typed, node))
    return (type(node).__name__, node)


class TestParsing:
    def test_typed_trees_tell_node_types_apart(self):
        assert Sym("E01") == Neg("E01")
        assert typed(Sym("E01")) != typed(Neg("E01"))
        assert typed(Neg(Sym("E01"))) != typed(Neg(Neg("E01")))

    def test_simple_product(self):
        tree = parse_expr("E01*E02")
        assert typed(tree) == typed(BinOp("*", Sym("E01"), Sym("E02")))

    def test_precedence(self):
        tree = parse_expr("E01 + E02*E03")
        assert typed(tree) == typed(BinOp("+", Sym("E01"), BinOp("*", Sym("E02"), Sym("E03"))))

    def test_left_associative(self):
        assert typed(parse_expr("E01-E02-E03")) == typed(BinOp(
            "-", BinOp("-", Sym("E01"), Sym("E02")), Sym("E03")))

    def test_fraction_literal(self):
        assert typed(parse_expr("3/4")) == typed(Scalar(Fraction(3, 4)))

    def test_imaginary_unit(self):
        assert typed(parse_expr("i")) == typed(Scalar(0, 1))

    def test_unary_minus(self):
        assert typed(parse_expr("-E01")) == typed(Neg(Sym("E01")))
        assert typed(parse_expr("--2")) == typed(Neg(Neg(Scalar(2))))

    def test_a_literal_is_its_scalar_at_any_arity(self):
        # The same leaf beside a name of either arity, and i and I shared.
        assert parse_expr("I") is ONE and parse_expr("i") is IM
        assert typed(parse_expr("2*e1 + I")) == typed(BinOp(
            "+", BinOp("*", Scalar(2), Sym("e1")), ONE))
        assert typed(parse_expr("2*E01 + I")) == typed(BinOp(
            "+", BinOp("*", Scalar(2), Sym("E01")), ONE))
        assert typed(parse_expr("(i - psi)")) == typed(BinOp("-", IM, Sym("psi")))
        assert typed(parse_expr("e1*2")) == typed(BinOp("*", Sym("e1"), Scalar(2)))
        assert typed(parse_expr("2*i")) == typed(BinOp("*", Scalar(2), IM))

    def test_parsed_nodes_are_the_named_tuple_types(self):
        tree = parse_expr("-E01*E02 - 3")
        built = BinOp("-", BinOp("*", Neg(Sym("E01")), Sym("E02")), Scalar(3))
        assert type(tree) is BinOp and type(tree.left) is BinOp
        assert type(tree.left.left) is Neg and type(tree.right) is Scalar
        assert (tree.op, tree.left.op, tree.left.left.arg) == ("-", "*", Sym("E01"))
        assert tree == built and hash(tree) == hash(built)
        assert typed(tree) == typed(built)

    @pytest.mark.parametrize("name", [*TABLE_NAMES, "psi"])
    def test_every_grammar_name_parses_to_its_symbol(self, name):
        assert typed(parse_expr(name)) == typed(Sym(name))
        assert typed(parse_expr(f"-{name}*{name}")) == typed(
            BinOp("*", Neg(Sym(name)), Sym(name)))

    @pytest.mark.parametrize("name, word", TABLE_NAMES.items())
    def test_every_word_name_reads_back_as_its_word(self, name, word):
        assert word.name == str(word) == name
        assert to_element(parse_expr(word.name)) == Element.from_word(word)
        # A literal beside the name is built at the word's arity.
        assert to_element(parse_expr(f"2*{name}")) == Element.from_word(word, 2)

    def test_the_name_table_has_twenty_words_and_a_scalar_arity(self):
        assert len(TABLE_NAMES) == 20
        assert SCALAR_ARITY in PREFIXES.values()
        assert typed(parse_expr("1")) == typed(ONE)
        assert to_element(parse_expr("1")) == Element.one(SCALAR_ARITY)
        # The parser keeps a near miss's two errors for each prefix, and nothing more.
        assert exprparse._NAME_ERRORS.keys() == PREFIXES.keys()

    def test_whitespace_insignificant(self):
        assert typed(parse_expr(" E01 *  E02 ")) == typed(parse_expr("E01*E02"))


def reference_tokens(text):
    """The character-loop tokenizer that the one-pattern scan replaced.

    It returns (token, offset) pairs ending in ``("", len(text))``, or raises
    the same error as the parser for an unexpected character.
    """
    tokens = []
    pos, n = 0, len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        start = pos
        pos += 1
        if "0" <= ch <= "9":  # not str.isdigit, which also accepts '\u00b2' and '\u0663'
            while pos < n and "0" <= text[pos] <= "9":
                pos += 1
        elif ch.isalpha():
            while pos < n and text[pos].isalnum():
                pos += 1
        elif ch not in "+-*/()":
            raise ExprSyntaxError(f"unexpected character {ch!r}", start)
        tokens.append((text[start:pos], start))
    tokens.append(("", n))
    return tokens


# The grammar's characters, and characters on the edges of str.isspace,
# str.isalpha and str.isalnum: digits that are not ASCII, numerals that are
# letters to isalnum only, a titlecase letter, '_', and spaces past ASCII's.
TOKEN_ALPHABET = st.sampled_from([
    *"+-*/() 0123456789Eepsi I\t",
    "\u00b2", "\u0663", "\u00bd", "\u216b", "\u01c5", "\u00e9", "_", "#",
    "\U0001d7d8", "\u3000", "\x1c", "\x85",
])


class TestParseErrors:
    def test_out_of_range_two_site_digits(self):
        with pytest.raises(RangeError):
            parse_expr("E99")

    def test_out_of_range_single_site_digit(self):
        with pytest.raises(RangeError):
            parse_expr("e9")

    def test_malformed_symbols(self):
        for text in ("E1", "E123", "e12", "Q", "psii"):
            with pytest.raises(ExprSyntaxError):
                parse_expr(text)

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("(E01")

    def test_trailing_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("E01 E02")

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("")

    def test_bare_division_is_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("E01/2")

    def test_zero_denominator(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("1/0")

    def test_offset_is_reported(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("E01*)")
        assert info.value.offset == 4
        with pytest.raises(RangeError) as info:
            parse_expr("E01+E94")
        assert info.value.offset == 4

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("E01 @ E02")
        assert info.value.offset == 4
        # The offset counts characters: U+3000 is one character but three UTF-8 bytes.
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("\u3000E01 $")
        assert info.value.offset == 5

    @pytest.mark.parametrize("text, offset", [("2\u00b2", 1), ("E01*\u00b2", 4),
                                              ("\u0663*E01", 0)])
    def test_only_ascii_digits_are_numbers(self, text, offset):
        # '\u00b2' (superscript two) and '\u0663' (Arabic-Indic three) pass
        # str.isdigit but are not digits of the grammar.
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text)
        assert info.value.offset == offset

    @settings(max_examples=1000, deadline=None)
    @given(st.text(TOKEN_ALPHABET, max_size=24))
    @example("E\u216b*\u01c5e1 \x85(2/3)")
    @example("e\u0301")  # a combining mark is no letter: it starts no name
    def test_tokens_and_offsets_match_the_character_loop(self, text):
        try:
            expected = reference_tokens(text)
        except ExprSyntaxError as error:
            with pytest.raises(ExprSyntaxError) as info:
                exprparse._tokenize(text)
            assert (str(info.value), info.value.offset) == (str(error), error.offset)
            return
        assert exprparse._tokenize(text) == [token for token, _ in expected]
        assert [exprparse._offset(text, k) for k in range(len(expected))] == \
            [offset for _, offset in expected]

    # A name the factor table does not hold is still judged by the grammar:
    # the same class, message and offset as before the table existed.
    @pytest.mark.parametrize("text, error, offset, message", [
        ("E04", RangeError, 0, "two-site digits must be 0..3, got 'E04'"),
        ("E4", ExprSyntaxError, 0, "two-site symbols are E followed by two digits, got 'E4'"),
        ("E012", ExprSyntaxError, 0, "two-site symbols are E followed by two digits, got 'E012'"),
        ("Ex1", ExprSyntaxError, 0, "two-site symbols are E followed by two digits, got 'Ex1'"),
        # Superscript and Arabic-Indic digits are not digits of the grammar.
        ("E\u00b2\u00b9", ExprSyntaxError, 0,
         "two-site symbols are E followed by two digits, got 'E\u00b2\u00b9'"),
        ("E1\u00b2", ExprSyntaxError, 0,
         "two-site symbols are E followed by two digits, got 'E1\u00b2'"),
        ("e\u0663", ExprSyntaxError, 0,
         "single-site symbols are e followed by one digit, got 'e\u0663'"),
        ("e4", RangeError, 0, "single-site digit must be 0..3, got 'e4'"),
        ("e01", ExprSyntaxError, 0, "single-site symbols are e followed by one digit, got 'e01'"),
        ("psi2", ExprSyntaxError, 0, "unknown symbol 'psi2'"),
        ("Psi", ExprSyntaxError, 0, "unknown symbol 'Psi'"),
        ("xE01", ExprSyntaxError, 0, "unknown symbol 'xE01'"),
        # The arity scan sees an 'e' here, but a text that fails to parse has no arity.
        ("E01 + xe1", ExprSyntaxError, 6, "unknown symbol 'xe1'"),
        ("1 + E31*E44", RangeError, 8, "two-site digits must be 0..3, got 'E44'"),
        ("(E01 - e9)", RangeError, 7, "single-site digit must be 0..3, got 'e9'"),
        # A '/' is part of a rational literal, so a digit run must follow it.
        ("1/", ExprSyntaxError, 2, "expected a digit after '/'"),
        ("1/E01", ExprSyntaxError, 2, "expected a digit after '/'"),
        ("2/ ", ExprSyntaxError, 3, "expected a digit after '/'"),
        ("E01/2", ExprSyntaxError, 3, "trailing input '/'"),
        ("1/0", ExprSyntaxError, 2, "zero denominator"),
        pytest.param("1" + "0" * 5000, ExprSyntaxError, 0,
                     "numeric literal of 5001 digits is too long", id="5001-digit literal"),
        # Past the last token, the offset is the length of the text.
        ("(E01", ExprSyntaxError, 4, "expected ')', found 'end of input'"),
        ("", ExprSyntaxError, 0, "unexpected 'end of input'"),
        ("   ", ExprSyntaxError, 3, "unexpected 'end of input'"),
        ("E01 E02", ExprSyntaxError, 4, "trailing input 'E02'"),
        ("E01*)", ExprSyntaxError, 4, "unexpected ')'"),
        ("(E01))", ExprSyntaxError, 5, "trailing input ')'"),
    ])
    def test_near_misses_of_the_table_names(self, text, error, offset, message):
        with pytest.raises(ExprError) as info:
            parse_expr(text)
        assert type(info.value) is error
        assert info.value.offset == offset
        assert str(info.value) == f"{message} (offset {offset})"

    @pytest.mark.parametrize("text, offset", [
        pytest.param("1" + "0" * 5000, 0, id="numerator-5001-digits"),
        pytest.param("1/" + "3" * 5000, 2, id="denominator-5000-digits"),
    ])
    def test_literal_past_the_integer_string_limit(self, text, offset):
        # int() refuses digit strings longer than 4300 digits by default.
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text)
        assert info.value.offset == offset


class TestRoundTrip:
    """Parse, evaluate, print with ``Element.__str__``, re-parse: same element."""

    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_parse_print_parse(self, text, singlet):
        el = to_element(parse_expr(text), psi=singlet.psi)
        assert to_element(parse_expr(str(el))) == el


class TestArity:
    """Both routes evaluate a text at the arity its names give it."""

    @staticmethod
    def arity(text, singlet):
        arity = to_element(parse_expr(text), psi=singlet.psi).arity
        assert expr_matrix(text).dim == 2 ** arity
        return arity

    def test_two_site_symbols(self, singlet):
        assert self.arity("E01+psi", singlet) == 2

    def test_single_site_symbols(self, singlet):
        assert self.arity("e1*e2", singlet) == 1
        assert self.arity("e1 + I", singlet) == 1

    def test_default_when_unconstrained(self, singlet):
        assert self.arity("2+i", singlet) == 2
        assert self.arity("I", singlet) == 2

    def test_conflict(self):
        with pytest.raises(ArityConflictError):
            parse_expr("e1*E01")
        with pytest.raises(ArityConflictError):
            parse_expr("psi + e2")
        with pytest.raises(ArityConflictError):
            parse_expr("psi+e1")
        # The conflict is raised once the text has parsed: a syntax error comes first.
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("e1*E01 + )")
        assert info.value.offset == 9

    # A literal has no arity of its own: it is its Scalar, and takes the
    # arity of the element it meets.
    @pytest.mark.parametrize("name, word", [("e1", e(1)), ("E01", E(0, 1))])
    def test_a_hand_built_literal_takes_the_arity_it_meets(self, name, word):
        assert to_element(BinOp("*", Scalar(2), Sym(name))) == 2 * word
        assert to_element(BinOp("+", Sym(name), Neg(IM))) == word - IM

    def test_a_tree_of_literals_alone_is_the_scalar_element_at_the_scalar_arity(self):
        assert to_element(ONE) == Element.one(SCALAR_ARITY)
        assert to_element(BinOp("*", IM, Neg(Scalar(3)))) == \
            Element.scalar(Scalar(0, -3), SCALAR_ARITY)

    def test_words_of_two_arities_built_by_hand_are_refused(self):
        # The parser refuses the text; a hand-built tree meets the element's check.
        with pytest.raises(ArityMismatchError, match="^arities differ: 1 vs 2$"):
            to_element(BinOp("*", Sym("e1"), Sym("E01")))

    @pytest.mark.parametrize("leaf", [2, Fraction(1, 2)])
    def test_a_number_that_is_not_a_scalar_is_no_node(self, leaf):
        with pytest.raises(TypeError, match="^not an expression node: "):
            to_element(BinOp("*", leaf, Sym("E01")))
        with pytest.raises(TypeError, match="^not an expression node: "):
            to_element(leaf)


class TestEvaluation:
    def test_cyclic_product(self):
        assert to_element(parse_expr("E01*E02")) == IM * E(0, 3)

    def test_singlet_factor(self):
        assert to_element(parse_expr("1/2*(E11 - 1)")) == (E(1, 1) - 1) / 2

    def test_named_symbols_match_direct_construction(self):
        for a in range(4):
            for b in range(4):
                assert to_element(parse_expr(f"E{a}{b}")) == E(a, b)
        for k in range(4):
            assert to_element(parse_expr(f"e{k}")) == e(k)
        assert e(0) == Element.one(1)
        assert to_element(parse_expr("I")) == Element.one(2)
        with pytest.raises(ValueError):
            e(4)

    def test_product_expressions_match_direct_construction(self):
        cases = {
            "E01*E02": E(0, 1) * E(0, 2),
            "E10*E02": E(1, 0) * E(0, 2),
            "E20*E01": E(2, 0) * E(0, 1),
            "-i*E13*E01": -IM * E(1, 3) * E(0, 1),
            "-i*E22*E03": -IM * E(2, 2) * E(0, 3),
            "-i*E10*E03*E01": -IM * E(1, 0) * E(0, 3) * E(0, 1),
            "-i*E20*E02*E03": -IM * E(2, 0) * E(0, 2) * E(0, 3),
            "-i*E03*E01": -IM * E(0, 3) * E(0, 1),
            "-i*E02*E03": -IM * E(0, 2) * E(0, 3),
            "E01*E20 + E10*E02": E(0, 1) * E(2, 0) + E(1, 0) * E(0, 2),
        }
        for text, expected in cases.items():
            assert to_element(parse_expr(text)) == expected

    def test_a_shared_leaf_is_never_mutated(self):
        leaf = to_element(parse_expr("E12"))
        assert to_element(parse_expr("E12")) is leaf  # one element per symbol
        assert to_element(parse_expr("E12*E12 - E12 + -E12")) == 1 - 2 * E(1, 2)
        assert to_element(parse_expr("E12")) == E(1, 2)
        assert list(leaf.terms.items()) == [(PauliWord((1, 2)), ONE)]

    def test_the_word_table_holds_one_element_per_symbol(self):
        names = list(TABLE_NAMES)
        leaves = []
        for name in names:
            leaves.append(to_element(parse_expr(name)))
            assert to_element(parse_expr(f"{name}*{name} - {name}")) == 1 - leaves[-1]
        assert list(map(id, leaves)) == list(map(id, exprparse._WORDS.values()))
        assert len(exprparse._WORDS) == len(names) == 20

    def test_an_800_factor_chain_evaluates_at_the_default_recursion_limit(self):
        # The tree walk takes one frame per factor, so 800 factors fit under
        # the default limit of 1000 with the test runner's frames on top; the
        # oracle reads and runs the chain without recursion.
        assert sys.getrecursionlimit() == 1000
        text = "*".join(["E01", "E02", "E03"][k % 3] for k in range(800))
        # 266 times E01*E02*E03 = i, which is -1, then E01*E02 = i*E03.
        expected = -IM * E(0, 3)
        assert to_element(parse_expr(text)) == expected
        assert expr_matrix(text) == element_matrix(expected)

    def test_psi_resolution(self, singlet):
        el = to_element(parse_expr("(E11+1)*psi"), psi=singlet.psi)
        assert el.is_zero
        projected = to_element(parse_expr("psi"), psi=singlet.projector)
        assert projected == singlet.projector

    def test_psi_without_context(self):
        with pytest.raises(ExprError):
            to_element(parse_expr("psi"))

    def test_scalar_only_expression(self):
        assert to_element(parse_expr("2 - 3/4*i")) == \
            Element.scalar(Scalar(2, Fraction(-3, 4)), 2)

    # The exact route walks each case as a hand-built tree; the oracle reads it as text.
    @pytest.mark.parametrize("tree, text", [
        (Sym("E0"), "E0"), (Sym("X12"), "X12"), (Sym("e12"), "e12"), (Sym("E012"), "E012"),
        (BinOp("/", Sym("E01"), Sym("E02")), "E01/E02"),
        (BinOp("**", Sym("E01"), Sym("E02")), "E01**E02")])
    def test_a_name_or_operator_outside_the_grammar_evaluates_on_neither_route(self, tree, text):
        with pytest.raises(ExprSyntaxError, match="unknown (symbol|operator)"):
            to_element(tree)
        with pytest.raises(ReadError):
            expr_matrix(text)

    def test_a_plain_tuple_is_no_node_on_either_route(self):
        # It equals the BinOp of the same fields, but only the node types evaluate.
        fake = ("*", Sym("E01"), Sym("E02"))
        assert fake == BinOp("*", Sym("E01"), Sym("E02"))
        for tree in (fake, BinOp("+", Sym("E01"), fake)):
            with pytest.raises(TypeError, match="not an expression node"):
                to_element(tree)
        # The oracle reads text alone: no tree, a parsed one included, is its input.
        for tree in (fake, parse_expr("E01*E02"), None):
            with pytest.raises(TypeError, match="^the oracle reads text, got "):
                expr_matrix(tree)

    def test_negation_sum_and_difference_agree_on_both_routes(self, singlet):
        cases = {
            "-E12": -E(1, 2),
            "--E12": E(1, 2),
            "E01 + E10": E(0, 1) + E(1, 0),
            "E01 - E10 - E01": -E(1, 0),
            "-(1/2*E11 - i) + E22*-E33": -E(1, 1) / 2 + IM - E(2, 2) * E(3, 3),
            "2/3 - -(E03 - psi)": Element.scalar(Fraction(2, 3), 2) + E(0, 3) - singlet.psi,
            "-e1 + e2 - (e3 - -e0)": -e(1) + e(2) - e(3) - e(0),
        }
        for text, expected in cases.items():
            assert to_element(parse_expr(text), psi=singlet.psi) == expected, text
            assert expr_matrix(text) == element_matrix(expected), text

    def test_printed_elements_reparse_to_the_same_element(self, singlet):
        samples = [
            singlet.psi,
            E(0, 1) * E(2, 0) + E(1, 0) * E(0, 2),
            Element.zero(2),
            -E(1, 2) / 3 + IM * E(0, 3),
            Element.scalar(Scalar(Fraction(1, 2), Fraction(-3, 4)), 2),
            (Scalar(1, 1) * E(2, 2)) - 5,
            Element.zero(1),
            e(1) * e(2) * e(3),
            Scalar(1, 1) * Element.one(1) - e(2),
        ]
        for el in samples:
            assert to_element(parse_expr(str(el))) == el
