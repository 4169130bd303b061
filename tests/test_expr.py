"""The expression grammar: parsing, evaluation, printing round trip, errors."""

import sys
from fractions import Fraction

import pytest

from eprkit import exprparse
from eprkit.element import E, Element, IM, ONE, Scalar, e
from eprkit.exprparse import (
    ArityConflictError,
    BinOp,
    ExprError,
    ExprSyntaxError,
    Lit,
    Neg,
    RangeError,
    Sym,
    parse_expr,
    to_element,
)
from eprkit.matrices import element_matrix, expr_matrix
from eprkit.pauli import ArityMismatchError, PauliWord

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
    trees tells the node types apart as well.
    """
    if isinstance(node, (Lit, Sym, Neg, BinOp)):
        return (type(node).__name__, *map(typed, node))
    return node


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
        assert typed(parse_expr("3/4")) == typed(Lit(Scalar(Fraction(3, 4)), 2))

    def test_imaginary_unit(self):
        assert typed(parse_expr("i")) == typed(Lit(Scalar(0, 1), 2))

    def test_unary_minus(self):
        assert typed(parse_expr("-E01")) == typed(Neg(Sym("E01")))
        assert typed(parse_expr("--2")) == typed(Neg(Neg(Lit(Scalar(2), 2))))

    def test_literals_carry_the_arity_of_the_text(self):
        assert typed(parse_expr("I")) == typed(Lit(ONE, 2))
        assert typed(parse_expr("2*e1 + I")) == typed(BinOp(
            "+", BinOp("*", Lit(Scalar(2), 1), Sym("e1")), Lit(ONE, 1)))
        assert typed(parse_expr("(i - psi)")) == typed(BinOp("-", Lit(IM, 2), Sym("psi")))
        assert typed(parse_expr("e1*2")) == typed(BinOp("*", Sym("e1"), Lit(Scalar(2), 1)))
        assert typed(parse_expr("2*i")) == typed(BinOp("*", Lit(Scalar(2), 2), Lit(IM, 2)))

    def test_parsed_nodes_are_the_named_tuple_types(self):
        tree = parse_expr("-E01*E02 - 3")
        built = BinOp("-", BinOp("*", Neg(Sym("E01")), Sym("E02")), Lit(Scalar(3), 2))
        assert type(tree) is BinOp and type(tree.left) is BinOp
        assert type(tree.left.left) is Neg and type(tree.right) is Lit
        assert (tree.op, tree.left.op, tree.left.left.arg) == ("-", "*", Sym("E01"))
        assert tree == built and hash(tree) == hash(built)
        assert typed(tree) == typed(built)

    @pytest.mark.parametrize("name", [*(f"E{a}{b}" for a in range(4) for b in range(4)),
                                      *(f"e{k}" for k in range(4)), "psi"])
    def test_every_grammar_name_parses_to_its_symbol(self, name):
        assert typed(parse_expr(name)) == typed(Sym(name))
        assert typed(parse_expr(f"-{name}*{name}")) == typed(
            BinOp("*", Neg(Sym(name)), Sym(name)))

    def test_whitespace_insignificant(self):
        assert typed(parse_expr(" E01 *  E02 ")) == typed(parse_expr("E01*E02"))


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

    # A name the symbol table does not hold is still judged by the grammar:
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
    ])
    def test_near_misses_of_the_table_names(self, text, error, offset, message):
        with pytest.raises(ExprError) as info:
            parse_expr(text)
        assert type(info.value) is error
        assert info.value.offset == offset
        assert str(info.value) == f"{message} (offset {offset})"

    @pytest.mark.parametrize("text, offset", [("1" + "0" * 5000, 0),
                                              ("1/" + "3" * 5000, 2)])
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
    """Both routes evaluate a parsed text at the arity the parser gave it."""

    @staticmethod
    def arity(text, singlet):
        tree = parse_expr(text)
        arity = to_element(tree, psi=singlet.psi).arity
        assert expr_matrix(tree).dim == 2 ** arity
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

    # A literal folds to a scalar before it meets a word, so to_element checks
    # the arity a hand-built tree gives each literal.
    @pytest.mark.parametrize("tree, message", [
        (BinOp("*", Lit(Scalar(2), 1), Sym("E01")), "arities differ: 1 vs 2"),
        (BinOp("*", Sym("E01"), Lit(Scalar(2), 1)), "arities differ: 2 vs 1"),
        (BinOp("+", Lit(ONE, 2), BinOp("*", Lit(IM, 2), Lit(ONE, 1))), "arities differ: 2 vs 1"),
        (BinOp("-", Neg(Lit(ONE, 1)), Lit(IM, 2)), "arities differ: 1 vs 2"),
    ])
    def test_a_literal_of_another_arity_is_refused(self, tree, message):
        with pytest.raises(ArityMismatchError) as info:
            to_element(tree)
        assert str(info.value) == message

    def test_a_literal_alone_keeps_its_arity(self):
        assert to_element(Lit(ONE, 1)) == Element.one(1)
        assert to_element(BinOp("*", Lit(IM, 1), Neg(Lit(Scalar(3), 1)))) == \
            Element.scalar(Scalar(0, -3), 1)


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
        names = [f"E{a}{b}" for a in range(4) for b in range(4)] + [f"e{k}" for k in range(4)]
        leaves = []
        for name in names:
            leaves.append(to_element(parse_expr(name)))
            assert to_element(parse_expr(f"{name}*{name} - {name}")) == 1 - leaves[-1]
        assert list(map(id, leaves)) == list(map(id, exprparse._WORDS.values()))
        assert len(exprparse._WORDS) == len(names) == 20

    def test_an_800_factor_chain_evaluates_at_the_default_recursion_limit(self):
        # The tree walk takes one frame per factor, so 800 factors fit under
        # the default limit of 1000 with the test runner's frames on top.
        assert sys.getrecursionlimit() == 1000
        tree = parse_expr("*".join(["E01", "E02", "E03"][k % 3] for k in range(800)))
        # 266 times E01*E02*E03 = i, which is -1, then E01*E02 = i*E03.
        expected = -IM * E(0, 3)
        assert to_element(tree) == expected
        assert expr_matrix(tree) == element_matrix(expected)

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

    @pytest.mark.parametrize("tree", [
        Sym("E0"), Sym("X12"), Sym("e12"), Sym("E012"),
        BinOp("/", Sym("E01"), Sym("E02")), BinOp("**", Sym("E01"), Sym("E02"))])
    def test_a_name_or_operator_outside_the_grammar_evaluates_on_neither_route(self, tree):
        for evaluate in (to_element, expr_matrix):
            with pytest.raises(ExprSyntaxError, match="unknown (symbol|operator)"):
                evaluate(tree)

    def test_a_plain_tuple_is_no_node_on_either_route(self):
        # It equals the BinOp of the same fields, but only the node types evaluate.
        fake = ("*", Sym("E01"), Sym("E02"))
        assert fake == BinOp("*", Sym("E01"), Sym("E02"))
        for evaluate in (to_element, expr_matrix):
            with pytest.raises(TypeError, match="not an expression node"):
                evaluate(fake)
            with pytest.raises(TypeError, match="not an expression node"):
                evaluate(BinOp("+", Sym("E01"), fake))

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
            tree = parse_expr(text)
            assert to_element(tree, psi=singlet.psi) == expected, text
            assert expr_matrix(tree) == element_matrix(expected), text

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
