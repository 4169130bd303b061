"""The expression grammar: parsing, evaluation, printing round trip, errors."""

from fractions import Fraction

import pytest

from eprkit.element import E, Element, IM, Scalar, e
from eprkit.exprparse import (
    ArityConflictError,
    BinOp,
    ExprError,
    ExprSyntaxError,
    Lit,
    Neg,
    RangeError,
    Sym,
    infer_arity,
    parse_expr,
    to_element,
)

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
]

class TestParsing:
    def test_simple_product(self):
        tree = parse_expr("E01*E02")
        assert tree == BinOp("*", Sym("E01"), Sym("E02"))

    def test_precedence(self):
        tree = parse_expr("E01 + E02*E03")
        assert tree == BinOp("+", Sym("E01"), BinOp("*", Sym("E02"), Sym("E03")))

    def test_left_associative(self):
        assert parse_expr("E01-E02-E03") == BinOp(
            "-", BinOp("-", Sym("E01"), Sym("E02")), Sym("E03"))

    def test_fraction_literal(self):
        assert parse_expr("3/4") == Lit(Scalar(Fraction(3, 4)))

    def test_imaginary_unit(self):
        assert parse_expr("i") == Lit(Scalar(0, 1))

    def test_unary_minus(self):
        assert parse_expr("-E01") == Neg(Sym("E01"))
        assert parse_expr("--2") == Neg(Neg(Lit(Scalar(2))))

    def test_whitespace_insignificant(self):
        assert parse_expr(" E01 *  E02 ") == parse_expr("E01*E02")


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


class TestRoundTrip:
    """Parse, evaluate, print with ``Element.__str__``, re-parse: same element."""

    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_parse_print_parse(self, text, singlet):
        el = to_element(parse_expr(text), psi=singlet.psi)
        assert to_element(parse_expr(str(el)), default_arity=el.arity) == el


class TestArity:
    def test_two_site_symbols(self):
        assert infer_arity(parse_expr("E01+psi")) == 2

    def test_single_site_symbols(self):
        assert infer_arity(parse_expr("e1*e2")) == 1

    def test_default_when_unconstrained(self):
        assert infer_arity(parse_expr("2+i")) == 2
        assert infer_arity(parse_expr("I")) == 2

    def test_conflict(self):
        with pytest.raises(ArityConflictError):
            to_element(parse_expr("e1*E01"))
        with pytest.raises(ArityConflictError):
            to_element(parse_expr("psi + e2"))


class TestEvaluation:
    def test_cyclic_product(self):
        assert to_element(parse_expr("E01*E02")) == IM * E(0, 3)

    def test_singlet_factor(self):
        assert to_element(parse_expr("1/2*(E11 - 1)")) == (E(1, 1) - 1) / 2

    def test_named_symbols_match_direct_construction(self):
        for a in range(4):
            for b in range(4):
                assert to_element(parse_expr(f"E{a}{b}")) == E(a, b)
        for k in (1, 2, 3):
            assert to_element(parse_expr(f"e{k}")) == e(k)
        assert to_element(parse_expr("I")) == Element.one(2)

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

    def test_printed_elements_reparse_to_the_same_element(self, singlet):
        samples = [
            singlet.psi,
            E(0, 1) * E(2, 0) + E(1, 0) * E(0, 2),
            Element.zero(2),
            -E(1, 2) / 3 + IM * E(0, 3),
            Element.scalar(Scalar(Fraction(1, 2), Fraction(-3, 4)), 2),
            (Scalar(1, 1) * E(2, 2)) - 5,
        ]
        for el in samples:
            assert to_element(parse_expr(str(el)), default_arity=el.arity) == el
