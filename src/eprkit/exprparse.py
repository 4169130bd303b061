"""Recursive-descent parser for element expressions.

Grammar (whitespace insignificant, products left-associative)::

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | '(' expr ')' | rational | 'i' | symbol
    rational := digits ('/' digits)?
    symbol   := 'E' digit digit   (digits 0-3, two-site words)
              | 'e' digit         (digit 0-3, single-site letters; e0 is
                                   the identity, as E00 is at two sites)
              | 'psi' | 'I'

'/' appears only inside rational literals; to divide by i, multiply by -i.

The parser decides an expression's arity from the names it reads: ``psi``
and the ``E`` symbols are two-site, the ``e`` symbols single-site, and a
text with neither is two-site.  Every literal, ``i`` and ``I`` included, is
built at that arity.  Single-site and two-site symbols cannot be mixed in
one expression: :func:`parse_expr` raises :class:`ArityConflictError` once
the text has parsed, so a syntax error takes precedence.

The grammar's 21 fixed names (``E00``...``E33``, ``e0``...``e3``, ``psi``)
are read from the symbol table :data:`_SYMBOLS`, one shared :class:`Sym`
node per name.  Every other name is judged letter by letter, so a near miss
such as ``E04`` or ``psi2`` raises the error the grammar gives it.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, NamedTuple, TypeVar, Union

from .element import Element, IM, ONE, Scalar, _scalar
from .pauli import PauliWord

__all__ = [
    "ArityConflictError",
    "BinOp",
    "ExprError",
    "ExprSyntaxError",
    "Lit",
    "Neg",
    "RangeError",
    "Sym",
    "evaluate",
    "parse_expr",
    "to_element",
]


class ExprError(ValueError):
    """Base for expression errors; carries the offset, a character index, when known."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)


class ExprSyntaxError(ExprError):
    """Input does not match the grammar."""


class RangeError(ExprError):
    """A symbol digit is outside its allowed range."""


class ArityConflictError(ExprError):
    """Single-site and two-site symbols mixed in one expression."""


class Lit(NamedTuple):
    value: Scalar
    arity: int


class Sym(NamedTuple):
    name: str


class Neg(NamedTuple):
    arg: "Expr"


class BinOp(NamedTuple):
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Lit, Sym, Neg, BinOp]
T = TypeVar("T")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*/()":
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        if "0" <= ch <= "9":  # not str.isdigit, which also accepts '²' and '٣'
            start = pos
            while pos < n and "0" <= text[pos] <= "9":
                pos += 1
            tokens.append(("num", text[start:pos], start))
            continue
        if ch.isalpha():
            start = pos
            pos += 1
            while pos < n and (text[pos].isalnum()):
                pos += 1
            tokens.append(("name", text[start:pos], start))
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n))
    return tokens


# The symbol table: one shared node per fixed name of the grammar.
_SYMBOLS = {name: Sym(name) for name in (
    *(f"E{a}{b}" for a in "0123" for b in "0123"), *(f"e{k}" for k in "0123"), "psi")}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        arities = {1 if name[0] == "e" else 2 for kind, name, _ in self.tokens
                   if kind == "name" and (name[0] in "Ee" or name == "psi")}
        self.mixed = len(arities) > 1
        self.arity = 1 if arities == {1} else 2

    def expect_op(self, op: str) -> None:
        kind, text, offset = self.tokens[self.pos]
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}, found {text or 'end of input'!r}",
                                  offset)
        self.pos += 1

    def expr(self) -> Expr:
        node = self.term()
        tokens = self.tokens
        while True:
            kind, text, _ = tokens[self.pos]
            if kind == "op" and text in "+-":
                self.pos += 1
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        tokens = self.tokens
        while True:
            kind, text, _ = tokens[self.pos]
            if kind == "op" and text == "*":
                self.pos += 1
                node = BinOp("*", node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        kind, text, offset = self.tokens[self.pos]
        if kind == "name":
            self.pos += 1
            node = _SYMBOLS.get(text)
            return self.symbol(text, offset) if node is None else node
        if kind == "op" and text == "-":
            self.pos += 1
            return Neg(self.factor())
        if kind == "op" and text == "(":
            self.pos += 1
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "num":
            self.pos += 1
            value = _integer(text, offset)
            denominator = 1
            nk, nt, _ = self.tokens[self.pos]
            if nk == "op" and nt == "/":
                self.pos += 1
                dk, dt, doff = self.tokens[self.pos]
                if dk != "num":
                    raise ExprSyntaxError("expected a digit after '/'", doff)
                self.pos += 1
                denominator = _integer(dt, doff)
                if denominator == 0:
                    raise ExprSyntaxError("zero denominator", doff)
            return Lit(_scalar(denominator, value, 0), self.arity)
        raise ExprSyntaxError(f"unexpected {text or 'end of input'!r}", offset)

    def symbol(self, text: str, offset: int) -> Lit:
        """``i`` or ``I``; any other name here is not in :data:`_SYMBOLS`.

        So it is an error: malformed, or well formed with a digit outside 0..3.
        """
        if text in ("i", "I"):
            return Lit(IM if text == "i" else ONE, self.arity)
        if text[0] == "E":
            digits = text[1:]
            if len(digits) != 2 or not all("0" <= c <= "9" for c in digits):
                raise ExprSyntaxError(
                    f"two-site symbols are E followed by two digits, got {text!r}",
                    offset)
            raise RangeError(f"two-site digits must be 0..3, got {text!r}", offset)
        if text[0] == "e":
            digits = text[1:]
            if len(digits) != 1 or not "0" <= digits <= "9":
                raise ExprSyntaxError(
                    f"single-site symbols are e followed by one digit, got {text!r}",
                    offset)
            raise RangeError(f"single-site digit must be 0..3, got {text!r}", offset)
        raise ExprSyntaxError(f"unknown symbol {text!r}", offset)


def _integer(digits: str, offset: int) -> int:
    """The value of a digit run; int() refuses runs past the interpreter's limit."""
    try:
        return int(digits)
    except ValueError:
        raise ExprSyntaxError(f"numeric literal of {len(digits)} digits is too long",
                              offset) from None


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into a tree, or raise an :class:`ExprError` subclass."""
    parser = _Parser(text)
    node = parser.expr()
    kind, tok, offset = parser.tokens[parser.pos]
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {tok!r}", offset)
    if parser.mixed:
        raise ArityConflictError("single-site and two-site symbols mixed in one expression")
    return node


# --- evaluation ---------------------------------------------------------------

@cache
def _letters(name: str) -> tuple[int, ...]:
    """The letters a word symbol names, decoded once per name."""
    return tuple(int(d) for d in name[1:])


def evaluate(node: Expr, scalar: Callable[[Scalar, int], T],
             word: Callable[[tuple[int, ...]], T], psi: T | None = None) -> T:
    """Fold a tree bottom-up in any algebra.

    ``scalar`` gives a literal its value from the literal's value and arity,
    ``word`` gives a symbol's letters theirs, and ``psi`` is the value of the
    ``psi`` symbol.  Negation, ``+``, ``-`` and ``*`` are the values' own
    operators.  A symbol's name is decoded to its letters once per process,
    and ``word`` receives the same tuple each time, so it may cache on it.
    """
    def ev(n: Expr) -> T:
        kind = type(n)  # exact node types only: a plain tuple is no node
        if kind is BinOp:
            left, right = ev(n.left), ev(n.right)
            op = n.op
            if op == "*":
                return left * right
            if op == "+":
                return left + right
            return left - right
        if kind is Lit:
            return scalar(n.value, n.arity)
        if kind is Sym:
            if n.name == "psi":
                if psi is None:
                    raise ExprError("psi is not available in this context")
                return psi
            return word(_letters(n.name))
        if kind is Neg:
            return -ev(n.arg)
        raise TypeError(f"not an expression node: {n!r}")

    return ev(node)


def to_element(node: Expr, psi: Element | None = None) -> Element:
    """Evaluate a tree to a canonical element, each literal at the arity it carries.

    A literal is its :class:`Scalar`, so a subtree of literals alone, such as
    the coefficient ``(-3/10+5/7*i)``, folds to one scalar by scalar
    arithmetic and meets a word as that multiple of the identity word.  The
    literals' arities are collected on the way and must all be the
    element's; a tree of literals alone is the scalar element at theirs.

    ``psi`` supplies the value of the ``psi`` symbol.  Every occurrence of a
    word symbol shares one element, built once per process by
    :func:`_word_element`; elements are immutable, so sharing is safe.
    """
    arities: set[int] = set()

    def literal(value: Scalar, arity: int) -> Scalar:
        arities.add(arity)
        return value

    value = evaluate(node, literal, _word_element, psi)
    if type(value) is not Element:  # a tree of literals alone
        value = Element.scalar(value, next(iter(arities)))
    if arities - {value.arity}:
        # Only a hand-built tree mixes arities.  Element arithmetic raises the
        # ArityMismatchError at the first operation that mixes them.
        evaluate(node, Element.scalar, _word_element, psi)
    return value


@cache
def _word_element(letters: tuple[int, ...]) -> Element:
    """The element of a symbol's word, built once per process.

    It holds only words :class:`PauliWord` accepted, so at most the grammar's
    20 symbols, and no product: every product still goes through ``pauli``.
    """
    return Element.from_word(PauliWord(letters))
