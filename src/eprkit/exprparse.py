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

The parser decides an expression's arity from the names in it: ``psi`` is
two-site, a word name has the sites its prefix gives, and any other text
has :data:`~eprkit.pauli.SCALAR_ARITY`.  It reads them off the text by
substring before parsing: in a text that parses, a prefix's letter and the
run ``psi`` occur only inside those names, and the arity of a text that
does not parse is never read.  Every literal, ``i`` and ``I`` included, is
built at that arity.  Names of different arities cannot be mixed in one
expression: :func:`parse_expr` raises :class:`ArityConflictError` once the
text has parsed, so a syntax error takes precedence.

The word names are the :attr:`PauliWord.name` s of the prefix table
:data:`~eprkit.pauli.PREFIXES`.  The symbol table :data:`_SYMBOLS` of shared
:class:`Sym` nodes, each word's element and the arity scan are read from it;
this module adds only a near miss's two errors per prefix (``E0``, ``E04``).
The tree walk refuses any name or operator the parser cannot read, so a
hand-built tree outside the grammar evaluates on neither route.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, NamedTuple, TypeVar, Union

from .element import Element, IM, ONE, Scalar, _scalar
from .pauli import PREFIXES, SCALAR_ARITY, PauliWord

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


# Per prefix of the name table: a malformed name's error, a digit's range error.
_NAME_ERRORS = {
    "E": ("two-site symbols are E followed by two digits", "two-site digits must be 0..3"),
    "e": ("single-site symbols are e followed by one digit", "single-site digit must be 0..3"),
}
# Each word name's letters, for every arity the name table holds.
_LETTERS = {PauliWord(letters).name: letters
            for sites in PREFIXES.values() for letters in product(range(4), repeat=sites)}
# The symbol table: one shared node per fixed name of the grammar.
_SYMBOLS = {name: Sym(name) for name in (*_LETTERS, "psi")}
# Each word's element, keyed by its letters: every occurrence of a symbol
# shares it, and elements are immutable, so sharing is safe.
_WORDS = {letters: Element.from_word(PauliWord(letters)) for letters in _LETTERS.values()}


# The parser builds BinOp and Neg nodes with tuple.__new__: the same
# NamedTuple, without the Python-level __new__ that only forwards to it.
class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        # In a text that parses, a prefix's letter or "psi" occurs only inside
        # that name; a text that does not parse never has its arity read.
        arities = {sites for prefix, sites in PREFIXES.items() if prefix in text}
        if "psi" in text:
            arities.add(2)  # psi is a two-site element
        self.mixed = len(arities) > 1
        self.arity = arities.pop() if len(arities) == 1 else SCALAR_ARITY

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
                node = tuple.__new__(BinOp, (text, node, self.term()))
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        tokens = self.tokens
        while True:
            kind, text, _ = tokens[self.pos]
            if kind == "op" and text == "*":
                self.pos += 1
                node = tuple.__new__(BinOp, ("*", node, self.factor()))
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
            return tuple.__new__(Neg, (self.factor(),))
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
        if text[0] not in _NAME_ERRORS:
            raise ExprSyntaxError(f"unknown symbol {text!r}", offset)
        malformed, out_of_range = _NAME_ERRORS[text[0]]
        digits = text[1:]
        if len(digits) != PREFIXES[text[0]] or not all("0" <= c <= "9" for c in digits):
            raise ExprSyntaxError(f"{malformed}, got {text!r}", offset)
        raise RangeError(f"{out_of_range}, got {text!r}", offset)


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

def evaluate(node: Expr, scalar: Callable[[Scalar, int], T],
             word: Callable[[tuple[int, ...]], T], psi: T | None = None) -> T:
    """Fold a tree bottom-up in any algebra.

    ``scalar`` gives a literal its value from the literal's value and arity,
    ``word`` gives a symbol's letters theirs, and ``psi`` is the value of the
    ``psi`` symbol.  Negation, ``+``, ``-`` and ``*`` are the values' own
    operators.  A symbol's letters are read from the grammar's table, so
    ``word`` receives the same tuple for each name and may cache on it.  A
    name or an operator the grammar does not have raises
    :class:`ExprSyntaxError`: only a hand-built tree holds one.
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
            if op == "-":
                return left - right
            raise ExprSyntaxError(f"unknown operator {op!r}")
        if kind is Lit:
            return scalar(n.value, n.arity)
        if kind is Sym:
            letters = _LETTERS.get(n.name)
            if letters is not None:
                return word(letters)
            if n.name != "psi":
                raise ExprSyntaxError(f"unknown symbol {n.name!r}")
            if psi is None:
                raise ExprError("psi is not available in this context")
            return psi
        if kind is Neg:
            return -ev(n.arg)
        raise TypeError(f"not an expression node: {n!r}")

    return ev(node)


def to_element(node: Expr, psi: Element | None = None) -> Element:
    """Evaluate a tree to a canonical element, each literal at the arity it carries.

    A literal is its :class:`Scalar`, so a subtree of literals alone, such as
    the coefficient ``(-3/10+5/7*i)``, folds to one scalar by scalar
    arithmetic, and a product scales the word's numerators by it.  The
    literals' arities are collected on the way and must all be the
    element's; a tree of literals alone is the scalar element at theirs.

    ``psi`` supplies the value of the ``psi`` symbol.  Every occurrence of a
    word symbol shares its element in :data:`_WORDS`, built at import.
    """
    arities: set[int] = set()

    def literal(value: Scalar, arity: int) -> Scalar:
        arities.add(arity)
        return value

    value = evaluate(node, literal, _WORDS.__getitem__, psi)
    if type(value) is not Element:  # a tree of literals alone
        value = Element.scalar(value, next(iter(arities)))
    if arities - {value.arity}:
        # Only a hand-built tree mixes arities.  Element arithmetic raises the
        # ArityMismatchError at the first operation that mixes them.
        evaluate(node, Element.scalar, _WORDS.__getitem__, psi)
    return value
