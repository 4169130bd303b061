"""Recursive-descent parser for element expressions.

Grammar (whitespace insignificant, products left-associative)::

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | '(' expr ')' | rational | 'i' | symbol
    rational := digits ('/' digits)?
    symbol   := 'E' digit digit   (digits 0-3, two-site words)
              | 'e' digit         (digit 1-3, single-site letters)
              | 'psi' | 'I'

'/' appears only inside rational literals; to divide by i, multiply by -i.
Single-site and two-site symbols cannot be mixed in one expression.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, TypeVar, Union

from .element import Element, IM, ONE, Scalar
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
    "infer_arity",
    "parse_expr",
    "to_element",
]


class ExprError(ValueError):
    """Base for expression errors; carries the byte offset when known."""

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


@dataclass(frozen=True)
class Lit:
    value: Scalar


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
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
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}, found {text or 'end of input'!r}",
                                  offset)
        self.advance()

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "*":
                self.advance()
                node = BinOp("*", node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.factor())
        if kind == "op" and text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "num":
            self.advance()
            value = Fraction(int(text))
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "/":
                self.advance()
                dk, dt, doff = self.peek()
                if dk != "num":
                    raise ExprSyntaxError("expected a digit after '/'", doff)
                self.advance()
                if int(dt) == 0:
                    raise ExprSyntaxError("zero denominator", doff)
                value /= int(dt)
            return Lit(Scalar(value))
        if kind == "name":
            self.advance()
            return self.symbol(text, offset)
        raise ExprSyntaxError(f"unexpected {text or 'end of input'!r}", offset)

    def symbol(self, text: str, offset: int) -> Expr:
        if text == "i":
            return Lit(IM)
        if text in ("I", "psi"):
            return Sym(text)
        if text[0] == "E":
            digits = text[1:]
            if len(digits) != 2 or not digits.isdigit():
                raise ExprSyntaxError(
                    f"two-site symbols are E followed by two digits, got {text!r}",
                    offset)
            if any(d not in "0123" for d in digits):
                raise RangeError(f"two-site digits must be 0..3, got {text!r}",
                                 offset)
            return Sym(text)
        if text[0] == "e":
            digits = text[1:]
            if len(digits) != 1 or not digits.isdigit():
                raise ExprSyntaxError(
                    f"single-site symbols are e followed by one digit, got {text!r}",
                    offset)
            if digits not in ("1", "2", "3"):
                raise RangeError(f"single-site digit must be 1..3, got {text!r}",
                                 offset)
            return Sym(text)
        raise ExprSyntaxError(f"unknown symbol {text!r}", offset)


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into a tree, or raise an :class:`ExprError` subclass."""
    parser = _Parser(text)
    node = parser.expr()
    kind, tok, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {tok!r}", offset)
    return node


# --- evaluation ---------------------------------------------------------------

def infer_arity(node: Expr, default: int = 2) -> int:
    """Word length implied by the symbols, or ``default`` if none constrain it."""
    arities = set()

    def visit(n: Expr) -> None:
        if isinstance(n, Sym):
            if n.name == "psi" or n.name[0] == "E":
                arities.add(2)
            elif n.name[0] == "e":
                arities.add(1)
        elif isinstance(n, Neg):
            visit(n.arg)
        elif isinstance(n, BinOp):
            visit(n.left)
            visit(n.right)

    visit(node)
    if len(arities) > 1:
        raise ArityConflictError(
            "single-site and two-site symbols mixed in one expression")
    return arities.pop() if arities else default


def evaluate(node: Expr, scalar: Callable[[Scalar], T],
             word: Callable[[tuple[int, ...]], T], psi: T | None = None,
             mul: Callable[[T, T], T] = operator.mul) -> T:
    """Fold a tree bottom-up in any algebra.

    ``scalar`` gives a literal its value (``I`` is the literal 1), ``word``
    gives a symbol's letters theirs, and ``psi`` is the value of the ``psi``
    symbol.  Negation, ``+`` and ``-`` are the values' own operators; ``mul``
    multiplies.
    """
    def ev(n: Expr) -> T:
        if isinstance(n, Lit):
            return scalar(n.value)
        if isinstance(n, Sym):
            if n.name == "I":
                return scalar(ONE)
            if n.name == "psi":
                if psi is None:
                    raise ExprError("psi is not available in this context")
                return psi
            return word(tuple(int(d) for d in n.name[1:]))
        if isinstance(n, Neg):
            return -ev(n.arg)
        if isinstance(n, BinOp):
            left, right = ev(n.left), ev(n.right)
            if n.op == "+":
                return left + right
            if n.op == "-":
                return left - right
            return mul(left, right)
        raise TypeError(f"not an expression node: {n!r}")

    return ev(node)


def to_element(node: Expr, psi: Element | None = None,
               default_arity: int = 2) -> Element:
    """Evaluate a tree to a canonical element.

    ``psi`` supplies the value of the ``psi`` symbol (callers may pass the
    projector instead to reinterpret it).
    """
    arity = infer_arity(node, default_arity)
    return evaluate(node, lambda value: Element.scalar(value, arity),
                    lambda letters: Element.from_word(PauliWord(letters)), psi)
