r"""Recursive-descent parser for element expressions.

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

The tokens are the strings of one ``findall`` of the pattern
``[-+*/()]|[0-9]+|[^\W_]+|\S``: an operator, a run of ASCII digits, a run of
letters and digits, or any other character that is not whitespace.  A token
that starts with neither a letter nor a grammar character is an unexpected
character.  Tokens carry no offset: an error's offset is found by scanning
the text again, and only when the error is raised.

A literal, ``i`` and ``I`` included, is its :class:`Scalar`: a leaf of the
tree, with no arity of its own.  It takes the arity of the element it meets,
and a text of literals alone has :data:`~eprkit.pauli.SCALAR_ARITY` sites.
A name's arity is fixed: ``psi`` is two-site and a word name has the sites
its prefix gives.  Names of different arities cannot be mixed in one
expression.  The parser finds them by substring before parsing (in a text
that parses, a prefix's letter and the run ``psi`` occur only inside those
names), and :func:`parse_expr` raises :class:`ArityConflictError` once the
text has parsed, so a syntax error takes precedence.

The word names are the :attr:`PauliWord.name` s of the prefix table
:data:`~eprkit.pauli.PREFIXES`.  The factor table :data:`_FACTORS` of shared
:class:`Sym` nodes and unit scalars, each word's element and the arity scan
are read from it; this module adds only a near miss's two errors per prefix
(``E0``, ``E04``).
The tree walk refuses any name or operator the parser cannot read, so a
hand-built tree outside the grammar never evaluates.  The matrix oracle
reads claim text with a reader of its own (:mod:`eprkit.matrices`), so
nothing here is shared with it.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Callable, NamedTuple, TypeVar, Union

from .element import Element, IM, ONE, Scalar, _scalar
from .pauli import PREFIXES, SCALAR_ARITY, PauliWord

__all__ = [
    "ArityConflictError",
    "BinOp",
    "ExprError",
    "ExprSyntaxError",
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


class Sym(NamedTuple):
    name: str


class Neg(NamedTuple):
    arg: "Expr"


class BinOp(NamedTuple):
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Scalar, Sym, Neg, BinOp]
T = TypeVar("T")


# One token per match: an operator, a run of ASCII digits, a run of letters
# and digits (str.isalnum, which is what [^\W_] matches), or any other
# character that is not whitespace (str.isspace, which is what \s matches).
_TOKEN = re.compile(r"[-+*/()]|[0-9]+|[^\W_]+|\S")
# The characters a token may start with, besides a letter (str.isalpha).
_STARTS = frozenset("+-*/()0123456789")


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text``, then ``""`` as the end of input.

    A token's kind is its first character.  Only a name starts with a letter,
    and a token that starts with anything else outside :data:`_STARTS` is an
    unexpected character; each distinct first character is checked once.
    """
    tokens = _TOKEN.findall(text)
    bad = {c for c in {tok[0] for tok in tokens} - _STARTS if not c.isalpha()}
    if bad:
        index = next(k for k, tok in enumerate(tokens) if tok[0] in bad)
        raise ExprSyntaxError(f"unexpected character {tokens[index][0]!r}",
                              _offset(text, index))
    tokens.append("")
    return tokens


def _offset(text: str, index: int) -> int:
    """The character offset of token ``index`` of ``text``; past the last token, ``len(text)``.

    Tokens carry no offset: an error re-scans the text to find it.
    """
    for k, match in enumerate(_TOKEN.finditer(text)):
        if k == index:
            return match.start()
    return len(text)


# Per prefix of the name table: a malformed name's error, a digit's range error.
_NAME_ERRORS = {
    "E": ("two-site symbols are E followed by two digits", "two-site digits must be 0..3"),
    "e": ("single-site symbols are e followed by one digit", "single-site digit must be 0..3"),
}
# Each word name's letters, for every arity the name table holds.
_LETTERS = {PauliWord(letters).name: letters
            for sites in PREFIXES.values() for letters in product(range(4), repeat=sites)}
# The node of every name a factor can be: one shared symbol per fixed name of
# the grammar, and i and I as their scalars.  Nodes are immutable, so sharing
# them is safe.
_FACTORS = {name: Sym(name) for name in (*_LETTERS, "psi")} | {"i": IM, "I": ONE}
# Each word's element, keyed by its letters: every occurrence of a symbol
# shares it, and elements are immutable, so sharing is safe.
_WORDS = {letters: Element.from_word(PauliWord(letters)) for letters in _LETTERS.values()}


# The parser builds BinOp and Neg nodes with tuple.__new__: the same
# NamedTuple, without the Python-level __new__ that only forwards to it.
class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        # In a text that parses, a prefix's letter or "psi" occurs only inside
        # that name; a text that does not parse never has mixed read.
        arities = {sites for prefix, sites in PREFIXES.items() if prefix in text}
        if "psi" in text:
            arities.add(2)  # psi is a two-site element
        self.mixed = len(arities) > 1

    def error(self, message: str, index: int) -> ExprSyntaxError:
        return ExprSyntaxError(message, _offset(self.text, index))

    def expect(self, token: str) -> None:
        found = self.tokens[self.pos]
        if found != token:
            raise self.error(f"expected {token!r}, found {found or 'end of input'!r}", self.pos)
        self.pos += 1

    def expr(self) -> Expr:
        node = self.term()
        tokens = self.tokens
        while True:
            op = tokens[self.pos]
            if op == "+" or op == "-":
                self.pos += 1
                node = tuple.__new__(BinOp, (op, node, self.term()))
            else:
                return node

    def term(self) -> Expr:
        # A name's node comes straight from the factor table; only the other
        # factors take a factor() call.
        tokens = self.tokens
        node = _FACTORS.get(tokens[self.pos])
        if node is None:
            node = self.factor()
        else:
            self.pos += 1
        while tokens[self.pos] == "*":
            self.pos += 1
            right = _FACTORS.get(tokens[self.pos])
            if right is None:
                right = self.factor()
            else:
                self.pos += 1
            node = tuple.__new__(BinOp, ("*", node, right))
        return node

    def factor(self) -> Expr:
        pos = self.pos
        token = self.tokens[pos]
        node = _FACTORS.get(token)
        if node is not None:
            self.pos += 1
            return node
        if token == "-":
            self.pos += 1
            return tuple.__new__(Neg, (self.factor(),))
        if token == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        if token.isdigit():  # the tokenizer lets no other digit start a token
            self.pos += 1
            value = self.integer(pos)
            denominator = 1
            if self.tokens[pos + 1] == "/":
                if not self.tokens[pos + 2].isdigit():
                    raise self.error("expected a digit after '/'", pos + 2)
                self.pos += 2
                denominator = self.integer(pos + 2)
                if denominator == 0:
                    raise self.error("zero denominator", pos + 2)
            return _scalar(denominator, value, 0)
        if token[:1].isalpha():
            raise self.name_error(pos)
        raise self.error(f"unexpected {token or 'end of input'!r}", pos)

    def integer(self, pos: int) -> int:
        """The value of the digit run at ``pos``; int() refuses runs past the interpreter's limit."""
        digits = self.tokens[pos]
        try:
            return int(digits)
        except ValueError:
            raise self.error(f"numeric literal of {len(digits)} digits is too long",
                             pos) from None

    def name_error(self, pos: int) -> ExprError:
        """The error of a name at ``pos`` that the factor table does not hold.

        It is malformed, or well formed with a digit outside 0..3.
        """
        text, offset = self.tokens[pos], _offset(self.text, pos)
        if text[0] not in _NAME_ERRORS:
            return ExprSyntaxError(f"unknown symbol {text!r}", offset)
        malformed, out_of_range = _NAME_ERRORS[text[0]]
        digits = text[1:]
        if len(digits) != PREFIXES[text[0]] or not all("0" <= c <= "9" for c in digits):
            return ExprSyntaxError(f"{malformed}, got {text!r}", offset)
        return RangeError(f"{out_of_range}, got {text!r}", offset)


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into a tree, or raise an :class:`ExprError` subclass."""
    parser = _Parser(text)
    node = parser.expr()
    token = parser.tokens[parser.pos]
    if token:
        raise parser.error(f"trailing input {token!r}", parser.pos)
    if parser.mixed:
        raise ArityConflictError("single-site and two-site symbols mixed in one expression")
    return node


# --- evaluation ---------------------------------------------------------------

def evaluate(node: Expr, word: Callable[[tuple[int, ...]], T], psi: T | None = None) -> T:
    """Fold a tree bottom-up in any algebra, one frame per tree level.

    A literal's value is its own :class:`Scalar`, ``word`` gives a symbol's
    letters theirs, and ``psi`` is the value of the ``psi`` symbol.
    Negation, ``+``, ``-`` and ``*`` are the values' own operators, so a
    value must take a scalar operand.  A symbol's letters are read from the
    grammar's table, so ``word`` receives the same tuple for each name and
    may cache on it.
    A name or an operator the grammar does not have raises
    :class:`ExprSyntaxError`: only a hand-built tree holds one.
    """
    kind = type(node)  # exact node types only: a plain tuple is no node
    if kind is BinOp:
        left = evaluate(node.left, word, psi)
        right = evaluate(node.right, word, psi)
        op = node.op
        if op == "*":
            return left * right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        raise ExprSyntaxError(f"unknown operator {op!r}")
    if kind is Scalar:
        return node
    if kind is Sym:
        letters = _LETTERS.get(node.name)
        if letters is not None:
            return word(letters)
        if node.name != "psi":
            raise ExprSyntaxError(f"unknown symbol {node.name!r}")
        if psi is None:
            raise ExprError("psi is not available in this context")
        return psi
    if kind is Neg:
        return -evaluate(node.arg, word, psi)
    raise TypeError(f"not an expression node: {node!r}")


def to_element(node: Expr, psi: Element | None = None) -> Element:
    """Evaluate a tree to a canonical element in one walk.

    A literal is its :class:`Scalar`, so a subtree of literals alone, such as
    the coefficient ``(-3/10+5/7*i)``, folds to one scalar by scalar
    arithmetic, and a product scales the word's numerators by it: a literal
    takes the arity of the element it meets.  A tree of literals alone is
    the scalar element at :data:`~eprkit.pauli.SCALAR_ARITY`.

    ``psi`` supplies the value of the ``psi`` symbol.  Every occurrence of a
    word symbol shares its element in :data:`_WORDS`, built at import.
    """
    value = evaluate(node, _WORDS.__getitem__, psi)
    if type(value) is not Element:  # a tree of literals alone
        return Element.scalar(value, SCALAR_ARITY)
    return value
