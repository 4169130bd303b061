"""Exact matrix representation of words and elements.

The matrix cross-check for the exact layer: letters map to the standard 2x2
spin matrices, words to Kronecker products (first site leftmost), elements
to coefficient-weighted sums, and expression text to matrix products.
Everything here is built from the four explicit letter matrices and this
module's own :class:`Matrix` arithmetic, never from the symbolic
composition rules or the element layer's arithmetic, so the two routes stay
independent by construction: this module imports no eprkit module.  It
reads a claim's text itself, with its own token check and name table
(:func:`expr_program`), so a fault in the exact route's parser or tree walk
moves that route alone.  Even ``psi`` is this module's own product of
letter matrices, taken from no caller.  Entries are exact Gaussian
rationals, so two matrices agree exactly when they are equal.  A matrix
keeps one invariant, that it stores no zero entry; only a product whose
denominator passes 64 bits is reduced.  The product and the sum test whether
a column is already stored: a new entry is stored as it is (a product of two
nonzero Gaussian integers, or a nonzero addend), and a term that meets a
stored entry is added to it, the entry dropped if the sum is zero.  Over one
denominator ``==`` compares the rows; across two it walks them once,
checking the same columns and cross-multiplied parts, and returns at the
first difference.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cache, partial
from itertools import product
from math import gcd, lcm, prod
from operator import add, mul, neg, sub

__all__ = [
    "DimensionMismatchError",
    "LETTER_MATRICES",
    "Matrix",
    "ReadError",
    "approx_equal",
    "element_matrix",
    "expr_program",
    "word_matrix",
]


class DimensionMismatchError(ValueError):
    """Two matrices of different shape were combined or compared."""


class ReadError(ValueError):
    """A text that the oracle's reader refuses: it is not in the expression grammar."""


Row = dict[int, tuple[int, int]]


class Matrix:
    """An immutable square matrix with exact Gaussian-rational entries.

    Stored as one positive denominator shared by all entries and, per row,
    column -> Gaussian-integer numerator ``(re, im)`` for the nonzero
    entries only: no row stores ``(0, 0)``.  The denominator is whatever
    the arithmetic left, so two matrices are equal exactly when they have
    one dimension, the same columns in each row, and the same value at
    each.  ``+``, ``-`` and unary ``-`` are entrywise and ``*`` is the
    matrix product.
    """

    __slots__ = ("_dim", "_den", "_rows")

    def __init__(self, rows: Sequence[Sequence[complex]]):
        """A matrix of ints or integral complex literals like ``1j``."""
        dim = len(rows)
        if not dim or any(len(row) != dim for row in rows):
            raise ValueError("rows must make a square matrix of dimension at least 1")
        self._dim, self._den = dim, 1
        self._rows = tuple({c: p for c, p in enumerate(map(_gaussian_integer, row)) if p != (0, 0)}
                           for row in rows)

    @classmethod
    def _new(cls, dim: int, den: int, rows: list[Row]) -> "Matrix":
        """A matrix from parts that store no zero entry, kept as they are."""
        m = object.__new__(cls)
        m._dim, m._den, m._rows = dim, den, tuple(rows)
        return m

    @classmethod
    def scalar(cls, dim: int, re: int | Fraction = 1, im: int | Fraction = 0) -> "Matrix":
        """``re + i*im`` times the identity matrix of dimension ``dim``."""
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError(f"scalar parts must be exact, int or Fraction, got ({re!r}, {im!r})")
        if dim < 1:
            raise ValueError(f"a matrix has dimension at least 1, got {dim}")
        den = lcm(re.denominator, im.denominator)
        return cls._scalar(dim, den, re.numerator * (den // re.denominator),
                           im.numerator * (den // im.denominator))

    @classmethod
    def _scalar(cls, dim: int, den: int, re: int, im: int) -> "Matrix":
        """``(re + i*im)/den`` times the identity."""
        entry = (re, im)
        return cls._new(dim, den, [{r: entry} if re or im else {} for r in range(dim)])

    @property
    def dim(self) -> int:
        return self._dim

    def entry(self, row: int, col: int) -> tuple[Fraction, Fraction]:
        """The entry at ``(row, col)`` as its real and imaginary parts."""
        re, im = self._rows[row].get(col, (0, 0))
        return Fraction(re, self._den), Fraction(im, self._den)

    def trace(self) -> tuple[Fraction, Fraction]:
        """Sum of the diagonal entries, as its real and imaginary parts."""
        diagonal = [row[r] for r, row in enumerate(self._rows) if r in row]
        return (Fraction(sum(re for re, _ in diagonal), self._den),
                Fraction(sum(im for _, im in diagonal), self._den))

    def _check(self, other: object) -> bool:
        """Whether ``other`` is a matrix; one of another dimension raises."""
        if not isinstance(other, Matrix):
            return False
        if other._dim != self._dim:
            raise DimensionMismatchError(f"dimensions differ: {self._dim} vs {other._dim}")
        return True

    def __add__(self, other: object) -> "Matrix":
        """The entrywise sum over the lcm of the two denominators."""
        if not self._check(other):
            return NotImplemented
        g = gcd(self._den, other._den)
        fa, fb = other._den // g, self._den // g  # bring both to the lcm
        rows = []
        for ra, rb in zip(self._rows, other._rows):
            acc = dict(ra) if fa == 1 else {c: (re * fa, im * fa) for c, (re, im) in ra.items()}
            for c, (re, im) in rb.items():
                if c not in acc:  # nonzero, stored as it is
                    acc[c] = (re * fb, im * fb)
                    continue
                old_re, old_im = acc[c]
                re, im = old_re + re * fb, old_im + im * fb
                if re or im:
                    acc[c] = (re, im)
                else:  # a cancelled entry goes
                    del acc[c]
            rows.append(acc)
        return Matrix._new(self._dim, self._den * fa, rows)

    def __sub__(self, other: object) -> "Matrix":
        if not self._check(other):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return self.times_i(2)

    def __mul__(self, other: object) -> "Matrix":
        """The matrix product."""
        if (type(other) is not Matrix or other._dim != self._dim) and not self._check(other):
            return NotImplemented
        right = other._rows
        rows = []
        for row in self._rows:
            acc: Row = {}
            for k, (ar, ai) in row.items():
                for c, (br, bi) in right[k].items():
                    if c not in acc:  # nonzero times nonzero: a new entry is stored as it is
                        acc[c] = (ar * br - ai * bi, ar * bi + ai * br)
                        continue
                    old_re, old_im = acc[c]
                    re, im = old_re + ar * br - ai * bi, old_im + ar * bi + ai * br
                    if re or im:
                        acc[c] = (re, im)
                    else:  # a cancelled entry goes; a later term stores it anew
                        del acc[c]
            rows.append(acc)
        den = self._den * other._den
        if den >> 64:  # a long product: divide out the gcd, so its size stays bounded
            g = gcd(den, *(part for row in rows for pair in row.values() for part in pair))
            den //= g
            for row in rows:  # in place: a comprehension makes g a cell
                for c, (re, im) in row.items():
                    row[c] = (re // g, im // g)
        m = object.__new__(Matrix)  # as _new builds it, without the classmethod call
        m._dim, m._den, m._rows = self._dim, den, tuple(rows)
        return m

    def times_i(self, k: int) -> "Matrix":
        """``i**k`` times this matrix: a swap of the parts, a negation, or both."""
        if not isinstance(k, int):
            raise TypeError(f"times_i takes an int power of i, got {k!r}")
        k %= 4
        if not k:
            return self
        if k == 1:
            rows = [{c: (-im, re) for c, (re, im) in row.items()} for row in self._rows]
        elif k == 2:
            rows = [{c: (-re, -im) for c, (re, im) in row.items()} for row in self._rows]
        else:
            rows = [{c: (im, -re) for c, (re, im) in row.items()} for row in self._rows]
        return Matrix._new(self._dim, self._den, rows)

    def kron(self, other: "Matrix") -> "Matrix":
        """The Kronecker product, ``self`` on the leftmost factor."""
        d = other._dim
        rows = [{ca * d + cb: (ar * br - ai * bi, ar * bi + ai * br)
                 for ca, (ar, ai) in ra.items() for cb, (br, bi) in rb.items()}
                for ra in self._rows for rb in other._rows]
        return Matrix._new(self._dim * d, self._den * other._den, rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self._dim != other._dim:
            return False
        da, db = self._den, other._den
        if da == db:
            return self._rows == other._rows
        # a/da == b/db exactly when a*db == b*da, part by part.
        for ra, rb in zip(self._rows, other._rows):
            if ra.keys() != rb.keys():
                return False
            for c, (re, im) in ra.items():
                b_re, b_im = rb[c]
                if re * db != b_re * da or im * db != b_im * da:
                    return False
        return True

    def __repr__(self) -> str:
        return f"Matrix(dim={self._dim}, den={self._den}, rows={self._rows!r})"


def _gaussian_integer(x: int | complex) -> tuple[int, int]:
    if isinstance(x, int):  # exactly, however large; a bool too
        return int(x), 0
    z = complex(x)
    re, im = int(z.real), int(z.imag)
    if (re, im) != (z.real, z.imag):
        raise ValueError(f"entry {x!r} is not a Gaussian integer")
    return re, im


LETTER_MATRICES = (
    Matrix([[1, 0], [0, 1]]),
    Matrix([[0, 1], [1, 0]]),
    Matrix([[0, -1j], [1j, 0]]),
    Matrix([[1, 0], [0, -1]]),
)

# psi = psi1*psi2*psi3 with psi_k = (E_kk - 1)/2, from the letter matrices alone.
_PSI = prod((m.kron(m) - Matrix.scalar(4) for m in LETTER_MATRICES[1:]),
            start=Matrix.scalar(4, Fraction(1, 8)))


def word_matrix(letters: Sequence[int]) -> Matrix:
    """Kronecker product of the per-site base matrices, first site leftmost.

    ``letters`` is any sequence of the ints 0..3, a word among them.
    """
    if not letters or any(type(x) is not int or not 0 <= x <= 3 for x in letters):
        raise ValueError(f"site letters must be ints 0..3, got {letters!r}")
    m = LETTER_MATRICES[letters[0]]
    for x in letters[1:]:
        m = m.kron(LETTER_MATRICES[x])
    return m


def element_matrix(elem) -> Matrix:
    """Coefficient-weighted sum of word matrices of an :class:`~eprkit.Element`."""
    dim = 2 ** elem.arity
    out = Matrix.scalar(dim, 0)
    for w, c in elem.terms.items():
        out += Matrix._scalar(dim, *c.parts) * word_matrix(w)
    return out


@cache
def _symbol_matrix(letters: tuple[int, ...]) -> Matrix:
    """word_matrix of a symbol's letters, built once per process."""
    return word_matrix(letters)


# --- the oracle's own reader of the expression grammar --------------------------

# Each word name of the grammar and its letters: E with two site digits, e with
# one.  The exact route reads the same names from its own table in eprkit.pauli.
_WORD_LETTERS = {prefix + "".join(map(str, letters)): letters
                 for prefix, sites in (("E", 2), ("e", 1))
                 for letters in product(range(4), repeat=sites)}
# One token per match: an int or int/int literal (groups 1 and 2), an ASCII
# name (3), an operator or a parenthesis (4), or any other character that is
# not whitespace (5), a full-width or accented letter included.
_TOKEN = re.compile(r"([0-9]+)(?:\s*/\s*([0-9]+))?|([A-Za-z0-9]+)|([-+*()])|(\S)")
# The grammar's token sequences, one character per token and "a" for an
# operand: operands and binary operators alternate, a '(' or a unary '-' may
# come before an operand and a ')' after one.
_SHAPE = re.compile(r"[(-]*a\)*(?:[-+*][(-]*a\)*)*")
# How tightly each entry of the shunting-yard's operator stack binds, "~"
# being unary minus, and the operator each one writes.
_PRECEDENCE = {"(": 0, "+": 1, "-": 1, "*": 2, "~": 3}
_OPERATORS = {"+": add, "-": sub, "*": mul, "~": neg}


def expr_program(text: str) -> Callable[[], Matrix]:
    """``text`` read once: each call evaluates it to its matrix.

    The oracle's own reader of the grammar of :mod:`eprkit.exprparse`,
    sharing no code or table with that parser.  A word name is the
    Kronecker product of its letters' matrices, ``psi`` this module's own
    product of them, :data:`_PSI`, and ``i``, ``I`` and each ``n`` or
    ``n/d`` literal that multiple of the identity at the text's arity: one
    site if it names an ``e`` word, else two.  Each is bound to its matrix
    when the text is read, and E. W. Dijkstra's shunting-yard ("Algol 60
    translation", 1961) writes the text as a postfix program, which
    :func:`_run` runs on a value stack; neither recurses.

    Anything outside the grammar raises :class:`ReadError`, first in the
    token pass (an unknown name, ``/`` outside an int/int literal, a zero
    denominator, any other character), then: operands and operators out of
    turn, both arities in one text, unpaired parentheses.
    """
    if not isinstance(text, str):
        raise TypeError(f"the oracle reads text, got {type(text).__name__}")
    # Each token as read: an operator, a bound matrix, or a scalar operand's
    # (den, re, im) until the text's arity is known.
    tokens, arities = [], set()
    for num, den, name, op, other in _TOKEN.findall(text):
        if op:
            tokens.append(op)
            continue
        if other:
            raise ReadError("'/' outside an int/int literal" if other == "/"
                            else f"unexpected character {other!r}")
        if name:
            letters = _WORD_LETTERS.get(name)
            if letters is not None:
                arities.add(len(letters))
                tokens.append(_symbol_matrix(letters))
            elif name == "psi":
                arities.add(2)
                tokens.append(_PSI)
            elif name == "i" or name == "I":
                tokens.append((1, 0, 1) if name == "i" else (1, 1, 0))
            else:
                raise ReadError(f"unknown name {name!r}")
            continue
        try:
            n, d = int(num), int(den or 1)
        except ValueError:  # more digits than the interpreter converts
            raise ReadError("numeric literal too long") from None
        if not d:
            raise ReadError("zero denominator")
        tokens.append((d, n, 0))
    if not _SHAPE.fullmatch("".join(t if type(t) is str else "a" for t in tokens)):
        raise ReadError("operands and operators out of turn")
    if len(arities) > 1:
        raise ReadError("single-site and two-site names mixed in one expression")
    dim = 2 ** arities.pop() if arities else 4
    # The shunting-yard: an operand goes to the program as it comes; an
    # operator waits until a binary operator binding no tighter arrives, or
    # its ')' or the end of the text, so '+', '-' and '*' associate left.
    steps, pending = [], []
    after_operand = False
    for token in tokens:
        if type(token) is not str:
            steps.append((None, token if type(token) is Matrix else Matrix._scalar(dim, *token)))
            after_operand = True
        elif token == ")":
            while pending and pending[-1] != "(":
                _write(steps, pending.pop())
            if not pending:
                raise ReadError("parentheses: unmatched ')'")
            pending.pop()
        elif after_operand:
            while pending and _PRECEDENCE[pending[-1]] >= _PRECEDENCE[token]:
                _write(steps, pending.pop())
            pending.append(token)
            after_operand = False
        else:  # a '(' or a unary minus
            pending.append("~" if token == "-" else token)
    while pending:
        if pending[-1] == "(":
            raise ReadError("parentheses: '(' was never closed")
        _write(steps, pending.pop())
    return partial(_run, steps)


def _write(steps: list[tuple], op: str) -> None:
    """Append operator ``op`` to a program, fused with an operand pushed just before it."""
    if op != "~" and steps[-1][0] is None:
        steps[-1] = (_OPERATORS[op], steps[-1][1])
    else:
        steps.append((_OPERATORS[op], None))


def _run(steps: list[tuple]) -> Matrix:
    """A program's value, the top of its stack held apart: ``(None, m)`` pushes
    ``m``, ``(f, m)`` applies ``f`` to the top and ``m``, ``(f, None)`` to the
    top two (``neg`` to the top)."""
    stack, top = [], None
    for f, m in steps:
        if f is None:
            stack.append(top)
            top = m
        elif m is not None:
            top = f(top, m)
        elif f is neg:
            top = neg(top)
        else:
            top = f(stack.pop(), top)
    return top


def approx_equal(a: Matrix, b: Matrix) -> bool:
    """Whether two matrices of one dimension are equal; dimensions that differ raise."""
    return isinstance(a, Matrix) and a._check(b) and a == b
