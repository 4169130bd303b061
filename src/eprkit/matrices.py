"""Exact matrix representation of words and elements.

The matrix cross-check for the exact layer: letters map to the standard 2x2
spin matrices, words to Kronecker products (first site leftmost), elements
to coefficient-weighted sums, and expression trees to matrix products.
Everything here is built from the four explicit letter matrices and this
module's own :class:`Matrix` arithmetic, never from the symbolic
composition rules or the element layer's arithmetic, so the two routes stay
independent by construction: the only eprkit module imported here is
:mod:`~eprkit.exprparse`, the tree walk both routes share on purpose.  Even
``psi`` is this module's own product of letter matrices, taken from no
caller.  Entries are exact Gaussian rationals, so two matrices agree
exactly when they are equal.  Every result is kept canonical, but only
an entry summed from two parts (a sum's shared entry, a product's repeated
column) can cancel, so only such a result runs the gcd-and-prune pass.  Any
other result holds no zero, since Gaussian integers have no zero divisors:
a product takes one gcd, and a disjoint sum, a unit multiple, a scalar and
a Kronecker product over denominator 1 are stored as built.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod

from .exprparse import Expr, evaluate

__all__ = [
    "DimensionMismatchError",
    "LETTER_MATRICES",
    "Matrix",
    "approx_equal",
    "element_matrix",
    "expr_matrix",
    "word_matrix",
]


class DimensionMismatchError(ValueError):
    """Two matrices of different shape were combined or compared."""


Row = dict[int, tuple[int, int]]


class Matrix:
    """An immutable square matrix with exact Gaussian-rational entries.

    Stored as one positive denominator shared by all entries and, per row,
    the nonzero entries only: column -> Gaussian-integer numerator
    ``(re, im)``.  The denominator and the numerators have no common factor,
    so two matrices are equal exactly when their dimension, denominator and
    rows are.  ``+``, ``-`` and unary ``-`` are entrywise and ``*`` is the
    matrix product.  A sum of disjoint supports cannot cancel or keep a
    common factor (Henrici's rule), and a product that summed no entry
    holds no zero, so both skip the pruning pass :meth:`_set`.
    """

    __slots__ = ("_dim", "_den", "_rows")

    def __init__(self, rows: Sequence[Sequence[complex]]):
        """A matrix of ints or integral complex literals like ``1j``."""
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("rows must make a square matrix")
        self._set(len(rows), 1,
                  [{c: _gaussian_integer(x) for c, x in enumerate(row)} for row in rows])

    @classmethod
    def _new(cls, dim: int, den: int, rows: list[Row]) -> "Matrix":
        m = object.__new__(cls)
        m._set(dim, den, rows)
        return m

    @classmethod
    def _built(cls, dim: int, den: int, rows: list[Row]) -> "Matrix":
        """A matrix from parts already in canonical form, stored as they are."""
        m = object.__new__(cls)
        m._dim, m._den, m._rows = dim, den, tuple(rows)
        return m

    def _set(self, dim: int, den: int, rows: list[Row]) -> None:
        """Store the parts in canonical form: zeros pruned, one gcd taken out."""
        rows = [row if (0, 0) not in row.values() else
                {c: p for c, p in row.items() if p != (0, 0)} for row in rows]
        self._dim = dim
        self._den, self._rows = _lowest_terms(den, rows)

    @classmethod
    def scalar(cls, dim: int, re: int | Fraction = 1, im: int | Fraction = 0) -> "Matrix":
        """``re + i*im`` times the identity matrix of dimension ``dim``."""
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError(f"scalar parts must be exact, int or Fraction, got ({re!r}, {im!r})")
        den = lcm(re.denominator, im.denominator)
        # lcm leaves no factor common to den and both parts.
        return cls._scalar(dim, den, re.numerator * (den // re.denominator),
                           im.numerator * (den // im.denominator))

    @classmethod
    def _scalar(cls, dim: int, den: int, re: int, im: int) -> "Matrix":
        """``(re + i*im)/den`` times the identity, from parts with no common factor."""
        if not (re or im):
            return cls._built(dim, 1, [{} for _ in range(dim)])
        entry = (re, im)
        return cls._built(dim, den, [{r: entry} for r in range(dim)])

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
        """The entrywise sum over the lcm of the two denominators.

        Only an entry met on both sides can cancel or leave a common factor
        (Henrici's rule), so a sum of disjoint supports is stored as built.
        """
        if not self._check(other):
            return NotImplemented
        g = gcd(self._den, other._den)
        fa, fb = other._den // g, self._den // g  # bring both to the lcm
        rows = []
        summed = False
        for ra, rb in zip(self._rows, other._rows):
            acc = dict(ra) if fa == 1 else {c: (re * fa, im * fa) for c, (re, im) in ra.items()}
            get = acc.get
            for c, (re, im) in rb.items():
                old = get(c)
                if old is None:
                    acc[c] = (re * fb, im * fb)
                else:
                    acc[c] = (old[0] + re * fb, old[1] + im * fb)
                    summed = True
            rows.append(acc)
        if not summed:
            # Nothing cancels, and since each side was reduced, every prime
            # of the lcm misses some scaled numerator.
            return Matrix._built(self._dim, self._den * fa, rows)
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
        summed = False
        for row in self._rows:
            acc: Row = {}
            get = acc.get
            for k, (ar, ai) in row.items():
                for c, (br, bi) in right[k].items():
                    re, im = ar * br - ai * bi, ar * bi + ai * br
                    old = get(c)
                    if old is None:
                        acc[c] = (re, im)
                    else:
                        acc[c] = (old[0] + re, old[1] + im)
                        summed = True
            rows.append(acc)
        den = self._den * other._den
        if summed:
            return Matrix._new(self._dim, den, rows)
        # Each entry is one product of nonzero parts, so none is zero.
        if den == 1:
            return Matrix._built(self._dim, 1, rows)
        return Matrix._built(self._dim, *_lowest_terms(den, rows))

    def times_i(self, k: int) -> "Matrix":
        """``i**k`` times this matrix: a swap of the parts, a negation, or both."""
        k %= 4
        if not k:
            return self
        # Parts swapped or negated: no entry becomes zero and no gcd changes.
        return Matrix._built(self._dim, self._den, [
            {c: (-im, re) if k == 1 else (-re, -im) if k == 2 else (im, -re)
             for c, (re, im) in row.items()}
            for row in self._rows])

    def kron(self, other: "Matrix") -> "Matrix":
        """The Kronecker product, ``self`` on the leftmost factor."""
        d = other._dim
        rows = [{ca * d + cb: (ar * br - ai * bi, ar * bi + ai * br)
                 for ca, (ar, ai) in ra.items() for cb, (br, bi) in rb.items()}
                for ra in self._rows for rb in other._rows]
        den = self._den * other._den
        if den == 1:  # no entry is summed, so each is one product of nonzero parts
            return Matrix._built(self._dim * d, 1, rows)
        return Matrix._new(self._dim * d, den, rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self._dim == other._dim and self._den == other._den
                and self._rows == other._rows)

    def __repr__(self) -> str:
        return f"Matrix(dim={self._dim}, den={self._den}, rows={self._rows!r})"


def _lowest_terms(den: int, rows: list[Row]) -> tuple[int, tuple[Row, ...]]:
    """``den`` and ``rows`` with the gcd of ``den`` and every part divided out."""
    g = den if den == 1 else gcd(den, *(x for row in rows for p in row.values() for x in p))
    if g != 1:
        den //= g
        rows = [{c: (re // g, im // g) for c, (re, im) in row.items()} for row in rows]
    return den, tuple(rows)


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


def expr_matrix(node: Expr) -> Matrix:
    """Evaluate a parsed expression with matrices alone.

    A literal is that multiple of the identity matrix at the literal's
    arity, built from the scalar's integer parts, a symbol the Kronecker
    product of its letters' matrices (``psi`` this module's own product of
    them, :data:`_PSI`), and ``*`` the matrix product.  No element or scalar
    arithmetic is involved, so the result is an independent check on
    ``to_element``.
    """
    return evaluate(node, lambda value, arity: Matrix._scalar(2 ** arity, *value.parts),
                    _symbol_matrix, _PSI)


@cache
def _symbol_matrix(letters: tuple[int, ...]) -> Matrix:
    """word_matrix of a symbol's letters, built once per process."""
    return word_matrix(letters)


def approx_equal(a: Matrix, b: Matrix) -> bool:
    """Whether two matrices of one shape are equal; shapes that differ raise."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"shapes differ: {a.dim} vs {b.dim}")
    return a == b
