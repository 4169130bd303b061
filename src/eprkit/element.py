"""Exact linear combinations of Pauli words over Gaussian rationals.

Every identity the suite decides reduces to "is this element literally
zero?", so coefficients are pairs of :class:`fractions.Fraction` values and
no floating arithmetic ever enters this module.  Elements are kept in
canonical form (zero terms pruned, words stored in lexicographic order),
which makes equality plain structural equality.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Union

from .pauli import PauliWord, mul_words

__all__ = [
    "ArityMismatchError",
    "E",
    "Element",
    "IM",
    "ONE",
    "PHASES",
    "Scalar",
    "ZERO",
    "e",
]

RationalLike = Union[int, Fraction, str]


class ArityMismatchError(ValueError):
    """Two elements over different word lengths were combined."""


class Scalar:
    """A complex number with exact rational real and imaginary parts.

    Instances are treated as immutable values; all arithmetic returns new
    scalars.  Division is exact and total away from zero.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _coerce(value: object) -> "Scalar | None":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        return None

    def __add__(self, other: object) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: object) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.re * o.re + o.im * o.im
        if norm == 0:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar((self.re * o.re + self.im * o.im) / norm,
                      (self.im * o.re - self.re * o.im) / norm)

    def __rtruediv__(self, other: object) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self) -> int:
        # Equal to the int or Fraction it equals when real, so it hashes alike.
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __complex__(self) -> complex:
        return float(self.re) + 1j * float(self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            im = "i"
        elif self.im == -1:
            im = "-i"
        else:
            im = f"{self.im}*i"
        if self.re == 0:
            return im
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{im.lstrip('-')}"

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"


ZERO = Scalar(0)
ONE = Scalar(1)
IM = Scalar(0, 1)

# i**k for k = 0..3; used to fold word-product phases into coefficients.
PHASES = (ONE, IM, Scalar(-1), Scalar(0, -1))


class Element:
    """A finite linear combination of equal-length words in canonical form.

    The term map never stores a zero coefficient and all words share one
    arity, so two elements are equal exactly when their term maps are.
    Arithmetic accepts plain ints and Fractions wherever a scalar makes
    sense; a bare scalar stands for that multiple of the identity word.
    """

    __slots__ = ("_terms", "_arity")

    def __init__(self, arity: int, terms: Mapping[PauliWord, object] | None = None):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        clean: dict[PauliWord, Scalar] = {}
        for w, c in (terms or {}).items():
            if w.arity != arity:
                raise ArityMismatchError(
                    f"word {w!r} has arity {w.arity}, element has arity {arity}")
            s = Scalar._coerce(c)
            if s is None:
                raise TypeError(f"coefficient {c!r} is not scalar-like")
            if s:
                clean[w] = s
        self._arity = arity
        self._terms = {w: clean[w] for w in sorted(clean)}

    @classmethod
    def zero(cls, arity: int) -> "Element":
        return cls(arity)

    @classmethod
    def one(cls, arity: int) -> "Element":
        return cls(arity, {PauliWord.identity(arity): ONE})

    @classmethod
    def scalar(cls, value: object, arity: int) -> "Element":
        return cls(arity, {PauliWord.identity(arity): value})

    @classmethod
    def from_word(cls, word: PauliWord, coeff: object = ONE) -> "Element":
        return cls(word.arity, {word: coeff})

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def terms(self) -> Mapping[PauliWord, Scalar]:
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, word: PauliWord) -> Scalar:
        return self._terms.get(word, ZERO)

    def _coerce_operand(self, other: object) -> "Element | None":
        if isinstance(other, Element):
            if other._arity != self._arity:
                raise ArityMismatchError(
                    f"arities differ: {self._arity} vs {other._arity}")
            return other
        s = Scalar._coerce(other)
        if s is None:
            return None
        return Element.scalar(s, self._arity)

    def __add__(self, other: object) -> "Element":
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        acc = dict(self._terms)
        for w, c in o._terms.items():
            acc[w] = acc.get(w, ZERO) + c
        return Element(self._arity, acc)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Element":
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "Element":
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "Element":
        return Element(self._arity, {w: -c for w, c in self._terms.items()})

    def __mul__(self, other: object) -> "Element":
        if isinstance(other, Element):
            if other._arity != self._arity:
                raise ArityMismatchError(
                    f"arities differ: {self._arity} vs {other._arity}")
            acc: dict[PauliWord, Scalar] = {}
            for wa, ca in self._terms.items():
                for wb, cb in other._terms.items():
                    k, w = mul_words(wa, wb)
                    acc[w] = acc.get(w, ZERO) + ca * cb * PHASES[k]
            return Element(self._arity, acc)
        s = Scalar._coerce(other)
        if s is None:
            return NotImplemented
        return Element(self._arity, {w: c * s for w, c in self._terms.items()})

    def __rmul__(self, other: object) -> "Element":
        # Scalars commute with everything, so this only handles scalar-likes.
        s = Scalar._coerce(other)
        if s is None:
            return NotImplemented
        return self * s

    def __truediv__(self, other: object) -> "Element":
        s = Scalar._coerce(other)
        if s is None:
            return NotImplemented
        if not s:
            raise ZeroDivisionError("element division by zero scalar")
        return Element(self._arity, {w: c / s for w, c in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Element):
            return self._arity == other._arity and self._terms == other._terms
        s = Scalar._coerce(other)
        if s is None:
            return NotImplemented
        return self == Element.scalar(s, self._arity)

    def __hash__(self) -> int:
        if self._terms.keys() <= {PauliWord.identity(self._arity)}:
            return hash(self.trace_normalized())  # equal to its scalar, so hash alike
        return hash((self._arity, tuple(self._terms.items())))

    def adjoint(self) -> "Element":
        """Hermitian conjugate: words are self-adjoint, coefficients conjugate."""
        return Element(self._arity, {w: c.conjugate() for w, c in self._terms.items()})

    def trace_normalized(self) -> Scalar:
        """Coefficient of the identity word, i.e. trace divided by 2**arity."""
        return self.coefficient(PauliWord.identity(self._arity))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for w, c in self._terms.items():
            parts.append(_format_term(w, c))
        text = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                text += " - " + p[1:]
            else:
                text += " + " + p
        return text

    def __repr__(self) -> str:
        return f"<Element {self}>"


def _format_term(word: PauliWord, coeff: Scalar) -> str:
    """One term in the expression grammar, so printed elements re-parse."""
    c = str(coeff)
    compound = coeff.re != 0 and coeff.im != 0
    if word.is_identity:
        return f"({c})" if compound else c
    if coeff == ONE:
        return word.name
    if coeff == -ONE:
        return f"-{word.name}"
    if compound:
        return f"({c})*{word.name}"
    return f"{c}*{word.name}"


def E(i: int, j: int) -> Element:
    """The two-site basis word E<ij> as an element."""
    return Element.from_word(PauliWord((i, j)))


def e(k: int) -> Element:
    """The single-site letter e<k> as an element."""
    if k not in (1, 2, 3):
        raise ValueError(f"letter index must be 1..3, got {k!r}")
    return Element.from_word(PauliWord((k,)))
