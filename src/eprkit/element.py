"""Exact linear combinations of Pauli words over Gaussian rationals.

Every identity the suite decides reduces to "is this element literally
zero?", so no floating arithmetic ever enters this module.  An element
stores Gaussian-integer numerators ``(re, im)`` per word over one positive
denominator shared by all its terms, and is kept in canonical form (no zero
terms, and no factor common to the denominator and every numerator), which
makes equality plain structural equality.  The gcd pass runs only where a
sum has a word on both sides or a product has several terms.  Leaves,
products with a unit factor and sums of distinct words cannot reduce and are
stored as built; a one-word product takes the gcd of its single pair, and
a scalar operand of a product scales the numerators with one gcd and
multiplies no words.
Words carry no order; they are listed in lexicographic order wherever terms
are read.  An element is built from words and then arithmetic.
:class:`Scalar` is the public single-value type, stored like one term: a
Gaussian-integer pair over a positive denominator, in lowest terms.  Its
arithmetic is integer arithmetic with one gcd per result, and coefficients
are built as scalars when read.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from fractions import Fraction
from math import gcd, lcm
from typing import Union

from .pauli import ArityMismatchError, PauliWord, mul_words

__all__ = [
    "E",
    "Element",
    "IM",
    "ONE",
    "PrintLimitError",
    "Scalar",
    "ZERO",
    "e",
]

RationalLike = Union[int, Fraction, str]


class PrintLimitError(ValueError):
    """A coefficient has more digits than the interpreter turns into text."""


def _text(n: int, d: int) -> str:
    """The rational ``n/d`` (``d > 0``) in lowest terms, as its grammar literal."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:  # past sys.get_int_max_str_digits()
        m = max(abs(n), d)
        digits = max(1, int(m.bit_length() * 0.30102999566398120) - 1)
        while 10 ** digits <= m:
            digits += 1
        raise PrintLimitError(
            f"a coefficient of {digits} digits is too long to print") from None


class Scalar:
    """A complex number with exact rational real and imaginary parts.

    Stored like one term of an :class:`Element`: Gaussian-integer parts over
    a positive denominator, ``(re + i*im)/den``, with no factor common to all
    three, so equal scalars have equal parts.  Instances are treated as
    immutable values; all arithmetic returns new scalars, with one gcd taken
    per result.  Division is exact and total away from zero.  Parts given to
    the constructor are ints, Fractions or strings; a float is refused, since
    its binary rounding would enter silently.
    """

    __slots__ = ("_den", "_re", "_im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError(f"scalar parts must be exact, got ({re!r}, {im!r})")
        r, i = Fraction(re), Fraction(im)
        # The lcm of two reduced denominators shares no factor with both numerators.
        den = lcm(r.denominator, i.denominator)
        self._den = den
        self._re = r.numerator * (den // r.denominator)
        self._im = i.numerator * (den // i.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, self._den)

    @property
    def parts(self) -> tuple[int, int, int]:
        """``(den, re, im)`` with the scalar ``(re + i*im)/den``, in lowest terms."""
        return self._den, self._re, self._im

    @staticmethod
    def _coerce(value: object) -> "Scalar | None":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, int):
            return _scalar(1, int(value), 0)
        if isinstance(value, Fraction):
            return Scalar(value)
        return None

    def __add__(self, other: object) -> "Scalar":
        o = other if type(other) is Scalar else Scalar._coerce(other)
        if o is None:
            return NotImplemented
        g = gcd(self._den, o._den)
        fa, fb = o._den // g, self._den // g  # bring both to the lcm
        return _scalar(self._den * fa, self._re * fa + o._re * fb, self._im * fa + o._im * fb)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Scalar":
        o = other if type(other) is Scalar else Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "Scalar":
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> "Scalar":
        o = other if type(other) is Scalar else Scalar._coerce(other)
        if o is None:
            return NotImplemented
        ar, ai, br, bi = self._re, self._im, o._re, o._im
        return _scalar(self._den * o._den, ar * br - ai * bi, ar * bi + ai * br)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Scalar":
        o = other if type(other) is Scalar else Scalar._coerce(other)
        if o is None:
            return NotImplemented
        br, bi = o._re, o._im
        norm = br * br + bi * bi
        if not norm:
            raise ZeroDivisionError("scalar division by zero")
        # (a/d) / (b/e) = a * conj(b) * e / (d * |b|**2)
        ar, ai = self._re * o._den, self._im * o._den
        return _scalar(self._den * norm, ar * br + ai * bi, ai * br - ar * bi)

    def __rtruediv__(self, other: object) -> "Scalar":
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self) -> "Scalar":
        return _scalar(self._den, -self._re, -self._im)

    def __eq__(self, other: object) -> bool:
        o = other if type(other) is Scalar else Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return self._re == o._re and self._im == o._im and self._den == o._den

    def __hash__(self) -> int:
        # Equal to the int or Fraction it equals when real, so it hashes alike.
        if self._im:
            return hash((self._den, self._re, self._im))
        return hash(Fraction(self._re, self._den))

    def __bool__(self) -> bool:
        return bool(self._re or self._im)

    def __str__(self) -> str:
        den, re, im = self._den, self._re, self._im
        if not im:
            return _text(re, den)
        if im == den:
            im_text = "i"
        elif im == -den:
            im_text = "-i"
        else:
            im_text = f"{_text(im, den)}*i"
        if not re:
            return im_text
        sign = "+" if im > 0 else "-"
        return f"{_text(re, den)}{sign}{im_text.lstrip('-')}"

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"


def _scalar(den: int, re: int, im: int) -> Scalar:
    """The scalar ``(re + i*im)/den`` for ``den > 0``, one gcd taken out."""
    if den != 1:
        g = gcd(den, re, im)
        if g != 1:
            den, re, im = den // g, re // g, im // g
    s = object.__new__(Scalar)
    s._den, s._re, s._im = den, re, im
    return s


ZERO = Scalar(0)
ONE = Scalar(1)
IM = Scalar(0, 1)


class Element:
    """A finite linear combination of equal-length words in canonical form.

    Stored as Gaussian-integer numerators ``(re, im)`` per word over one
    positive denominator shared by the whole element.  No stored pair is
    ``(0, 0)`` and the denominator and all numerators have no common factor,
    so two elements are equal exactly when their arity, denominator and
    numerators are.  :attr:`terms` lists the words in lexicographic order.

    An element is built from words (:meth:`from_word`, :meth:`scalar`,
    :meth:`one`, :meth:`zero`, :func:`E`, :func:`e`) and then arithmetic.
    Arithmetic accepts plain ints, Fractions and scalars wherever a scalar
    makes sense: a product or quotient scales the numerators by it, and a sum
    or difference adds it as that multiple of the identity word.
    """

    __slots__ = ("_arity", "_den", "_num")

    @classmethod
    def _new(cls, arity: int, den: int, num: dict[PauliWord, tuple[int, int]]) -> "Element":
        """An element from parts already in canonical form."""
        el = object.__new__(cls)
        el._arity, el._den, el._num = arity, den, num
        return el

    @classmethod
    def zero(cls, arity: int) -> "Element":
        if arity < 1:
            raise ValueError("arity must be at least 1")
        return cls._new(arity, 1, {})

    @classmethod
    def one(cls, arity: int) -> "Element":
        return cls.from_word(PauliWord.identity(arity))

    @classmethod
    def scalar(cls, value: object, arity: int) -> "Element":
        """``value`` times the identity word at ``arity`` sites, built by :meth:`from_word`."""
        return cls.from_word(PauliWord.identity(arity), value)

    @classmethod
    def from_word(cls, word: PauliWord, coeff: object = ONE) -> "Element":
        """The one-term element ``coeff*word``; a zero ``coeff`` gives zero.

        Every element but zero starts here and grows by arithmetic.  A
        scalar is stored as one term already is, so its parts become the
        term as they are: no gcd pass.
        """
        s = coeff if type(coeff) is Scalar else Scalar._coerce(coeff)
        if s is None:
            raise TypeError(f"coefficient {coeff!r} is not scalar-like")
        if not (s._re or s._im):
            return cls._new(word.arity, 1, {})
        return cls._new(word.arity, s._den, {word: (s._re, s._im)})

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def terms(self) -> Mapping[PauliWord, Scalar]:
        return _Terms(self._den, self._num)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, word: PauliWord) -> Scalar:
        return self.terms.get(word, ZERO)

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
        """The sum over the lcm of the two denominators.

        Only a word met on both sides can cancel or leave a common factor
        (Henrici's rule for adding fractions), so a sum of distinct words is
        stored as built and the gcd pass runs only after a collision.
        """
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        g = gcd(self._den, o._den)
        fa, fb = o._den // g, self._den // g  # bring both to the lcm
        if fa == 1:
            acc = dict(self._num)
        else:
            acc = {w: (re * fa, im * fa) for w, (re, im) in self._num.items()}
        get = acc.get
        summed = False
        for w, (re, im) in o._num.items():
            old = get(w)
            if old is None:
                acc[w] = (re * fb, im * fb)
            else:
                acc[w] = (old[0] + re * fb, old[1] + im * fb)
                summed = True
        if not summed:
            # No word met on both sides: nothing cancels, and since each side
            # was reduced, every prime of the lcm misses some scaled numerator.
            return Element._new(self._arity, self._den * fa, acc)
        return Element._new(self._arity, *_canonical(self._den * fa, acc))

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
        return Element._new(self._arity, self._den,
                            {w: (-re, -im) for w, (re, im) in self._num.items()})

    def __mul__(self, other: object) -> "Element":
        if not isinstance(other, Element):
            # A scalar scales every numerator: one gcd and no word product.
            # Gaussian integers have no zero divisors, so no pair becomes (0, 0).
            s = other if type(other) is Scalar else Scalar._coerce(other)
            if s is None:
                return NotImplemented
            sr, si = s._re, s._im
            if not (sr or si):
                return Element._new(self._arity, 1, {})
            num = {w: (ar * sr - ai * si, ar * si + ai * sr)
                   for w, (ar, ai) in self._num.items()}
            den = self._den * s._den
            if den != 1:
                g = gcd(den, *(x for pair in num.values() for x in pair))
                if g != 1:
                    den, num = den // g, {w: (re // g, im // g) for w, (re, im) in num.items()}
            return Element._new(self._arity, den, num)
        if other._arity != self._arity:
            raise ArityMismatchError(f"arities differ: {self._arity} vs {other._arity}")
        den = self._den * other._den
        if len(self._num) == 1 == len(other._num):
            # One word product.  Two nonzero Gaussian integers give a nonzero
            # pair, and over denominator 1 no gcd comes out: it is canonical.
            [(wa, (ar, ai))], [(wb, (br, bi))] = self._num.items(), other._num.items()
            k, w = mul_words(wa, wb)
            re, im = ar * br - ai * bi, ar * bi + ai * br
            if k:
                re, im = (-im, re) if k == 1 else (-re, -im) if k == 2 else (im, -re)
            if den == 1:
                return Element._new(self._arity, 1, {w: (re, im)})
            g = gcd(den, re, im)
            if g != 1:
                den, re, im = den // g, re // g, im // g
            return Element._new(self._arity, den, {w: (re, im)})
        acc: dict[PauliWord, tuple[int, int]] = {}
        get = acc.get
        right = other._num.items()
        for wa, (ar, ai) in self._num.items():
            for wb, (br, bi) in right:
                k, w = mul_words(wa, wb)
                re, im = ar * br - ai * bi, ar * bi + ai * br
                if k:  # times i**k
                    re, im = (-im, re) if k == 1 else (-re, -im) if k == 2 else (im, -re)
                old = get(w)
                acc[w] = (re, im) if old is None else (old[0] + re, old[1] + im)
        if ((self._den, *self._num.values()) in _UNITS
                or (other._den, *other._num.values()) in _UNITS):
            return Element._new(self._arity, den, acc)
        return Element._new(self._arity, *_canonical(den, acc))

    def __rmul__(self, other: object) -> "Element":
        # Only a scalar reaches this, and a scalar commutes with every element,
        # so it scales the numerators as on the right.  Looked up by name, so
        # that a wrapper of __mul__ (perfbench's tracer) sees a scalar on the
        # left as well.
        return self.__mul__(other)

    def __truediv__(self, other: object) -> "Element":
        s = Scalar._coerce(other)
        if s is None:
            return NotImplemented
        if not s:
            raise ZeroDivisionError("element division by zero scalar")
        return self * (ONE / s)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Element):
            return (self._arity == other._arity and self._den == other._den
                    and self._num == other._num)
        s = Scalar._coerce(other)
        if s is None:
            return NotImplemented
        return self == Element.scalar(s, self._arity)

    def __hash__(self) -> int:
        if self._num.keys() <= {PauliWord.identity(self._arity)}:
            return hash(self.trace_normalized())  # equal to its scalar, so hash alike
        return hash((self._arity, self._den, frozenset(self._num.items())))

    def trace_normalized(self) -> Scalar:
        """Coefficient of the identity word, i.e. trace divided by 2**arity."""
        return self.coefficient(PauliWord.identity(self._arity))

    def __str__(self) -> str:
        if not self._num:
            return "0*e0" if self._arity == 1 else "0"
        parts = [_format_term(w, c) for w, c in self.terms.items()]
        text = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                text += " - " + p[1:]
            else:
                text += " + " + p
        return text

    def __repr__(self) -> str:
        return f"<Element {self}>"


# ``(den, pair)`` of a unit ``i**u * word``.  A product with a unit maps words
# one to one and leaves every gcd as it was, so it is already canonical.
_UNITS = {(1, (1, 0)), (1, (0, 1)), (1, (-1, 0)), (1, (0, -1))}


def _canonical(den: int, num: dict[PauliWord, tuple[int, int]]
               ) -> tuple[int, dict[PauliWord, tuple[int, int]]]:
    """Zero pairs pruned and one gcd taken out of everything; words keep no order.

    Run only on results that can reduce: a sum with a word on both sides, or
    a product of several terms with no unit factor.
    """
    num = {w: pair for w, pair in num.items() if pair != (0, 0)}
    g = gcd(den, *(x for pair in num.values() for x in pair))
    if g == 1:
        return den, num
    return den // g, {w: (re // g, im // g) for w, (re, im) in num.items()}


class _Terms(Mapping):
    """Read-only word -> Scalar view in word order; coefficients are built when read."""

    __slots__ = ("_den", "_num")

    def __init__(self, den: int, num: dict[PauliWord, tuple[int, int]]):
        self._den, self._num = den, num

    def __getitem__(self, word: PauliWord) -> Scalar:
        re, im = self._num[word]
        return _scalar(self._den, re, im)

    def __contains__(self, word: object) -> bool:
        return word in self._num

    def __iter__(self) -> Iterator[PauliWord]:
        return iter(sorted(self._num))

    def __len__(self) -> int:
        return len(self._num)


def _format_term(word: PauliWord, coeff: Scalar) -> str:
    """One term in the expression grammar, so printed elements re-parse.

    The identity term is a bare scalar, except at one site, where it names
    ``e0`` so that the printed element keeps its arity.
    """
    c = str(coeff)
    den, re, im = coeff._den, coeff._re, coeff._im
    compound = re and im
    if word.is_identity and word.arity != 1:
        return f"({c})" if compound else c
    name = "e0" if word.is_identity else word.name
    if den == 1 and not im and re in (1, -1):
        return name if re == 1 else f"-{name}"
    if compound:
        return f"({c})*{name}"
    return f"{c}*{name}"


def E(i: int, j: int) -> Element:
    """The two-site basis word E<ij> as an element."""
    return Element.from_word(PauliWord((i, j)))


def e(k: int) -> Element:
    """The single-site letter e<k> as an element; ``e(0)`` is the identity."""
    return Element.from_word(PauliWord((k,)))
