"""Exact linear combinations of Pauli words over Gaussian rationals.

Every identity the suite decides reduces to "is this element zero?", so no
floating arithmetic ever enters this module.  An element stores
Gaussian-integer numerators ``(re, im)`` per word over one positive
denominator shared by all its terms, and keeps one invariant: no stored pair
is ``(0, 0)``, so an element is zero exactly when it stores no term.  A sum
is taken over the lcm of the two denominators and a product over their
product; a pair that cancels is dropped where it arises, and no result is
reduced to lowest terms but a product whose denominator passes 64 bits.
Equality compares values across denominators.  Words carry no order; they
are listed in lexicographic order wherever terms are read.  An element is
built from words and then arithmetic.  :class:`Scalar` is the public
single-value type, stored like one term: a Gaussian-integer pair over a
positive denominator, in lowest terms.  Its arithmetic is integer arithmetic
with one gcd per result, and coefficients are built as scalars, reduced,
when read.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from fractions import Fraction
from math import gcd, lcm
from typing import Union

from .pauli import SCALAR_ARITY, ArityMismatchError, PauliWord, mul_words

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
    """A finite linear combination of equal-length words.

    Stored as Gaussian-integer numerators ``(re, im)`` per word over one
    positive denominator shared by the whole element.  No stored pair is
    ``(0, 0)``, so two equal elements store the same words; the denominator
    is whatever the arithmetic built, and equality compares values across
    denominators.  :attr:`terms` lists the words in lexicographic order,
    each coefficient in lowest terms.

    An element is built from words (:meth:`from_word`, :meth:`scalar`,
    :meth:`one`, :meth:`zero`, :func:`E`, :func:`e`) and then arithmetic.
    Arithmetic accepts plain ints, Fractions and scalars wherever a scalar
    makes sense: a product or quotient scales the numerators by it, and a sum
    or difference adds it as that multiple of the identity word.
    """

    __slots__ = ("_arity", "_den", "_num")

    @classmethod
    def _new(cls, arity: int, den: int, num: dict[PauliWord, tuple[int, int]]) -> "Element":
        """An element from parts that store no ``(0, 0)`` pair."""
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
        term as they are.
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
        if word.arity != self._arity:
            raise ArityMismatchError(f"arities differ: {self._arity} vs {word.arity}")
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
        """The sum over the lcm of the two denominators; a cancelled pair is dropped."""
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
        for w, (re, im) in o._num.items():
            re, im = re * fb, im * fb
            old = get(w)
            if old is None:
                acc[w] = (re, im)
            else:
                re, im = old[0] + re, old[1] + im
                if re or im:
                    acc[w] = (re, im)
                else:
                    del acc[w]
        return Element._new(self._arity, self._den * fa, acc)

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
            # A scalar scales every numerator and multiplies no word.  Gaussian
            # integers have no zero divisors, so no pair becomes (0, 0).
            s = other if type(other) is Scalar else Scalar._coerce(other)
            if s is None:
                return NotImplemented
            sr, si = s._re, s._im
            if not (sr or si):
                return Element._new(self._arity, 1, {})
            den = self._den * s._den
            num = {w: (ar * sr - ai * si, ar * si + ai * sr) for w, (ar, ai) in self._num.items()}
        elif other._arity != self._arity:
            raise ArityMismatchError(f"arities differ: {self._arity} vs {other._arity}")
        elif len(self._num) == 1 == len(other._num):
            # One word product: two nonzero Gaussian integers give a nonzero pair.
            den = self._den * other._den
            [(wa, (ar, ai))], [(wb, (br, bi))] = self._num.items(), other._num.items()
            k, w = mul_words(wa, wb)
            re, im = ar * br - ai * bi, ar * bi + ai * br
            if k:
                re, im = (-im, re) if k == 1 else (-re, -im) if k == 2 else (im, -re)
            num = {w: (re, im)}
        else:
            den = self._den * other._den
            num = {}
            get = num.get
            right = other._num.items()
            for wa, (ar, ai) in self._num.items():
                for wb, (br, bi) in right:
                    k, w = mul_words(wa, wb)
                    re, im = ar * br - ai * bi, ar * bi + ai * br
                    if k:  # times i**k
                        re, im = (-im, re) if k == 1 else (-re, -im) if k == 2 else (im, -re)
                    old = get(w)
                    if old is None:
                        num[w] = (re, im)
                    else:
                        re, im = old[0] + re, old[1] + im
                        if re or im:
                            num[w] = (re, im)
                        else:
                            del num[w]
        if den >> 64:  # a long product: divide out the gcd, so its size stays bounded
            g = gcd(den, *(part for pair in num.values() for part in pair))
            den //= g
            for w, (re, im) in num.items():  # in place: a comprehension makes g a cell
                num[w] = (re // g, im // g)
        return Element._new(self._arity, den, num)

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
        if not isinstance(other, Element):
            s = Scalar._coerce(other)
            if s is None:
                return NotImplemented
            other = Element.scalar(s, self._arity)
        if self._arity != other._arity:
            return False
        da, db = self._den, other._den
        if da == db:
            return self._num == other._num
        # a/da == b/db exactly when a*db == b*da, part by part.
        b = other._num
        if self._num.keys() != b.keys():
            return False
        for w, (re, im) in self._num.items():
            b_re, b_im = b[w]
            if re * db != b_re * da or im * db != b_im * da:
                return False
        return True

    def __hash__(self) -> int:
        if self._num.keys() <= {PauliWord.identity(self._arity)}:
            return hash(self.trace_normalized())  # equal to its scalar, so hash alike
        # Equal elements differ at most by a common factor: hash the reduced parts.
        g = gcd(self._den, *(x for pair in self._num.values() for x in pair))
        return hash((self._arity, self._den // g,
                     frozenset((w, (re // g, im // g)) for w, (re, im) in self._num.items())))

    def trace_normalized(self) -> Scalar:
        """Coefficient of the identity word, i.e. trace divided by 2**arity."""
        return self.coefficient(PauliWord.identity(self._arity))

    def __str__(self) -> str:
        terms = self.terms.items() if self._num else [(PauliWord.identity(self._arity), ZERO)]
        first, *rest = [_format_term(w, c) for w, c in terms]
        return first + "".join(f" - {p[1:]}" if p[0] == "-" else f" + {p}" for p in rest)

    def __repr__(self) -> str:
        return f"<Element {self}>"


class _Terms(Mapping):
    """Read-only word -> Scalar view in word order; each coefficient is reduced when read."""

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

    The identity term is a bare scalar at the scalar arity alone; at any
    other it is named, so that the printed element keeps its arity.
    """
    c = str(coeff)
    den, re, im = coeff._den, coeff._re, coeff._im
    compound = re and im
    if word.is_identity and word.arity == SCALAR_ARITY:
        return f"({c})" if compound else c
    name = word.name
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
