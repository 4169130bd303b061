"""Phase-exact products of Pauli words.

A word is a fixed-length string of site letters from ``{1, e1, e2, e3}``,
encoded by the digits 0..3.  Letters square to 1, distinct nonzero letters
anticommute, and the orientation is fixed by ``e1*e2 = i*e3`` together with
its cyclic images; every other product is derived from these rules, never
written out separately.  The product of two words is derived from
:func:`compose_letters` site by site, with the accumulated power of i kept as
an exact exponent mod 4, the first time that pair of words is multiplied; it
is stored in a table and read from there after that.  The table holds one-
and two-site pairs only, the arities the grammar reaches, so it never grows
past 16 + 256 entries.  Identity checks downstream never touch floating point.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "ArityMismatchError",
    "PREFIXES",
    "PauliWord",
    "SCALAR_ARITY",
    "commute_sign",
    "compose_letters",
    "mul_words",
]


class ArityMismatchError(ValueError):
    """Two words or elements over different numbers of sites were combined."""


# The grammar's word names, written only here: a prefix for the sites, then a
# digit per site (E00..E33, e0..e3).  A word at any other arity has no name,
# and a text that names no word has SCALAR_ARITY sites.
PREFIXES = {"E": 2, "e": 1}
SCALAR_ARITY = 2
_PREFIX_OF = {sites: prefix for prefix, sites in PREFIXES.items()}

# Orientation of the letter algebra: e1*e2 = i*e3 and cyclic images.
# Reversed pairs pick up -i via anticommutation.
_CYCLE = {(1, 2): 3, (2, 3): 1, (3, 1): 2}


def compose_letters(a: int, b: int) -> tuple[int, int]:
    """Multiply two site letters exactly.

    Returns ``(k, c)`` such that ``a*b = i**k * c``.  The identity letter 0
    absorbs, equal letters square to the identity, and distinct nonzero
    letters produce the third letter with phase +i along the cyclic
    orientation and -i against it.  Letters are ints; ``True`` and ``1.0``
    equal 1 but are refused.
    """
    if type(a) is not int or type(b) is not int or not (0 <= a <= 3 and 0 <= b <= 3):
        raise ValueError(f"site letters must be ints 0..3, got ({a!r}, {b!r})")
    if a == 0:
        return 0, b
    if b == 0:
        return 0, a
    if a == b:
        return 0, 0
    if (a, b) in _CYCLE:
        return 1, _CYCLE[a, b]
    return 3, _CYCLE[b, a]


class PauliWord(tuple):
    """Immutable word of site letters; the all-zero word is the unit.

    A word is its tuple of letters, checked once when it is built, so it
    compares, hashes and sorts as that tuple.  A letter is an ``int`` 0..3:
    ``True`` or ``1.0`` would compare equal to 1 yet print as another name.
    The lexicographic order is the canonical order used wherever output must
    be deterministic.
    """

    __slots__ = ()

    def __new__(cls, letters: Iterable[int]) -> "PauliWord":
        word = super().__new__(cls, letters)
        if not word:
            raise ValueError("a word needs at least one site")
        for x in word:
            if type(x) is not int or not 0 <= x <= 3:
                raise ValueError(f"site letters must be ints 0..3, got {x!r}")
        return word

    @classmethod
    def identity(cls, arity: int) -> "PauliWord":
        """The unit word; the one- and two-site units are built once and shared."""
        if 1 <= arity <= 2:
            return _UNIT_WORDS[arity - 1]
        return cls((0,) * arity)

    @property
    def arity(self) -> int:
        return len(self)

    @property
    def is_identity(self) -> bool:
        return not any(self)

    def __str__(self) -> str:
        """The word's name in the expression grammar, which reads back as this word."""
        prefix = _PREFIX_OF.get(len(self))
        if prefix is None:
            raise ValueError(f"the grammar names no word of {len(self)} sites")
        return prefix + "".join(map(str, self))

    name = property(__str__)

    def __repr__(self) -> str:
        return f"PauliWord({tuple(self)!r})"


# The units identity() shares: one and two sites, the arities _PRODUCTS holds.
_UNIT_WORDS = (PauliWord((0,)), PauliWord((0, 0)))

# (a, b) -> (k, word) with a*b = i**k * word, filled by mul_words from
# compose_letters; keyed only by validated PauliWords of at most two sites.
_PRODUCTS: dict[tuple[PauliWord, PauliWord], tuple[int, PauliWord]] = {}


def mul_words(a: PauliWord, b: PauliWord) -> tuple[int, PauliWord]:
    """Site-wise product, returned as ``(k, word)`` with ``a*b = i**k * word``.

    A pair of one- or two-site :class:`PauliWord` s is folded through
    :func:`compose_letters` once and then read from the product table.  Any
    other pair is folded afresh; a plain sequence is never answered from the
    table, so its letters are always checked: ``(True, 2)`` equals
    ``PauliWord((1, 2))`` as a key.
    """
    words = type(a) is PauliWord and type(b) is PauliWord
    if words:
        product = _PRODUCTS.get((a, b))
        if product is not None:
            return product
    if len(a) != len(b):
        raise ArityMismatchError(f"arities differ: {len(a)} vs {len(b)}")
    k = 0
    out = []
    for x, y in zip(a, b):
        ph, c = compose_letters(x, y)
        k += ph
        out.append(c)
    product = k % 4, PauliWord(out)
    if words and len(out) <= 2:
        _PRODUCTS[a, b] = product
    return product


def commute_sign(a: PauliWord, b: PauliWord) -> int:
    """+1 when ``a*b = b*a``, -1 when the words anticommute.

    Read from the two products: the words commute exactly when ``a*b`` and
    ``b*a`` carry the same phase.  This equals ``(-1)**m`` where m counts
    sites holding distinct nonzero letters.
    """
    return 1 if mul_words(a, b)[0] == mul_words(b, a)[0] else -1
