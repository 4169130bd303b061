"""Exhaustive search for basic word triples at two sites.

A basic triple is three distinct nontrivial words that pairwise anticommute
and whose product is +/-i times the identity; equivalently, for some cyclic
ordering (A, B, C) they reproduce the single-letter pattern ``A*B = i*C``.
The search is exhaustive over pairs: every pair of words is asked whether it
anticommutes, and each anticommuting pair is completed by the word of its
product, the only word that can close it.  The published list of such sets
is transcribed verbatim as fixture data and the enumeration is diffed
against it, so any omission is documented as evidence rather than silently
corrected.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .pauli import PauliWord, commute_sign, mul_words

__all__ = [
    "BasicTriple",
    "DiffReport",
    "PAPER_BASIC_SETS",
    "build_incidence",
    "diff_with_paper_list",
    "enumerate_basic_triples",
    "nontrivial_words",
    "paper_sets_as_words",
]

# The published sets at two sites, in their original order.  The E20 row
# carries one fewer entry than the other rows and the two pure one-side sets
# are absent; the diff report is where that shows up.
PAPER_BASIC_SETS: tuple[tuple[tuple[int, int], ...], ...] = (
    ((0, 1), (1, 2), (1, 3)),
    ((0, 1), (2, 2), (2, 3)),
    ((0, 1), (3, 2), (3, 3)),
    ((0, 2), (1, 1), (1, 3)),
    ((0, 2), (2, 1), (2, 3)),
    ((0, 2), (3, 1), (3, 3)),
    ((0, 3), (1, 1), (1, 2)),
    ((0, 3), (2, 1), (2, 2)),
    ((0, 3), (3, 1), (3, 2)),
    ((1, 0), (2, 3), (3, 3)),
    ((1, 0), (2, 2), (3, 2)),
    ((1, 0), (2, 1), (3, 1)),
    ((2, 0), (1, 2), (3, 2)),
    ((2, 0), (1, 1), (3, 1)),
    ((3, 0), (1, 3), (2, 3)),
    ((3, 0), (1, 2), (2, 2)),
    ((3, 0), (1, 1), (2, 1)),
)


class BasicTriple(NamedTuple):
    """Three mutually anticommuting words closed under multiplication.

    ``members`` is lexicographically sorted; ``cyclic`` is the ordering
    (A, B, C) with ``A*B = +i*C``, starting from the smallest member.
    """

    members: tuple[PauliWord, PauliWord, PauliWord]
    cyclic: tuple[PauliWord, PauliWord, PauliWord]

    @property
    def names(self) -> tuple[str, str, str]:
        return tuple(w.name for w in self.members)

    def __str__(self) -> str:
        return "(" + ", ".join(self.names) + ")"


def nontrivial_words() -> list[PauliWord]:
    """The 15 non-identity two-site words, lexicographically ordered."""
    return [PauliWord(t) for t in itertools.product(range(4), repeat=2) if any(t)]


def enumerate_basic_triples() -> list[BasicTriple]:
    """Complete each anticommuting pair of nontrivial two-site words.

    A triple is accepted iff its members pairwise anticommute and their
    product is +/-i times the identity (the sign depends on the ordering, so
    neither is privileged).  :func:`~eprkit.pauli.commute_sign` is asked
    once per pair of words, 105 times.  ``mul_words(x, y)`` gives the
    identity word exactly when ``x == y``, so ``a*b*c`` can be a multiple of
    the identity only when ``c`` is the word of ``a*b``: each anticommuting
    pair ``a < b`` is completed by that word, kept when it sorts after ``b``
    (so each triple is met once, from its two smallest members) and passes
    the test above.  Output order is lexicographic on members, hence
    identical across runs.
    """
    pairs = [pair for pair in itertools.combinations(nontrivial_words(), 2)
             if commute_sign(*pair) == -1]
    anti = set(pairs)
    found = []
    for a, b in pairs:
        k1, c = mul_words(a, b)
        if c <= b or (a, c) not in anti or (b, c) not in anti:
            continue
        k2, w2 = mul_words(c, c)
        if not w2.is_identity or (k1 + k2) % 4 not in (1, 3):
            continue
        # a*b = i**k1 * c: the order is (a, b, c) when k1 is 1, else (b, a, c) read from a.
        cyclic = (a, b, c) if k1 == 1 else (a, c, b)
        found.append(BasicTriple(members=(a, b, c), cyclic=cyclic))
    return found


class DiffReport(NamedTuple):
    """Enumeration versus the published list.

    ``missing_from_paper`` holds triples the scan produced that the list
    omits; ``extra_in_paper`` holds listed sets the scan did not produce.
    """

    found_count: int
    missing_from_paper: tuple[BasicTriple, ...]
    extra_in_paper: tuple[tuple[PauliWord, PauliWord, PauliWord], ...]

    def to_dict(self) -> dict:
        return {
            "count": self.found_count,
            "missing_from_paper": [list(t.names) for t in self.missing_from_paper],
            "extra_in_paper": [[w.name for w in s] for s in self.extra_in_paper],
        }


def paper_sets_as_words() -> list[tuple[PauliWord, PauliWord, PauliWord]]:
    """The published sets with members sorted, as words."""
    return [tuple(sorted(map(PauliWord, s))) for s in PAPER_BASIC_SETS]


def diff_with_paper_list(found: list[BasicTriple]) -> DiffReport:
    """Diff the enumerated triples against the published list, :data:`PAPER_BASIC_SETS`."""
    listed = paper_sets_as_words()  # each set sorted, as a triple's members are
    listed_sets = set(listed)
    found_sets = {t.members: t for t in found}
    missing = tuple(found_sets[m] for m in sorted(found_sets) if m not in listed_sets)
    extra = tuple(s for s in sorted(listed) if s not in found_sets)
    return DiffReport(found_count=len(found),
                      missing_from_paper=missing,
                      extra_in_paper=extra)


def build_incidence(found: list[BasicTriple]) -> dict[PauliWord, tuple[BasicTriple, ...]]:
    """Map each nontrivial word to the triples containing it, in the order found."""
    incidence = {w: [] for w in nontrivial_words()}
    for t in found:
        for w in t.members:
            incidence[w].append(t)
    return {w: tuple(ts) for w, ts in incidence.items()}
