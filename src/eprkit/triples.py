"""Exhaustive search for basic word triples at two sites.

A basic triple is three distinct nontrivial words that pairwise anticommute
and whose product is +/-i times the identity; equivalently, for some cyclic
ordering (A, B, C) they reproduce the single-letter pattern ``A*B = i*C``.
The published list of such sets is transcribed verbatim as fixture data and
the enumeration is diffed against it, so any omission is documented as
evidence rather than silently corrected.
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


def _cyclic_order(members):
    a, b, c = members
    return (a, b, c) if mul_words(a, b)[0] == 1 else (a, c, b)


def enumerate_basic_triples() -> list[BasicTriple]:
    """Scan all unordered triples of nontrivial two-site words.

    A triple is accepted iff its members pairwise anticommute and their
    product is +/-i times the identity (the sign depends on the ordering, so
    neither is privileged).  :func:`~eprkit.pauli.commute_sign` is asked
    once per pair of words, 105 times, before the 455 triples are scanned
    against the anticommuting pairs.  Output order is lexicographic on
    members, hence identical across runs.
    """
    words = nontrivial_words()
    anti = {pair for pair in itertools.combinations(words, 2) if commute_sign(*pair) == -1}
    found = []
    for combo in itertools.combinations(words, 3):
        a, b, c = combo
        if (a, b) not in anti or (a, c) not in anti or (b, c) not in anti:
            continue
        k1, w1 = mul_words(a, b)
        k2, w2 = mul_words(w1, c)
        if not w2.is_identity or (k1 + k2) % 4 not in (1, 3):
            continue
        found.append(BasicTriple(members=combo, cyclic=_cyclic_order(combo)))
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
    return [tuple(sorted(PauliWord(p) for p in s)) for s in PAPER_BASIC_SETS]


def diff_with_paper_list(found: list[BasicTriple]) -> DiffReport:
    """Diff the enumerated triples against the published list, :data:`PAPER_BASIC_SETS`."""
    listed = paper_sets_as_words()
    listed_keys = {frozenset(s) for s in listed}
    found_sets = {frozenset(t.members): t for t in found}
    missing = tuple(t for key, t in sorted(
        found_sets.items(), key=lambda kv: kv[1].members)
        if key not in listed_keys)
    extra = tuple(s for s in sorted(listed)
                  if frozenset(s) not in found_sets)
    return DiffReport(found_count=len(found),
                      missing_from_paper=missing,
                      extra_in_paper=extra)


def build_incidence(found: list[BasicTriple]) -> dict[PauliWord, tuple[BasicTriple, ...]]:
    """Map each nontrivial word to the triples containing it."""
    return {w: tuple(t for t in found if w in t.members)
            for w in nontrivial_words()}
