"""Enumeration of the basic sets, pinned against a matrix-only brute force."""

import itertools

from eprkit import triples
from eprkit.element import Element, IM
from eprkit.matrices import Matrix, approx_equal, word_matrix
from eprkit.pauli import PauliWord, commute_sign
from eprkit.triples import (
    PAPER_BASIC_SETS,
    build_incidence,
    diff_with_paper_list,
    enumerate_basic_triples,
    nontrivial_words,
    paper_sets_as_words,
)

# Frozen from the pre-build brute force: the published list omits the two
# pure one-side sets and one member of the E20 row.
UNLISTED_SETS = [
    ("E01", "E02", "E03"),
    ("E10", "E20", "E30"),
    ("E13", "E20", "E33"),
]


def matrix_brute_force():
    """Independent enumeration using only the matrix representation."""
    zero, i_eye = Matrix.scalar(4, 0), Matrix.scalar(4, 0, 1)
    words = nontrivial_words()
    accepted = []
    for combo in itertools.combinations(words, 3):
        a, b, c = (word_matrix(w) for w in combo)
        if not all(x * y + y * x == zero for x, y in ((a, b), (a, c), (b, c))):
            continue
        product = a * b * c
        if product in (i_eye, -i_eye):
            accepted.append(frozenset(combo))
    return accepted


def test_count_matches_matrix_oracle():
    oracle = matrix_brute_force()
    found = enumerate_basic_triples()
    assert len(oracle) == 20
    assert len(found) == 20
    assert {frozenset(t.members) for t in found} == set(oracle)


def test_every_published_set_is_found():
    assert len(PAPER_BASIC_SETS) == 17
    found = {frozenset(t.members) for t in enumerate_basic_triples()}
    for s in paper_sets_as_words():
        assert frozenset(s) in found


def test_specific_acceptances():
    found = {frozenset(t.members) for t in enumerate_basic_triples()}
    assert frozenset({PauliWord((0, 1)), PauliWord((1, 2)),
                      PauliWord((1, 3))}) in found
    assert frozenset({PauliWord((0, 1)), PauliWord((0, 2)),
                      PauliWord((0, 3))}) in found


def test_commuting_words_are_rejected():
    correlators = [PauliWord((k, k)) for k in (1, 2, 3)]
    for a, b in itertools.combinations(correlators, 2):
        assert commute_sign(a, b) == 1
    found = {frozenset(t.members) for t in enumerate_basic_triples()}
    assert frozenset(correlators) not in found


def test_cyclic_relations_hold_symbolically_and_numerically():
    for t in enumerate_basic_triples():
        a, b, c = (Element.from_word(w) for w in t.cyclic)
        assert a * b == IM * c
        assert b * c == IM * a
        assert c * a == IM * b
        ma, mb, mc = (word_matrix(w) for w in t.cyclic)
        assert approx_equal(ma * mb, mc.times_i(1))
        assert approx_equal(mb * mc, ma.times_i(1))
        assert approx_equal(mc * ma, mb.times_i(1))


def test_cyclic_ordering_starts_at_smallest_member():
    for t in enumerate_basic_triples():
        assert t.cyclic[0] == t.members[0]
        assert set(t.cyclic) == set(t.members)


def test_diff_against_published_list():
    diff = diff_with_paper_list(enumerate_basic_triples())
    assert diff.found_count == 20
    assert [t.names for t in diff.missing_from_paper] == UNLISTED_SETS
    assert diff.extra_in_paper == ()


def test_diff_against_itself_is_empty(monkeypatch):
    found = enumerate_basic_triples()
    monkeypatch.setattr(triples, "PAPER_BASIC_SETS", tuple(t.members for t in found))
    diff = diff_with_paper_list(found)
    assert diff.missing_from_paper == ()
    assert diff.extra_in_paper == ()


def test_diff_reports_sets_listed_but_never_found(monkeypatch):
    found = enumerate_basic_triples()
    fake = tuple(PauliWord(p) for p in ((1, 1), (2, 2), (3, 3)))
    monkeypatch.setattr(triples, "PAPER_BASIC_SETS", tuple(t.members for t in found) + (fake,))
    diff = diff_with_paper_list(found)
    assert diff.extra_in_paper == (fake,)


def test_incidence_is_uniform():
    found = enumerate_basic_triples()
    incidence = build_incidence(found)
    assert PauliWord((0, 0)) not in incidence
    assert set(incidence) == set(nontrivial_words())
    for w, triples in incidence.items():
        assert len(triples) == 4, w
    assert sum(len(v) for v in incidence.values()) == 3 * len(found)


def test_e12_memberships_match_the_four_published_sets():
    incidence = build_incidence(enumerate_basic_triples())
    e12_sets = {frozenset(t.members) for t in incidence[PauliWord((1, 2))]}
    # rows 1, 7, 13 and 16 of the published list
    expected = {frozenset(PauliWord(p) for p in PAPER_BASIC_SETS[idx])
                for idx in (0, 6, 12, 15)}
    assert e12_sets == expected


def test_enumeration_is_deterministic():
    first = enumerate_basic_triples()
    second = enumerate_basic_triples()
    assert first == second
    assert [t.members for t in first] == sorted(t.members for t in first)
