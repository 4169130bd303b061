"""Enumeration of the basic sets, pinned against a matrix-only brute force."""

import itertools

import pytest

from eprkit import pauli, triples
from eprkit.element import Element, IM
from eprkit.matrices import Matrix, approx_equal, word_matrix
from eprkit.pauli import PauliWord, commute_sign, mul_words
from eprkit.triples import (
    PAPER_BASIC_SETS,
    BasicTriple,
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


def pairwise_brute_force():
    """The scan asking commute_sign about all three pairs of each of the 455 triples."""
    accepted = []
    for combo in itertools.combinations(nontrivial_words(), 3):
        if any(commute_sign(x, y) == 1 for x, y in itertools.combinations(combo, 2)):
            continue
        k1, w1 = mul_words(combo[0], combo[1])
        k2, w2 = mul_words(w1, combo[2])
        if w2.is_identity and (k1 + k2) % 4 in (1, 3):
            a, b, c = combo
            cyclic = (a, b, c) if mul_words(a, b)[0] == 1 else (a, c, b)
            accepted.append(BasicTriple(members=combo, cyclic=cyclic))
    return accepted


# Each cyclic letter product with its phase dropped, as the fault tests corrupt
# e1*e2, and the orientation reversed.
DROPPED_PHASES = [None, (1, 2), (2, 3), (3, 1), "reversed"]


@pytest.mark.parametrize("dropped", DROPPED_PHASES)
def test_the_pair_scan_matches_the_pairwise_brute_force(monkeypatch, dropped):
    if dropped == "reversed":
        monkeypatch.setattr(pauli, "_CYCLE", {(b, a): c for (a, b), c in pauli._CYCLE.items()})
    elif dropped is not None:
        original = pauli.compose_letters

        def corrupted(a, b):
            k, c = original(a, b)
            return (0, c) if (a, b) == dropped else (k, c)

        monkeypatch.setattr(pauli, "compose_letters", corrupted)
    # Products folded by earlier tests come from the true rule; start from none.
    monkeypatch.setattr(pauli, "_PRODUCTS", {})
    assert enumerate_basic_triples() == pairwise_brute_force()


def test_commute_sign_is_asked_once_per_word_pair(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return commute_sign(a, b)

    monkeypatch.setattr(triples, "commute_sign", counted)
    assert len(enumerate_basic_triples()) == 20
    assert len(calls) == 105
    assert calls == list(itertools.combinations(nontrivial_words(), 2))


# Frozen from the scan that multiplied a*b a second time for each accepted triple.
CYCLIC_ORDERS = [
    ("E01", "E02", "E03"), ("E01", "E12", "E13"), ("E01", "E22", "E23"),
    ("E01", "E32", "E33"), ("E02", "E13", "E11"), ("E02", "E23", "E21"),
    ("E02", "E33", "E31"), ("E03", "E11", "E12"), ("E03", "E21", "E22"),
    ("E03", "E31", "E32"), ("E10", "E20", "E30"), ("E10", "E21", "E31"),
    ("E10", "E22", "E32"), ("E10", "E23", "E33"), ("E11", "E20", "E31"),
    ("E11", "E21", "E30"), ("E12", "E20", "E32"), ("E12", "E22", "E30"),
    ("E13", "E20", "E33"), ("E13", "E23", "E30"),
]


def test_the_cyclic_order_comes_from_the_scan_product(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return mul_words(a, b)

    # commute_sign reads pauli's binding, the scan its own.
    monkeypatch.setattr(pauli, "mul_words", counted)
    monkeypatch.setattr(triples, "mul_words", counted)
    found = enumerate_basic_triples()
    # Two per commute_sign (210), then a*b for each of the 60 anticommuting
    # pairs, and c*c for the 20 pairs whose product word c sorts after both
    # and anticommutes with each: 210 + 60 + 20.
    assert len(calls) == 290
    assert [tuple(w.name for w in t.cyclic) for t in found] == CYCLIC_ORDERS


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
