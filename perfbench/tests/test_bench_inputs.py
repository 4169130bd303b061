"""Seeded inputs: reproducible, and with the properties the workloads promise."""

import itertools
from fractions import Fraction

from perfbench import exprs


def _take(stream, n):
    return list(itertools.islice(stream, n))


def test_same_seed_same_inputs_other_seed_other_inputs():
    for stream in (exprs.dense_stream, exprs.chain_stream):
        first = [c.text for c in _take(stream(5), 20)]
        assert first == [c.text for c in _take(stream(5), 20)]
        assert first != [c.text for c in _take(stream(6), 20)]


def test_dense_inputs_are_products_of_mixed_denominator_sums():
    cases = _take(exprs.dense_stream(1), 60)
    for case in cases:
        kind, sums = case.tree
        assert kind == "prod" and 2 <= len(sums) <= 4
        for _, terms in sums:
            words = [w for _, _, w in terms]
            assert 8 <= len(words) <= 16 and len(set(words)) == len(words)
            for re, im, _ in terms:
                assert re or im
                for q in (Fraction(re), Fraction(im)):
                    d = q.denominator
                    for p in (2, 3, 5, 7):
                        while d % p == 0:
                            d //= p
                    assert d == 1
    props = exprs.properties(cases)
    assert props["denominator_primes"] == [2, 3, 5, 7]
    assert props["deep_share"] == 0


def test_chain_inputs_have_one_deep_input_per_block():
    cases = _take(exprs.chain_stream(2), 10 * exprs.DEEP_EVERY)
    for block in range(10):
        chunk = cases[block * exprs.DEEP_EVERY:(block + 1) * exprs.DEEP_EVERY]
        assert sum(c.deep for c in chunk) == 1
    for case in cases:
        if case.deep:
            assert case.factors > 1000 or case.nesting >= 1000
        else:
            assert 100 <= case.factors <= 600
            assert "+" not in case.text and "psi" not in case.text
    assert exprs.properties(cases)["deep_share"] == 1 / exprs.DEEP_EVERY


def test_warmup_chains_are_never_deep():
    assert not any(c.deep for c in _take(exprs.chain_stream(2, "warmup"), 60))
