"""The oracle's algebra, and the expected CLI output checked against it."""

import itertools
import re
from fractions import Fraction as F

import numpy as np
import pytest
from conftest import ROOT

from perfbench import clicases, oracle
from perfbench.exprs import WORDS, render

COMMANDS = {c.name: c for c in clicases.commands(ROOT)}
HALF = F(1, 2)


def _word(w):
    return ("word", w)


def test_letters_follow_the_cyclic_orientation():
    # e1*e2 = i*e3 at the first site, seen through two-site words.
    v = oracle.evaluate(("prod", (_word((1, 0)), _word((2, 0)))))
    assert oracle.coefficients(v) == {(3, 0): (F(0), F(1))}
    v = oracle.evaluate(("prod", (_word((0, 2)), _word((0, 1)))))
    assert oracle.coefficients(v) == {(0, 3): (F(0), F(-1))}


def test_every_word_squares_to_the_identity():
    for w in WORDS:
        assert oracle.squares_to_identity(oracle.evaluate(_word(w)))


@pytest.mark.parametrize("w, mean", [((0, 0), 1), ((1, 1), -1), ((2, 2), -1),
                                     ((3, 3), -1), ((1, 2), 0), ((0, 3), 0)])
def test_singlet_means(w, mean):
    assert oracle.expectation(oracle.evaluate(_word(w))) == (F(mean), F(0))


def test_sum_coefficients_are_exact():
    tree = ("sum", ((F(1, 7), F(-2, 35), (1, 2)), (F(0), F(3, 5), (0, 0))))
    assert oracle.coefficients(oracle.evaluate(tree)) == {
        (1, 2): (F(1, 7), F(-2, 35)), (0, 0): (F(0), F(3, 5))}


def test_oracle_refuses_products_beyond_int64():
    big = ("sum", ((F(2**40), F(0), (1, 1)),))
    with pytest.raises(OverflowError):
        oracle.evaluate(("prod", (big, big)))


@pytest.mark.parametrize("text, terms", [
    ("0", {}),
    ("-1/4 + 1/4*E11", {(0, 0): (F(-1, 4), F(0)), (1, 1): (F(1, 4), F(0))}),
    ("(1/2-i)*E12 - i*E03", {(1, 2): (HALF, F(-1)), (0, 3): (F(0), F(-1))}),
    ("(-2/5+1/3*i) + 2/3*i*E21", {(0, 0): (F(-2, 5), F(1, 3)), (2, 1): (F(0), F(2, 3))}),
])
def test_parse_canonical(text, terms):
    assert oracle.parse_canonical(text) == terms


def test_parse_canonical_rejects_products_of_words():
    with pytest.raises(ValueError):
        oracle.parse_canonical("E12*E21")


# --- expected_cli.json against the oracle ----------------------------------------

EVAL_TREE = ("prod", (("sum", ((F(1), F(0), (1, 2)), (F(1, 3), F(0), (0, 3)))),
                      ("sum", ((F(1), F(0), (2, 1)), (F(0), F(-2, 5), (3, 0))))))
EXPECT_TREE = ("sum", ((F(3, 5), F(0), (1, 1)), (F(4, 5), F(0), (1, 2))))


def test_verify_expects_the_golden_report():
    cmd = COMMANDS["verify"]
    assert cmd.argv == ("verify",) and cmd.exit == 0
    assert cmd.stdout == (ROOT / "tests/golden/report.json").read_text(encoding="utf-8")


def test_eval_output_matches_the_oracle():
    cmd = COMMANDS["eval"]
    assert cmd.argv == ("eval", render(EVAL_TREE)) and cmd.exit == 0
    assert oracle.parse_canonical(cmd.stdout) == oracle.expected(EVAL_TREE).terms


def test_expect_output_matches_the_oracle():
    cmd = COMMANDS["expect"]
    assert cmd.argv == ("expect", render(EXPECT_TREE)) and cmd.exit == 0
    value = oracle.evaluate(EXPECT_TREE)
    mean = oracle.expectation(value)
    assert mean[1] == 0 and oracle.squares_to_identity(value)
    lines = cmd.stdout.splitlines()
    assert lines[0] == f"mean: {mean[0]}"
    pair = re.compile(r"p\(\+1\) = (\S+), p\(-1\) = (\S+) +\[(\S+)\]")
    born = pair.fullmatch(lines[1]).groups()
    literal = pair.fullmatch(lines[2]).groups()
    assert born[2] == "born" and literal[2] == "half-plus-mean"
    assert (F(born[0]), F(born[1])) == ((1 + mean[0]) / 2, (1 - mean[0]) / 2)
    assert (F(literal[0]), F(literal[1])) == (HALF + mean[0], HALF - mean[0])


def _name(w):
    return f"E{w[0]}{w[1]}"


def _oracle_triples():
    """Unordered triples of nontrivial words that pairwise anticommute and
    multiply to +-i; each with its cyclic order A*B = +i*C from the smallest."""
    mats = {w: oracle.word_matrix(w) for w in WORDS[1:]}
    eye = np.eye(4)
    found = {}
    for combo in itertools.combinations(WORDS[1:], 3):
        a, b, c = (mats[w] for w in combo)
        if not all(np.allclose(x @ y, -y @ x) for x, y in ((a, b), (a, c), (b, c))):
            continue
        prod = a @ b @ c
        if not (np.allclose(prod, 1j * eye) or np.allclose(prod, -1j * eye)):
            continue
        for x, y, z in ((combo[0], combo[1], combo[2]), (combo[0], combo[2], combo[1])):
            if np.allclose(mats[x] @ mats[y], 1j * mats[z]):
                found[combo] = (x, y, z)
    return found


def test_triples_output_matches_the_oracle():
    from eprkit.triples import PAPER_BASIC_SETS

    cmd = COMMANDS["triples"]
    assert cmd.argv == ("triples", "--diff-paper") and cmd.exit == 0
    found = _oracle_triples()
    listing, diff = cmd.stdout.split("\n\n")
    expected = [f"({', '.join(map(_name, t))})  cycle ({', '.join(map(_name, cyc))})"
                for t, cyc in sorted(found.items())]
    assert listing.splitlines() == expected
    published = {frozenset(s) for s in PAPER_BASIC_SETS}
    missing = [t for t in sorted(found) if frozenset(t) not in published]
    assert not published - {frozenset(t) for t in found}
    assert diff.splitlines() == (
        [f"enumerated: {len(found)}", "found but not in the published list:"]
        + [f"  ({', '.join(map(_name, t))})" for t in missing]
        + ["listed but not found:", "  none"])


def test_peres_output_matches_independent_constraints():
    cmd = COMMANDS["peres"]
    assert cmd.argv == ("peres",) and cmd.exit == 0
    lines = cmd.stdout.splitlines()
    rows = lines[1:17]
    satisfying = relaxed = 0
    for line, signs in zip(rows, itertools.product((1, -1), repeat=4)):
        m01, m10, m02, m20 = signs
        flags = [m01 == -m10, m02 == -m20, m01 * m20 == -(m10 * m02)]
        values, rest = line.split("|", 1)
        assert [int(v) for v in values.split()] == list(signs)
        words = rest.replace("|", " ").split()
        assert words == [str(f) for f in flags] + ["yes" if all(flags) else "no"]
        satisfying += all(flags)
        relaxed += flags[0] and flags[1]
    assert lines[18:] == [f"satisfying all constraints: {satisfying} of 16",
                          f"satisfying all but the product constraint: {relaxed} of 16"]
    assert (satisfying, relaxed) == (0, 4)
