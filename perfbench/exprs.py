"""Seeded expression trees for the expression workloads, and their text.

Trees are plain tuples, so the renderer here and the numpy oracle in
:mod:`perfbench.oracle` share one definition without touching eprkit:

    ("sum", ((re, im, (i, j)), ...))   Gaussian-rational combination of words
    ("word", (i, j))                   a bare two-site word
    ("phase", k)                       i**k
    ("prod", (child, ...))             left-associated product
    ("paren", depth, child)            child inside ``depth`` parentheses

This module imports no numpy, so a worker can generate its inputs before
the set-up it times.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

WORDS = tuple((i, j) for i in range(4) for j in range(4))
NONTRIVIAL = WORDS[1:]

# Products of 2, 3, 5 and 7, so one sum mixes unrelated denominators.
DENOMINATORS = (2, 3, 5, 6, 7, 10, 14, 15, 21, 35)

SUMS = (2, 3, 4)
CHAIN_FACTORS = (100, 600)
# Python's default recursion limit is 1000; these sizes sit well past it.
DEEP_FACTORS = (1100, 1600)
DEEP_NESTING = (1000, 1200)
# One input in each block of this many is deep.
DEEP_EVERY = 20


@dataclass(frozen=True)
class Case:
    """One generated input: its text, its tree and the properties recorded."""

    text: str
    tree: tuple
    deep: bool = False
    factors: int = 0
    nesting: int = 0


def _word(w: tuple[int, int]) -> str:
    return f"E{w[0]}{w[1]}"


def _rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _signed_term(re: Fraction, im: Fraction, w: tuple[int, int]) -> tuple[str, str]:
    """(sign, magnitude text) of one coefficient*word term of a sum."""
    if im == 0:
        return ("-" if re < 0 else "+"), f"{_rational(abs(re))}*{_word(w)}"
    if re == 0:
        return ("-" if im < 0 else "+"), f"{_rational(abs(im))}*i*{_word(w)}"
    im_sign = "-" if im < 0 else "+"
    re_text = ("-" if re < 0 else "") + _rational(abs(re))
    return "+", f"({re_text}{im_sign}{_rational(abs(im))}*i)*{_word(w)}"


def render(tree: tuple) -> str:
    """Text in eprkit's expression grammar for a tree built here."""
    kind = tree[0]
    if kind == "sum":
        parts = []
        for re, im, w in tree[1]:
            sign, body = _signed_term(re, im, w)
            if parts:
                parts.append(f" {sign} {body}")
            else:
                parts.append(("-" if sign == "-" else "") + body)
        return "(" + "".join(parts) + ")"
    if kind == "word":
        return _word(tree[1])
    if kind == "phase":
        return {0: "1", 1: "i", 2: "-1", 3: "-i"}[tree[1] % 4]
    if kind == "prod":
        return "*".join(render(c) for c in tree[1])
    if kind == "paren":
        return "(" * tree[1] + render(tree[2]) + ")" * tree[1]
    raise ValueError(f"unknown node {kind!r}")


def _coefficient(rng: random.Random) -> tuple[Fraction, Fraction]:
    def part() -> Fraction:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(DENOMINATORS))

    roll = rng.random()
    if roll < 0.4:
        return part(), Fraction(0)
    if roll < 0.6:
        return Fraction(0), part()
    return part(), part()


def dense_case(rng: random.Random, n_sums: int) -> Case:
    """A product of ``n_sums`` parenthesised sums of 8-16 distinct words each."""
    sums = []
    for _ in range(n_sums):
        words = rng.sample(WORDS, rng.randint(8, 16))
        sums.append(("sum", tuple((*_coefficient(rng), w) for w in words)))
    tree = ("prod", tuple(sums))
    return Case(text=render(tree), tree=tree, factors=len(sums))


def _chain(rng: random.Random, n: int) -> tuple:
    factors = []
    for _ in range(n):
        if rng.random() < 0.1:
            factors.append(("phase", rng.choice((1, 3))))
        else:
            factors.append(("word", rng.choice(NONTRIVIAL)))
    return ("prod", tuple(factors))


def chain_case(rng: random.Random, deep: str | None = None) -> Case:
    """A left-associated product of bare words and +-i.

    ``deep="long"`` makes it longer than the recursion limit allows;
    ``deep="nested"`` wraps an ordinary chain in that many parentheses.
    """
    if deep == "long":
        n = rng.randint(*DEEP_FACTORS)
        tree = _chain(rng, n)
        return Case(text=render(tree), tree=tree, deep=True, factors=n)
    n = rng.randint(*CHAIN_FACTORS)
    tree = _chain(rng, n)
    if deep == "nested":
        depth = rng.randint(*DEEP_NESTING)
        tree = ("paren", depth, tree)
        return Case(text=render(tree), tree=tree, deep=True, factors=n, nesting=depth)
    return Case(text=render(tree), tree=tree, factors=n)


def dense_stream(seed: int, stream: str = "measure") -> Iterator[Case]:
    """Products of 2, 3 and 4 sums in equal shares, shuffled in blocks of three.

    Equal shares keep the median operation inside the 3-sum inputs on every
    seed, so the seed changes the inputs but not the mix.
    """
    rng = random.Random(f"expr_dense:{stream}:{seed}")
    while True:
        for n_sums in rng.sample(SUMS, len(SUMS)):
            yield dense_case(rng, n_sums)


def chain_stream(seed: int, stream: str = "measure") -> Iterator[Case]:
    """Chains with exactly one deep input at a seeded place in each block.

    The warm-up stream has no deep inputs: a failed warm-up warms nothing.
    """
    rng = random.Random(f"expr_chain:{stream}:{seed}")
    deep = stream != "warmup"
    k = 0
    while True:
        if k % DEEP_EVERY == 0:
            deep_at = k + rng.randrange(DEEP_EVERY)
        kind = rng.choice(("long", "nested")) if deep and k == deep_at else None
        yield chain_case(rng, kind)
        k += 1


def properties(cases: list[Case]) -> dict:
    """Input properties of the cases a run consumed, recorded with its result."""
    n = len(cases)
    if not n:
        return {}
    out: dict = {"chars_mean": statistics.fmean(len(c.text) for c in cases)}
    shallow = [c.factors for c in cases if not c.deep]
    if shallow:
        out["factors"] = {"min": min(shallow), "median": statistics.median(shallow),
                          "max": max(shallow)}
    out["deep_share"] = sum(c.deep for c in cases) / n
    out["deep_nested_share"] = sum(c.nesting > 0 for c in cases) / n
    sums = [node[1] for c in cases if c.tree[0] == "prod"
            for node in c.tree[1] if node[0] == "sum"]
    if sums:
        sizes = [len(s) for s in sums]
        out["terms_per_sum"] = {"min": min(sizes), "mean": statistics.fmean(sizes),
                                "max": max(sizes)}
        denominators = {q.denominator for s in sums for re, im, _ in s
                        for q in (re, im) if q}
        out["denominators"] = sorted(denominators)
        out["denominator_primes"] = sorted(p for p in (2, 3, 5, 7)
                                           if any(d % p == 0 for d in denominators))
    return out
