"""Exact numpy oracle for the benchmark's expression trees.

Independent of eprkit's algebra: it uses its own 2x2 Pauli matrices,
Kronecker products and singlet vector, and never calls ``eprkit.matrices``,
``mul_words`` or ``Element``.  A complex matrix ``A + iB`` with integer parts
is held as the real block matrix ``[[A, -B], [B, A]]`` in int64, so one
integer matmul multiplies two of them exactly; a value is that matrix over a
positive integer denominator.  Every coefficient and mean therefore comes
out as an exact Fraction, and results are compared for equality.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exprs import WORDS

_LETTERS = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Singlet (|01> - |10>)/sqrt(2); the 1/2 of its squared norm is applied as a
# denominator so everything stays integral.
_SINGLET = np.array([0, 1, -1, 0], dtype=np.int64)

_INT64_MAX = 2**63 - 1


def _block(m: np.ndarray) -> np.ndarray:
    re_, im_ = np.rint(m.real).astype(np.int64), np.rint(m.imag).astype(np.int64)
    return np.block([[re_, -im_], [im_, re_]])


def word_matrix(w: tuple[int, int]) -> np.ndarray:
    """Complex 4x4 matrix of a two-site word, first site leftmost."""
    return np.kron(_LETTERS[w[0]], _LETTERS[w[1]])


_WORD = {w: _block(word_matrix(w)) for w in WORDS}
_IWORD = {w: _block(1j * word_matrix(w)) for w in WORDS}
_PHASE = {k: _block((1j ** k) * np.eye(4)) for k in range(4)}
# Rows give tr(P_w C) = sum(P_w * C.T) for all 16 words at once.
_TRACE_RE = np.array([np.rint(word_matrix(w).real).ravel() for w in WORDS], dtype=np.int64)
_TRACE_IM = np.array([np.rint(word_matrix(w).imag).ravel() for w in WORDS], dtype=np.int64)


@dataclass(frozen=True)
class Value:
    """Exact complex 4x4 matrix ``block / den``."""

    block: np.ndarray
    den: int

    @property
    def re(self) -> np.ndarray:
        return self.block[:4, :4]

    @property
    def im(self) -> np.ndarray:
        return self.block[4:, :4]


def _matmul(a: Value, b: Value) -> Value:
    bound = int(np.abs(a.block).max()) * int(np.abs(b.block).max()) * 8
    if bound > _INT64_MAX:
        raise OverflowError("product leaves the oracle's exact int64 range")
    return Value(a.block @ b.block, a.den * b.den)


def _sum_value(terms) -> Value:
    den = math.lcm(*(q.denominator for re_, im_, _ in terms for q in (re_, im_)))
    block = np.zeros((8, 8), dtype=np.int64)
    for re_, im_, w in terms:
        if re_:
            block += int(re_ * den) * _WORD[w]
        if im_:
            block += int(im_ * den) * _IWORD[w]
    return Value(block, den)


def evaluate(tree: tuple) -> Value:
    """Exact matrix of a tree from :mod:`perfbench.exprs`."""
    kind = tree[0]
    if kind == "sum":
        return _sum_value(tree[1])
    if kind == "word":
        return Value(_WORD[tree[1]], 1)
    if kind == "phase":
        return Value(_PHASE[tree[1] % 4], 1)
    if kind == "paren":
        return evaluate(tree[2])
    if kind == "prod":
        children = iter(tree[1])
        acc = evaluate(next(children))
        for child in children:
            acc = _matmul(acc, evaluate(child))
        return acc
    raise ValueError(f"unknown node {kind!r}")


Gaussian = tuple[Fraction, Fraction]


def coefficients(v: Value) -> dict[tuple[int, int], Gaussian]:
    """Nonzero word coefficients tr(P_w M)/4 of the value."""
    a_t, b_t = v.re.T.ravel(), v.im.T.ravel()
    tr_re = _TRACE_RE @ a_t - _TRACE_IM @ b_t
    tr_im = _TRACE_RE @ b_t + _TRACE_IM @ a_t
    out = {}
    for w, x, y in zip(WORDS, tr_re.tolist(), tr_im.tolist()):
        if x or y:
            out[w] = (Fraction(x, 4 * v.den), Fraction(y, 4 * v.den))
    return out


def expectation(v: Value) -> Gaussian:
    """Singlet mean <s|M|s>."""
    return (Fraction(int(_SINGLET @ v.re @ _SINGLET), 2 * v.den),
            Fraction(int(_SINGLET @ v.im @ _SINGLET), 2 * v.den))


def squares_to_identity(v: Value) -> bool:
    sq = _matmul(v, v)
    return bool(np.array_equal(sq.block, _PHASE[0] * sq.den))


@dataclass(frozen=True)
class Expected:
    terms: dict[tuple[int, int], Gaussian]
    mean: Gaussian


def expected(tree: tuple) -> Expected:
    v = evaluate(tree)
    return Expected(terms=coefficients(v), mean=expectation(v))


# --- canonical element text ---------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|(E[0-3][0-3]|I)|(i)|([-+*()]))")
_ONE: Gaussian = (Fraction(1), Fraction(0))


def _mul(a: Gaussian, b: Gaussian) -> Gaussian:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _add_into(acc: dict, w, c: Gaussian) -> None:
    s = (acc.get(w, (0, 0))[0] + c[0], acc.get(w, (0, 0))[1] + c[1])
    if s[0] or s[1]:
        acc[w] = s
    else:
        acc.pop(w, None)


def parse_canonical(text: str) -> dict[tuple[int, int], Gaussian]:
    """Coefficients of a printed element such as ``-1/4 + (1/2-i)*E12``.

    Accepts sums of terms in which at most one factor is a word; that is the
    shape eprkit prints.  Anything else raises ValueError.
    """
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"unexpected text at {pos}: {text[pos:pos + 10]!r}")
        tokens.append(next(g for g in m.groups() if g is not None))
        pos = m.end()
    tokens.append("")
    i = 0

    def peek() -> str:
        return tokens[i]

    def take() -> str:
        nonlocal i
        i += 1
        return tokens[i - 1]

    def expr() -> dict:
        acc: dict = {}
        for w, c in term().items():
            _add_into(acc, w, c)
        while peek() in ("+", "-"):
            sign = take()
            for w, c in term().items():
                _add_into(acc, w, c if sign == "+" else (-c[0], -c[1]))
        return acc

    def term() -> dict:
        value = factor()
        while peek() == "*":
            take()
            value = _product(value, factor())
        return value

    def factor() -> dict:
        tok = take()
        if tok == "-":
            return {w: (-c[0], -c[1]) for w, c in factor().items()}
        if tok == "(":
            inner = expr()
            if take() != ")":
                raise ValueError("unbalanced parenthesis")
            return inner
        if tok == "i":
            return {(0, 0): (Fraction(0), Fraction(1))}
        if tok == "I":
            return {(0, 0): _ONE}
        if tok.startswith("E"):
            return {(int(tok[1]), int(tok[2])): _ONE}
        if tok and tok[0].isdigit():
            return {(0, 0): (Fraction(tok), Fraction(0))}
        raise ValueError(f"unexpected token {tok or 'end of text'!r}")

    def _product(a: dict, b: dict) -> dict:
        for x, y in ((a, b), (b, a)):
            if set(x) <= {(0, 0)}:
                c = x.get((0, 0), (Fraction(0), Fraction(0)))
                out: dict = {}
                for w, d in y.items():
                    _add_into(out, w, _mul(c, d))
                return out
        raise ValueError("a term multiplies two words; not a printed element")

    result = expr()
    if peek() != "":
        raise ValueError(f"trailing token {peek()!r}")
    return result
