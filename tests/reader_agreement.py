"""The two readers of the expression grammar agree on every short text.

Every text of one to ``n`` tokens over a small alphabet, the tokens joined
by spaces, and every string of one to ``m`` characters over a small
character set, go to both readers: the exact route (``parse_expr``, then
``to_element`` and its matrix by ``element_matrix``) and the matrix
oracle's own reader (``matrices.expr_program``).  They must accept the
same texts, each with one matrix.  The check rests on the small-scope
hypothesis: D. Jackson, *Software Abstractions*, MIT Press, 2006.

The Tier-1 suite runs it at 4 tokens and at 3 characters.  As a script,
with ``eprkit`` importable (installed, or ``PYTHONPATH=src``)::

    python tests/reader_agreement.py --tokens 5 --chars 5

prints, for each enumeration, every text the readers disagree on and how
many texts it read and accepted, and exits 1 if there is any disagreement.
"""

import argparse
import itertools
import sys
from typing import Iterable, Iterator

from eprkit.exprparse import ExprError, parse_expr, to_element
from eprkit.matrices import ReadError, element_matrix, expr_program
from eprkit.singlet import build_singlet

# A name of each arity, psi, the units, two literals, every operator and both
# parentheses.
SMALL_TOKENS = ("E01", "e1", "psi", "i", "I", "2", "1/2", "+", "-", "*", "(", ")")
# Both prefixes, name digits in range and one out of it, psi's other letters,
# the units, the operators and '/', both parentheses and a space.
SMALL_CHARS = tuple("Ee0134iI/+-*() ps")


def texts(alphabet: tuple[str, ...], longest: int, sep: str = "") -> Iterator[str]:
    """Every text of 1..``longest`` items of ``alphabet``, joined by ``sep``."""
    for n in range(1, longest + 1):
        for items in itertools.product(alphabet, repeat=n):
            yield sep.join(items)


def compare(enumeration: Iterable[str], psi) -> tuple[int, int, list[str]]:
    """Every text of ``enumeration``: the count read, the count accepted, the disagreements."""
    read = accepted = 0
    differ = []
    for text in enumeration:
        read += 1
        try:
            exact = element_matrix(to_element(parse_expr(text), psi=psi))
        except ExprError:
            exact = None
        try:
            oracle = expr_program(text)()
        except ReadError:
            oracle = None
        if exact != oracle:
            differ.append(text)
        elif exact is not None:
            accepted += 1
    return read, accepted, differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tokens", type=int, default=4, help="longest text, in tokens")
    parser.add_argument("--chars", type=int, default=0, help="longest text, in characters")
    args = parser.parse_args(argv)
    psi = build_singlet().psi
    found = 0
    for enumeration in (texts(SMALL_TOKENS, args.tokens, " "), texts(SMALL_CHARS, args.chars)):
        read, accepted, differ = compare(enumeration, psi)
        if not read:
            continue
        for text in differ:
            print(f"readers disagree: {text!r}")
        print(f"texts: {read}, accepted: {accepted}, disagreements: {len(differ)}")
        found += len(differ)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
