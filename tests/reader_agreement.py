"""The two readers of the expression grammar agree on every short text.

Every text of one to ``n`` tokens over a small alphabet, the tokens joined
by spaces, goes to both readers: the exact route (``parse_expr``, then
``to_element`` and its matrix by ``element_matrix``) and the matrix
oracle's own reader (``matrices.expr_program``).  They must accept the
same texts, each with one matrix.  The check rests on the small-scope
hypothesis: D. Jackson, *Software Abstractions*, MIT Press, 2006.

The Tier-1 suite runs it at 4 tokens.  As a script, with ``eprkit``
importable (installed, or ``PYTHONPATH=src``)::

    python tests/reader_agreement.py --tokens 5

prints how many texts it read and accepted and every text the readers
disagree on, and exits 1 if there is any.
"""

import argparse
import itertools
import sys

from eprkit.exprparse import ExprError, parse_expr, to_element
from eprkit.matrices import ReadError, element_matrix, expr_program
from eprkit.singlet import build_singlet

# A name of each arity, psi, the units, two literals, every operator and both
# parentheses.
SMALL_TOKENS = ("E01", "e1", "psi", "i", "I", "2", "1/2", "+", "-", "*", "(", ")")


def compare(max_tokens: int, psi) -> tuple[int, int, list[str]]:
    """Every text of 1..``max_tokens`` tokens: the count read, the count accepted, the disagreements."""
    read = accepted = 0
    differ = []
    for n in range(1, max_tokens + 1):
        for tokens in itertools.product(SMALL_TOKENS, repeat=n):
            text = " ".join(tokens)
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
    args = parser.parse_args(argv)
    read, accepted, differ = compare(args.tokens, build_singlet().psi)
    for text in differ:
        print(f"readers disagree: {text!r}")
    print(f"texts: {read}, accepted: {accepted}, disagreements: {len(differ)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
