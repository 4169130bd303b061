"""The singlet sector: psi, its projector, and exact expectations.

The pair correlators E11, E22, E33 commute with one another, and the three
factors (E_kk - 1)/2 multiply in any order to the same element psi.  That
element satisfies ``psi * psi = -psi``: it is the negative of a rank-one
projector, and the sign is kept as constructed rather than repaired, with
the honest projector ``-psi`` exposed alongside.  Mod-psi equality means
equality after right-multiplication by psi, i.e. on the singlet sector
only; conflating it with strict equality is exactly the error the fallacy
trace in :mod:`eprkit.epr` pins down.
"""

from __future__ import annotations

from fractions import Fraction

from .element import Element, ONE, Scalar
from .exprparse import parse_expr, to_element

__all__ = [
    "NotAnInvolutionError",
    "PSI_TEXT",
    "SingletState",
    "build_singlet",
]


class NotAnInvolutionError(ValueError):
    """Outcome probabilities were requested for ``a`` with ``a*a != 1``."""


_HALF = Scalar(Fraction(1, 2))

# psi = psi1*psi2*psi3 with psi_k = (E_kk - 1)/2, in the expression grammar:
# the one place the exact layer writes its formula.  Parsed once; every
# build_singlet() evaluates the tree afresh.
PSI_TEXT = "1/8*(E11-1)*(E22-1)*(E33-1)"
_PSI_TREE = parse_expr(PSI_TEXT)


class SingletState:
    """psi and its projector -psi."""

    def __init__(self, psi: Element):
        self.psi = psi
        self.projector = -psi

    def equal_mod_psi(self, a: Element, b: Element) -> bool:
        """True when ``(a - b) * psi`` vanishes exactly."""
        return ((a - b) * self.psi).is_zero

    def expectation(self, a: Element) -> Scalar:
        """Exact mean value tr(P a) / tr(P) against the projector P = -psi."""
        num = (self.projector * a).trace_normalized()
        return num / self.projector.trace_normalized()

    def outcome_probabilities(self, a: Element) -> tuple[Scalar, Scalar]:
        """Born pair ((1 + <a>)/2, (1 - <a>)/2); requires ``a*a = 1``."""
        if a * a != Element.one(a.arity):
            # The element itself is not rendered: it may be too long to print.
            raise NotAnInvolutionError("not a +1/-1 observable: its square is not the identity")
        mean = self.expectation(a)
        return (ONE + mean) / 2, (ONE - mean) / 2

    def half_plus_mean_probabilities(self, a: Element) -> tuple[Scalar, Scalar]:
        """Alternative bookkeeping pair (1/2 + <a>, 1/2 - <a>).

        Sums to 1 but leaves [0, 1] whenever |<a>| > 1/2; reported next to
        the Born pair so the discrepancy between the two rules stays visible
        instead of being silently resolved.
        """
        mean = self.expectation(a)
        return _HALF + mean, _HALF - mean


def build_singlet() -> SingletState:
    """psi = psi1*psi2*psi3, evaluated from :data:`PSI_TEXT` by the exact layer."""
    return SingletState(to_element(_PSI_TREE))
