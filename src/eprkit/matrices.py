"""Dense matrix representation of words and elements.

The numerical cross-check for the exact layer: letters map to the standard
2x2 spin matrices, words to Kronecker products (first site leftmost),
elements to coefficient-weighted sums, and expression trees to numpy
products.  Everything here is built from the explicit matrices, never from
the symbolic composition rules, so the two routes stay independent; even
``psi`` is this module's own product of letter matrices, taken from no caller.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .element import Element
from .exprparse import Expr, evaluate, infer_arity
from .pauli import PauliWord

__all__ = [
    "DimensionMismatchError",
    "LETTER_MATRICES",
    "TOLERANCE",
    "approx_equal",
    "element_matrix",
    "expr_matrix",
    "word_matrix",
]

# All matrices are tiny (dimension 4 at two sites) with entries of unit
# magnitude, so 1e-12 is loose against roundoff yet catches any phase slip.
TOLERANCE = 1e-12


class DimensionMismatchError(ValueError):
    """Two matrices of different shape were compared."""


_LETTERS = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
_LETTERS.flags.writeable = False
# Read-only views: word_matrix returns them themselves for one-site words.
LETTER_MATRICES = tuple(_LETTERS)

# psi = psi1*psi2*psi3 with psi_k = (E_kk - 1)/2, from the letter matrices alone.
_PSI = np.linalg.multi_dot([(np.kron(m, m) - np.eye(4)) / 2 for m in LETTER_MATRICES[1:]])
_PSI.flags.writeable = False


def word_matrix(word: PauliWord) -> np.ndarray:
    """Kronecker product of the per-site base matrices."""
    m = LETTER_MATRICES[word.letters[0]]
    for x in word.letters[1:]:
        m = np.kron(m, LETTER_MATRICES[x])
    return m


def element_matrix(elem: Element) -> np.ndarray:
    """Coefficient-weighted sum of word matrices."""
    dim = 2 ** elem.arity
    out = np.zeros((dim, dim), dtype=complex)
    for w, c in elem.terms.items():
        out += complex(c) * word_matrix(w)
    return out


def expr_matrix(node: Expr) -> np.ndarray:
    """Evaluate a parsed expression with numpy alone.

    A literal is that multiple of the identity matrix, a symbol the Kronecker
    product of its letters' matrices (``psi`` their read-only product
    ``(E11-1)*(E22-1)*(E33-1)/8``), and ``*`` the matrix product.  No element
    arithmetic is involved, so the result is an independent check on
    ``to_element``.
    """
    eye = np.eye(2 ** infer_arity(node), dtype=complex)
    return evaluate(node, lambda value: complex(value) * eye, _symbol_matrix, _PSI,
                    np.matmul)


@cache
def _symbol_matrix(letters: tuple[int, ...]) -> np.ndarray:
    """word_matrix of a symbol's letters, built once per process and read-only."""
    m = word_matrix(PauliWord(letters))
    m.flags.writeable = False
    return m


def approx_equal(a: np.ndarray, b: np.ndarray, tol: float = TOLERANCE) -> bool:
    """True iff the max-norm of the difference is at most ``tol``."""
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b))) <= tol
