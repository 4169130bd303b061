"""Floating-point linear algebra for the few assertions the exact layer cannot make.

Spectra and ranks are asked of numpy, outside the package, as a check that
shares nothing with the exact arithmetic.  Every other matrix assertion in
the suite is an exact equality.
"""

import numpy as np

# Eigenvalues are rounded to this many places, far above the roundoff of
# 4x4 matrices with entries of unit magnitude and far below any real gap.
PLACES = 12


def eigenvalues(m):
    """The sorted eigenvalues of a Hermitian :class:`~eprkit.matrices.Matrix`."""
    array = np.array([[complex(*m.entry(r, c)) for c in range(m.dim)] for r in range(m.dim)])
    return [round(float(x), PLACES) for x in np.linalg.eigvalsh(array)]


def rank(rows):
    """The rank of a matrix whose entries are exact scalars."""
    return int(np.linalg.matrix_rank(np.array([[complex(x.re, x.im) for x in row] for row in rows])))
