"""Central determinant and characteristic polynomial of biquaternion matrices.

The central determinant of a square matrix is the ordinary complex
determinant of its block representation.  It is the unique choice (up to the
alternative convention of its square root) that is multiplicative,
normalizes the identity to 1, and detects invertibility.

The central characteristic polynomial ``det(lam*I - block_repr(A))`` has
degree 2n and annihilates the matrix itself (Cayley-Hamilton).

For a quaternion scalar ``mu``, scaling obeys
``central_det(mu * A) == weak_norm(mu)**n * central_det(A)`` -- exponent n,
not 2n: the block representation of ``mu*I_n`` is a 2x2 scalar pattern
Kronecker the n x n identity, whose determinant is the weak norm to the
n-th power.  This is consistent with the complex-scalar law
``central_det(lam*A) == lam**(2n) * central_det(A)`` since the weak norm of
a complex scalar is its square.
"""

from __future__ import annotations

from numpy.polynomial import Polynomial

from . import clinalg
from .matrix import BqMatrix


def central_det(a: BqMatrix) -> complex:
    """Determinant of the block representation; nonzero iff A is invertible."""
    a._require_square()
    return clinalg.det(a.block_repr())


def central_charpoly(a: BqMatrix) -> Polynomial:
    """Monic characteristic polynomial of the block representation
    (degree 2n, ascending coefficients)."""
    a._require_square()
    return clinalg.charpoly(a.block_repr())
