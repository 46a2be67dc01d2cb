"""Central determinant and characteristic polynomial of biquaternion matrices.

The central determinant of a square matrix is the ordinary complex
determinant of its block representation.  It is the unique choice (up to the
alternative convention of its square root) that is multiplicative,
normalizes the identity to 1, and detects invertibility.

The central characteristic polynomial ``det(lam*I - block_repr(A))`` has
degree 2n and annihilates the matrix itself (Cayley-Hamilton), which
:func:`cayley_hamilton_residual` verifies numerically in quaternion matrix
arithmetic.

For a quaternion scalar ``mu``, scaling obeys
``central_det(mu * A) == weak_norm(mu)**n * central_det(A)`` -- exponent n,
not 2n: the block representation of ``mu*I_n`` is a 2x2 scalar pattern
Kronecker the n x n identity, whose determinant is the weak norm to the
n-th power.  This is consistent with the complex-scalar law
``central_det(lam*A) == lam**(2n) * central_det(A)`` since the weak norm of
a complex scalar is its square.  :func:`scaling_exponent_probe` measures the
exponent empirically instead of trusting any claimed value.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial

from . import clinalg
from .errors import NotTriangularError
from .matrix import BqMatrix
from .scalar import Biquaternion

# Largest relative error at which scaling_exponent_probe accepts an exponent.
_EXPONENT_TOL = 1e-6


def central_det(a: BqMatrix) -> complex:
    """Determinant of the block representation; nonzero iff A is invertible."""
    a._require_square()
    return clinalg.det(a.block_repr())


def central_charpoly(a: BqMatrix) -> Polynomial:
    """Monic characteristic polynomial of the block representation
    (degree 2n, ascending coefficients)."""
    a._require_square()
    return clinalg.charpoly(a.block_repr())


def charpoly_coefficient_scale(a: BqMatrix) -> float:
    """Natural magnitude of a polynomial evaluation at A:
    ``sum_k |c_k| * |A|**k``; the yardstick for Cayley-Hamilton residuals."""
    coeffs = central_charpoly(a).coef
    s = a.norm()
    return float(sum(abs(c) * max(s, 1.0) ** k for k, c in enumerate(coeffs)))


def cayley_hamilton_residual(a: BqMatrix) -> float:
    """Norm of the central characteristic polynomial evaluated at A.

    Evaluation runs in biquaternion matrix arithmetic by Horner's scheme
    (complex coefficients act centrally), costing 2n matrix products.  The
    result is 0 in exact arithmetic; the float residual stays below about
    1e-8 times :func:`charpoly_coefficient_scale` for well-conditioned
    matrices.
    """
    n = a._require_square()
    coeffs = central_charpoly(a).coef
    acc = BqMatrix.identity(n) * complex(coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc @ a + BqMatrix.identity(n) * complex(c)
    return acc.norm()


def triangular_central_det(a: BqMatrix) -> complex:
    """Central determinant of a triangular matrix: the product of the weak
    norms of its diagonal entries.

    Raises:
        NotTriangularError: if the matrix is neither upper nor lower
            triangular within ``clinalg.DEFAULT_TOL`` times its norm.
    """
    n = a._require_square()
    c = a.components
    scale = clinalg.DEFAULT_TOL * a.norm()
    is_upper = bool(np.all(np.abs(np.tril(c, -1)) <= scale))
    is_lower = bool(np.all(np.abs(np.triu(c, 1)) <= scale))
    if not (is_upper or is_lower):
        raise NotTriangularError("matrix is not triangular within tolerance")
    out = 1 + 0j
    for k in range(n):
        out *= a.entry(k, k).weak_norm()
    return out


def scaling_exponent_probe(a: BqMatrix, mu: Biquaternion) -> int:
    """Measure k in ``central_det(mu * A) == weak_norm(mu)**k * central_det(A)``.

    Tries the two candidate exponents n and 2n and returns the better match
    (the smaller one on ties, which occur when ``|weak_norm(mu)| == 1``).
    The derivation predicts n; the probe exists so the shipped law is the
    measured one, not a claimed one.

    Raises:
        ValueError: for degenerate probes (singular A or zero-divisor mu),
            or when neither exponent matches within a relative error of 1e-6.
    """
    n = a._require_square()
    det_a = central_det(a)
    nw = mu.weak_norm()
    if abs(det_a) <= 1e-300 or abs(nw) <= 1e-300:
        raise ValueError("degenerate probe: singular matrix or zero-divisor scalar")
    ratio = central_det(mu * a) / det_a
    best_k, best_err = None, np.inf
    for k in (n, 2 * n):
        target = nw**k
        err = abs(ratio - target) / max(abs(target), 1e-300)
        if err < best_err - 1e-15:
            best_k, best_err = k, err
    if best_err > _EXPONENT_TOL:
        raise ValueError(
            f"measured ratio {ratio!r} matches neither candidate exponent "
            f"(best relative error {best_err:.3e})"
        )
    return best_k
