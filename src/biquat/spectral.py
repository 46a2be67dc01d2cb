"""Right eigenvalues, regular eigenpairs, and similarity of square
biquaternion matrices.

The right eigenvalue equation is ``A @ X == X * lam`` for a nonzero column
``X`` (order matters: the algebra is noncommutative).  Everything here is
computed on the block representation: its eigenvalues are exactly the
complex right eigenvalues of ``A``, each of its eigenvectors ``Y`` lifts
through the frame to a quaternion eigenvector ``X``, and two matrices are
similar over the algebra exactly when their block representations are
similar over the complex numbers (equal Jordan fingerprints).  Similarity,
diagonalizability and similarity to a complex matrix read the one Jordan
structure of :func:`clinalg.jordan_fingerprint`, from eigenvalues only.

A *regular* right eigenpair is one whose eigenvector has rank 1 as a
quaternion column (block-representation rank 2); its eigenvalue is a full
biquaternion.  Any 2n x 2 complex ``Y`` spanning an invariant subspace of
the block representation, ``rep @ Y == Y @ T``, lifts to such a pair: ``X``
is the preimage of ``Y`` and the eigenvalue the preimage of ``T``.  The
leading two vectors of one complex Schur form are such a ``Y``, with
orthonormal columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clinalg
from .errors import DimensionError, InvalidPairError
from .matrix import BqMatrix, _block_norm
from .scalar import Biquaternion, CanonicalCase, image

# Largest eigenpair residual, relative to |A|, that
# derived_complex_eigenvalues accepts.
_PAIR_TOL = 1e-8


@dataclass(frozen=True)
class EigenPair:
    """Complex right eigenvalue with its quaternion eigenvector."""

    value: complex
    vector: BqMatrix  # n x 1, nonzero
    residual: float  # ||A @ X - X * value|| in the block Frobenius norm


@dataclass(frozen=True)
class RegularEigenPair:
    """Biquaternion right eigenvalue whose eigenvector has rank 1."""

    value: Biquaternion
    vector: BqMatrix  # n x 1 with twice_rank == 2
    residual: float


def adjoint_vector(x: BqMatrix) -> np.ndarray:
    """Complex adjoint of a quaternion column: ``[X0 + i*X1; X2 - i*X3]``.

    Satisfies ``adjoint_vector(A @ X) == A.block_repr() @ adjoint_vector(X)``
    and ``adjoint_vector(X * lam) == adjoint_vector(X) * lam`` for complex
    ``lam`` (it is the first column of the block representation of X).
    """
    if x.cols != 1:
        raise DimensionError(f"expected a column, got shape {x.shape}")
    m11, _, m21, _ = image(x.components[:, :, 0])
    return np.concatenate([m11, m21])


def _lift_columns(y: np.ndarray) -> BqMatrix:
    # X = frame @ Y, column by column: components (Y_up, -i*Y_up, Y_low,
    # i*Y_low); a column is nonzero whenever its Y is.
    n = y.shape[0] // 2
    up, low = y[:n], y[n:]
    return BqMatrix._wrap(np.stack([up, -1j * up, low, 1j * low]).reshape(4, n, y.shape[1]))


def _pair_residual(a: BqMatrix, x: BqMatrix, lam) -> float:
    return (a @ x - x * lam).norm()


def right_eigenpairs(a: BqMatrix) -> list[EigenPair]:
    """All 2n complex right eigenpairs of a square n x n matrix.

    Every eigenpair (lam, Y) of the block representation yields the
    quaternion eigenpair (lam, frame @ Y); conversely no complex right
    eigenvalue exists outside the block representation's spectrum.  Pairs
    are sorted by (real, imag) of the eigenvalue.
    """
    a._require_square()
    w, v = clinalg.eig(a.block_repr())
    x = _lift_columns(v)
    # One product for every column: lam is central, so X * lam scales each
    # column by its own value.
    residuals = _block_norm((a @ x).components - x.components * w, axis=(0, 1))
    return [
        EigenPair(complex(w[k]), x.col(k), float(residuals[k])) for k in range(w.size)
    ]


def regular_right_eigenpair(a: BqMatrix) -> RegularEigenPair:
    """One regular right eigenpair; every square matrix has one.

    With ``rep = Q T Q^H`` one complex Schur form of the block
    representation, ``rep @ Q[:, :2] == Q[:, :2] @ T[:2, :2]``: the two
    leading Schur vectors lift to the eigenvector and the leading 2x2 block
    of ``T`` to the eigenvalue.  The Schur vectors are orthonormal, so the
    eigenvector's block representation has full column rank 2 and the
    residual is the backward error of the Schur form.
    """
    n = a._require_square()
    if n < 1:
        raise DimensionError("empty matrix has no eigenpairs")
    t, q = clinalg.schur(a.block_repr(), vectors=True)
    x = BqMatrix.from_block_repr(q[:, :2])
    value = Biquaternion.from_complex_matrix(t[:2, :2])
    return RegularEigenPair(value, x, _pair_residual(a, x, value))


def derived_complex_eigenvalues(a: BqMatrix, pair: RegularEigenPair) -> list[complex]:
    """Complex eigenvalues of the block representation derived from a
    regular right eigenpair.

    They are the eigenvalues of the 2x2 image of the pair's value, read off
    its canonical form: a central value contributes itself twice; one with
    nonzero vector magnitude ``tau`` contributes ``a0 +/- tau*i``; an
    isotropic one contributes ``a0`` once.

    Raises:
        InvalidPairError: if the pair's residual exceeds ``1e-8 * |A|``.
    """
    residual = _pair_residual(a, pair.vector, pair.value)
    if residual > _PAIR_TOL * max(a.norm(), 1e-300):
        raise InvalidPairError(
            f"eigenpair residual {residual:.3e} exceeds tolerance"
        )
    form, case = pair.value.canonical_form()
    if case is CanonicalCase.COMPLEX:
        return [form.a0, form.a0]
    if case is CanonicalCase.NULL:
        return [form.a0]
    m11, _, _, m22 = image(form.components)  # a0 + i*tau, a0 - i*tau
    return [m11, m22]


def similar(a: BqMatrix, b: BqMatrix) -> bool:
    """Similarity over the biquaternion algebra.

    Equivalent to similarity of the block representations over the complex
    numbers, decided by comparing Jordan fingerprints under tolerance
    pairing of eigenvalue clusters.

    Raises:
        ConvergenceError, OverflowError: see :func:`clinalg.jordan_fingerprint`.
    """
    return _similar(a, b)[0]


def diagonalizable(a: BqMatrix) -> bool:
    """True when the matrix is similar to a diagonal matrix over the algebra.

    Holds exactly when no Jordan block of the block representation exceeds
    size 2 (each diagonal entry's 2x2 image is one block of size 2 at most),
    i.e. the second generalized nullity of every eigenvalue already equals
    its algebraic multiplicity.  The interleaved representation is
    permutation-similar to the block one, so it has the same blocks.

    Raises:
        ConvergenceError, OverflowError: see :func:`clinalg.jordan_fingerprint`.
    """
    return _diagonalizable(a)[0]


def similar_to_complex(a: BqMatrix) -> tuple[bool, np.ndarray | None]:
    """Whether the matrix is similar (over the algebra) to a complex matrix.

    Holds exactly when the block representation's Jordan structure is
    doubled: every (eigenvalue, block size) class occurs an even number of
    times.  On success, returns a complex n x n Jordan-form witness built
    from half of each class.

    Raises:
        ConvergenceError, OverflowError: see :func:`clinalg.jordan_fingerprint`.
    """
    return _similar_to_complex(a)[:2]


# Each verdict below also returns the fingerprints it was decided from, so
# the CLI prints the very structure behind the verdict without recomputing it.


def _similar(a: BqMatrix, b: BqMatrix):
    a._require_square()
    b._require_square()
    if a.shape != b.shape:
        raise DimensionError(f"size mismatch: {a.shape} vs {b.shape}")
    ra, rb = a.block_repr(), b.block_repr()
    fa = clinalg.jordan_fingerprint(ra)
    fb = clinalg.jordan_fingerprint(rb)
    scale = max(clinalg.matrix_scale(ra), clinalg.matrix_scale(rb), 1e-300)
    return clinalg.fingerprints_match(fa, fb, clinalg.CLUSTER_TOL * scale), fa, fb


def _diagonalizable(a: BqMatrix):
    a._require_square()
    fp = clinalg.jordan_fingerprint(a.block_repr())
    for _, weyr in fp:
        mult = weyr[-1]
        nu2 = weyr[1] if len(weyr) > 1 else weyr[0]
        if nu2 != mult:
            return False, fp
    return True, fp


def _similar_to_complex(a: BqMatrix):
    n = a._require_square()
    fp = clinalg.jordan_fingerprint(a.block_repr())
    blocks: list[tuple[complex, int]] = []
    for lam, weyr in fp:
        for size, count in clinalg.weyr_to_block_sizes(weyr).items():
            if count % 2:
                return False, None, fp
            blocks.extend([(lam, size)] * (count // 2))
    blocks.sort(key=lambda item: (item[0].real, item[0].imag, item[1]))
    j = np.zeros((n, n), dtype=complex)
    pos = 0
    for lam, size in blocks:
        j[pos : pos + size, pos : pos + size] = lam * np.eye(size) + np.diag(
            np.ones(size - 1), 1
        )
        pos += size
    return True, j, fp
