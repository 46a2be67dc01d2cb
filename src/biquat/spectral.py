"""Right eigenvalues, regular eigenpairs, and similarity of square
biquaternion matrices.

The right eigenvalue equation is ``A @ X == X * lam`` for a nonzero column
``X`` (order matters: the algebra is noncommutative).  Everything here is
computed on the block representation: its eigenvalues are exactly the
complex right eigenvalues of ``A``, each of its eigenvectors ``Y`` lifts
through the frame to a quaternion eigenvector ``X``, and two matrices are
similar over the algebra exactly when their block representations are
similar over the complex numbers (equal Jordan fingerprints).  Similarity,
diagonalizability and similarity to a complex matrix read one frozen value
per operand, :func:`jordan_structure`, from eigenvalues only.  It is kept
for the last two operands, keyed by the matrix value, so ``similar(x, y)``
followed by ``diagonalizable(x)`` computes two fingerprints, not three; an
error is not kept, and a refused matrix is refused again on every call.

A *regular* right eigenpair is one whose eigenvector has rank 1 as a
quaternion column (block-representation rank 2); its eigenvalue is a full
biquaternion.  Any 2n x 2 complex ``Y`` spanning an invariant subspace of
the block representation, ``rep @ Y == Y @ T``, lifts to such a pair: ``X``
is the preimage of ``Y`` and the eigenvalue the preimage of ``T``.  The
leading two vectors of one complex Schur form are such a ``Y``, with
orthonormal columns.  A given pair is checked by the rank rule alone: its
vector regular, its residual within ``DEFAULT_TOL * |A| * |X|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import clinalg
from .errors import DimensionError, InvalidPairError
from .matrix import BqMatrix
from .scalar import Biquaternion, CanonicalCase, image


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
    return BqMatrix._wrap(np.array([up, -1j * up, low, 1j * low]).reshape(4, n, y.shape[1]))


def _pair_residual(rep: np.ndarray, bx: np.ndarray, lam: Biquaternion) -> float:
    """``|A @ X - X * lam|`` in the block norm, from the block representations of ``A``
    and ``X``: ``block(X * lam) == block(X) @ image(lam)``, so one product serves."""
    with np.errstate(over="ignore", invalid="ignore"):  # within_range reports overflow
        r = clinalg.within_range(rep @ bx - bx @ lam.as_complex_matrix(), "an eigenpair residual")
    return clinalg.matrix_scale(r)


def right_eigenpairs(a: BqMatrix) -> list[EigenPair]:
    """All 2n complex right eigenpairs of a square n x n matrix.

    Every eigenpair (lam, Y) of the block representation yields the
    quaternion eigenpair (lam, frame @ Y); conversely no complex right
    eigenvalue exists outside the block representation's spectrum.  Pairs
    are sorted by (real, imag) of the eigenvalue.

    Raises:
        OverflowError: if an eigenpair or its residual lies beyond the float range.
    """
    n = a._require_square()
    rep = a.block_repr()
    w, v = clinalg.eig(rep)
    x = _lift_columns(v)
    # One product for every column: lam is central, so block(X * lam) is
    # block(X) * lam, and columns k and 2n + k of block(X) are block(X_k).
    bx = x.block_repr()
    with np.errstate(over="ignore", invalid="ignore"):  # within_range reports overflow
        r = clinalg.within_range(rep @ bx - bx * np.concatenate([w, w]), "an eigenpair residual")
    residuals = clinalg.norms(r.reshape(2 * n, 2, 2 * n), axis=(0, 1))
    return [
        EigenPair(lam, col, res)
        for lam, col, res in zip(w.tolist(), x._columns(), residuals.tolist())
    ]


def regular_right_eigenpair(a: BqMatrix) -> RegularEigenPair:
    """One regular right eigenpair; every square matrix has one.

    With ``rep = Q T Q^H`` one complex Schur form of the block
    representation, ``rep @ Q[:, :2] == Q[:, :2] @ T[:2, :2]``: the two
    leading Schur vectors lift to the eigenvector and the leading 2x2 block
    of ``T`` to the eigenvalue.  The Schur vectors are orthonormal, so the
    eigenvector's block representation has full column rank 2 and the
    residual is the backward error of the Schur form.

    Raises:
        OverflowError: if the Schur form, the eigenvalue or the residual lies beyond the float range.
    """
    n = a._require_square()
    if n < 1:
        raise DimensionError("empty matrix has no eigenpairs")
    rep = a.block_repr()
    t, q = clinalg.schur(rep, vectors=True)
    x = BqMatrix.from_block_repr(q[:, :2])
    value = Biquaternion.from_complex_matrix(t[:2, :2])
    return RegularEigenPair(value, x, _pair_residual(rep, x.block_repr(), value))


def derived_complex_eigenvalues(a: BqMatrix, pair: RegularEigenPair) -> list[complex]:
    """Complex eigenvalues of the block representation derived from a
    regular right eigenpair.

    They are the eigenvalues of the 2x2 image of the pair's value, read off
    its canonical form: a central value contributes itself twice; one with
    nonzero vector magnitude ``tau`` contributes ``a0 +/- tau*i``; an
    isotropic one contributes ``a0`` once.

    Raises:
        InvalidPairError: unless the vector is regular (block rank 2 by the
            rank rule) and the residual at most ``DEFAULT_TOL * |A| * |X|``
            in block norms, which hold for ``X`` times any nonzero complex number.
        OverflowError: if the residual lies beyond the float range.
    """
    rep, bx = a.block_repr(), pair.vector.block_repr()
    if clinalg.rank(bx) < 2:
        raise InvalidPairError("eigenvector is not regular: its block rank is below 2")
    residual = _pair_residual(rep, bx, pair.value)
    # |X| > 0 divided out: the bound's product neither under- nor overflows
    if residual / clinalg.matrix_scale(bx) > clinalg.DEFAULT_TOL * clinalg.matrix_scale(rep):
        raise InvalidPairError(f"eigenpair residual {residual:.3e} exceeds tolerance")
    form, case = pair.value.canonical_form()
    if case is CanonicalCase.COMPLEX:
        return [form.a0, form.a0]
    if case is CanonicalCase.NULL:
        return [form.a0]
    m11, _, _, m22 = image(form.components)  # a0 + i*tau, a0 - i*tau
    return [m11, m22]


@lru_cache(maxsize=2)
def jordan_structure(a: BqMatrix) -> clinalg.JordanStructure:
    """The :class:`clinalg.JordanStructure` of the block representation of
    ``a``, the value every verdict here reads.

    Kept for the last two operands, keyed by the matrix value: one
    :func:`similar` call has two, and the next verdict on either, or a
    caller printing what a verdict read, gets the same value back.  A raised
    error is not kept, so it is raised again.

    Raises:
        ConvergenceError, OverflowError: see :func:`clinalg.jordan_fingerprint`.
    """
    return clinalg.jordan_fingerprint(a.block_repr())


def similar(a: BqMatrix, b: BqMatrix) -> bool:
    """Similarity over the biquaternion algebra.

    Equivalent to similarity of the block representations over the complex
    numbers, decided by comparing Jordan fingerprints under tolerance
    pairing of eigenvalue clusters.

    Raises:
        ConvergenceError, OverflowError: see :func:`clinalg.jordan_fingerprint`.
    """
    a._require_square()
    b._require_square()
    if a.shape != b.shape:
        raise DimensionError(f"size mismatch: {a.shape} vs {b.shape}")
    sa, sb = jordan_structure(a), jordan_structure(b)
    gap = clinalg.CLUSTER_TOL * max(sa.scale, sb.scale, 1e-300)
    return clinalg.fingerprints_match(sa.clusters, sb.clusters, gap)


def diagonalizable(a: BqMatrix) -> bool:
    """True when the matrix is similar to a diagonal matrix over the algebra.

    Holds exactly when no Jordan block of the block representation exceeds
    size 2 (each diagonal entry's 2x2 image is one block of size 2 at most),
    i.e. every Weyr characteristic has at most two nullities (they strictly
    increase up to the algebraic multiplicity).  The interleaved
    representation is permutation-similar to the block one, so it has the
    same blocks.

    Raises:
        ConvergenceError, OverflowError: see :func:`clinalg.jordan_fingerprint`.
    """
    a._require_square()
    return all(len(weyr) <= 2 for _, weyr in jordan_structure(a).clusters)


def similar_to_complex(a: BqMatrix) -> tuple[bool, np.ndarray | None]:
    """Whether the matrix is similar (over the algebra) to a complex matrix.

    Holds exactly when the block representation's Jordan structure is
    doubled: every (eigenvalue, block size) class occurs an even number of
    times.  On success, returns a complex n x n Jordan-form witness built
    from half of each class.

    Raises:
        ConvergenceError, OverflowError: see :func:`clinalg.jordan_fingerprint`.
    """
    a._require_square()
    structure = jordan_structure(a)
    blocks: list[tuple[complex, int]] = []
    for (lam, _), sizes in zip(structure.clusters, structure.blocks):
        for size, count in sizes:
            if count % 2:
                return False, None
            blocks.extend([(lam, size)] * (count // 2))
    blocks.sort(key=lambda item: (item[0].real, item[0].imag, item[1]))
    lams = np.array([lam for lam, size in blocks for _ in range(size)], dtype=complex)
    ones = [float(k < size - 1) for _, size in blocks for k in range(size)]
    return True, np.diag(lams) + np.diag(ones[:-1], 1)
