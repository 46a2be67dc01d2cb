"""Right eigenvalues, regular eigenpairs, and similarity of square
biquaternion matrices.

The right eigenvalue equation is ``A @ X == X * lam`` for a nonzero column
``X`` (order matters: the algebra is noncommutative).  Everything here is
computed on the block representation: its eigenvalues are exactly the
complex right eigenvalues of ``A``, each of its eigenvectors ``Y`` lifts
through the frame to a quaternion eigenvector ``X``, and two matrices are
similar over the algebra exactly when their block representations are
similar over the complex numbers (equal Jordan fingerprints).  Similarity,
diagonalizability, similarity to a complex matrix and regular eigenpairs all
read the one spectral structure of :func:`clinalg.spectral_clusters`.

A *regular* right eigenpair is one whose eigenvector has rank 1 as a
quaternion column (block-representation rank 2); its eigenvalue is a full
biquaternion obtained by packing two complex eigenpairs (or a Jordan chain,
in the totally defective case) into a single 2x2 complex cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clinalg
from .errors import DimensionError, InvalidPairError, RankDeficientLiftError
from .matrix import BqMatrix
from .scalar import Biquaternion, CanonicalCase


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
    c = x.components[:, :, 0]
    return np.concatenate([c[0] + 1j * c[1], c[2] - 1j * c[3]])


def _lift_column(y: np.ndarray) -> BqMatrix:
    # X = frame @ Y: components (Y_up, -i*Y_up, Y_low, i*Y_low); nonzero
    # whenever Y is.
    n = y.shape[0] // 2
    up, low = y[:n], y[n:]
    c = np.stack([up, -1j * up, low, 1j * low]).reshape(4, n, 1)
    return BqMatrix(c)


def _pair_residual(a: BqMatrix, x: BqMatrix, lam) -> float:
    return (a @ x - x * lam).norm()


def _normalize_phases(basis: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest entry is real positive (makes
    constructed eigenvectors deterministic and sign-stable)."""
    out = basis.copy()
    for k in range(out.shape[1]):
        pivot = out[np.argmax(np.abs(out[:, k])), k]
        if pivot != 0:
            out[:, k] *= abs(pivot) / pivot
    return out


def right_eigenpairs(a: BqMatrix) -> list[EigenPair]:
    """All 2n complex right eigenpairs of a square n x n matrix.

    Every eigenpair (lam, Y) of the block representation yields the
    quaternion eigenpair (lam, frame @ Y); conversely no complex right
    eigenvalue exists outside the block representation's spectrum.  Pairs
    are sorted by (real, imag) of the eigenvalue.
    """
    a._require_square()
    w, v = clinalg.eig(a.block_repr())
    pairs = []
    for k in range(w.size):
        x = _lift_column(v[:, k])
        lam = complex(w[k])
        pairs.append(EigenPair(lam, x, _pair_residual(a, x, lam)))
    return pairs


def regular_right_eigenpair(
    a: BqMatrix, tol: float = clinalg.DEFAULT_TOL
) -> RegularEigenPair:
    """One regular right eigenpair; every square matrix has one.

    Two complex eigenpairs with independent eigenvectors are packed into a
    rank-1 quaternion column and a diagonal 2x2 eigenvalue cell.  When the
    block representation has a single independent eigenvector in total (one
    Jordan block), a Jordan chain supplies the second column and the
    eigenvalue cell picks up the superdiagonal 1.

    Raises:
        RankDeficientLiftError: if no candidate eigenvector pairing yields
            a rank-1 lift (numerically pathological input).
    """
    n = a._require_square()
    if n < 1:
        raise DimensionError("empty matrix has no eigenpairs")
    rep = a.block_repr()
    # Descending by (real, imag): the dominant eigenvalue leads, which keeps
    # small worked examples in their familiar orientation.
    clusters = [
        c._replace(basis=_normalize_phases(c.basis))
        for c in reversed(clinalg.spectral_clusters(rep, tol))
    ]

    if sum(c.basis.shape[1] for c in clusters) >= 2:
        orderings = _pair_orderings(clusters)
        for (lam1, y1), (lam2, y2) in orderings:
            m = np.column_stack([y1, y2])
            if clinalg.rank(m, tol) != 2:
                continue
            x = BqMatrix.from_block_repr(m)
            value = Biquaternion.from_complex_matrix(np.diag([lam1, lam2]))
            if x.rank(tol).twice_rank != 2:
                continue
            return RegularEigenPair(value, x, _pair_residual(a, x, value))
        raise RankDeficientLiftError("no eigenvector pairing produced a rank-1 lift")

    # Totally defective: one cluster, geometric multiplicity 1.
    lam1 = clusters[0].value
    y1 = clusters[0].basis[:, 0]
    shifted = rep - lam1 * np.eye(2 * n)
    y2, *_ = np.linalg.lstsq(shifted, y1, rcond=None)
    m = np.column_stack([y1, y2])
    if clinalg.rank(m, tol) != 2:
        raise RankDeficientLiftError("Jordan chain lift is rank deficient")
    x = BqMatrix.from_block_repr(m)
    value = Biquaternion.from_complex_matrix(np.array([[lam1, 1.0], [0.0, lam1]]))
    return RegularEigenPair(value, x, _pair_residual(a, x, value))


def _pair_orderings(clusters):
    """Candidate eigenvector pairings, best conditioned first.

    Prefers two distinct clusters with maximal eigenvalue separation (the
    eigenvalue pair ordered descending), then falls back to orthonormal
    pairs inside one cluster.
    """
    orderings = []
    pairs = []
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            li, lj = clusters[i][0], clusters[j][0]
            pairs.append((abs(li - lj), i, j))
    pairs.sort(key=lambda p: -p[0])
    for _, i, j in pairs:
        li, _, bi = clusters[i]
        lj, _, bj = clusters[j]
        first, second = ((li, bi[:, 0]), (lj, bj[:, 0]))
        if (lj.real, lj.imag) > (li.real, li.imag):
            first, second = second, first
        orderings.append((first, second))
    for lam, _, basis in clusters:
        for k in range(basis.shape[1]):
            for l in range(k + 1, basis.shape[1]):
                orderings.append(((lam, basis[:, k]), (lam, basis[:, l])))
    return orderings


def derived_complex_eigenvalues(
    a: BqMatrix,
    pair: RegularEigenPair,
    tol: float = 1e-8,
) -> list[complex]:
    """Complex eigenvalues of the block representation derived from a
    regular right eigenpair.

    A central eigenvalue contributes itself twice; an eigenvalue with
    nonzero vector magnitude ``tau`` contributes ``a0 +/- tau*i`` (via the
    similarity witness that rotates it onto ``a0 + tau*e1``); an isotropic
    one contributes ``a0`` once.

    Raises:
        InvalidPairError: if the pair's residual exceeds ``tol * |A|``.
    """
    residual = _pair_residual(a, pair.vector, pair.value)
    if residual > tol * max(a.norm(), 1e-300):
        raise InvalidPairError(
            f"eigenpair residual {residual:.3e} exceeds tolerance"
        )
    lam = pair.value
    form, case = lam.canonical_form()
    if case is CanonicalCase.COMPLEX:
        return [lam.a0, lam.a0]
    # Rotate the eigenvector by the witness: A (X p) = (X p) form, and the
    # block image of the canonical form is triangular with the derived
    # values on its diagonal.
    p = lam.similarity_witness()
    xp = pair.vector * p
    rotated = (a @ xp - xp * form).norm()
    if rotated > 1e3 * tol * max(a.norm(), 1.0) * (1.0 + p.norm() ** 2):
        raise InvalidPairError(
            f"witness-rotated residual {rotated:.3e} is inconsistent"
        )
    if case is CanonicalCase.GENERIC:
        tau = form.a1
        return [lam.a0 + 1j * tau, lam.a0 - 1j * tau]
    return [lam.a0]


def similar(a: BqMatrix, b: BqMatrix, tol: float = clinalg.DEFAULT_TOL) -> bool:
    """Similarity over the biquaternion algebra.

    Equivalent to similarity of the block representations over the complex
    numbers, decided by comparing Jordan fingerprints under tolerance
    pairing of eigenvalue clusters.
    """
    a._require_square()
    b._require_square()
    if a.shape != b.shape:
        raise DimensionError(f"size mismatch: {a.shape} vs {b.shape}")
    ra, rb = a.block_repr(), b.block_repr()
    fa = clinalg.jordan_fingerprint(ra, tol)
    fb = clinalg.jordan_fingerprint(rb, tol)
    scale = max(clinalg.matrix_scale(ra), clinalg.matrix_scale(rb), 1e-300)
    return clinalg.fingerprints_match(fa, fb, clinalg.CLUSTER_TOL * scale)


def diagonalizable(a: BqMatrix, tol: float = clinalg.DEFAULT_TOL) -> bool:
    """True when the matrix is similar to a diagonal matrix over the algebra.

    Holds exactly when no Jordan block of the block representation exceeds
    size 2 (each diagonal entry's 2x2 image is one block of size 2 at most),
    i.e. the second generalized nullity of every eigenvalue already equals
    its algebraic multiplicity.  The interleaved representation is
    permutation-similar to the block one, so it has the same blocks.
    """
    a._require_square()
    fp = clinalg.jordan_fingerprint(a.block_repr(), tol)
    for _, weyr in fp:
        mult = weyr[-1]
        nu2 = weyr[1] if len(weyr) > 1 else weyr[0]
        if nu2 != mult:
            return False
    return True


def similar_to_complex(
    a: BqMatrix, tol: float = clinalg.DEFAULT_TOL
) -> tuple[bool, np.ndarray | None]:
    """Whether the matrix is similar (over the algebra) to a complex matrix.

    Holds exactly when the block representation's Jordan structure is
    doubled: every (eigenvalue, block size) class occurs an even number of
    times.  On success, returns a complex n x n Jordan-form witness built
    from half of each class.
    """
    n = a._require_square()
    fp = clinalg.jordan_fingerprint(a.block_repr(), tol)
    blocks: list[tuple[complex, int]] = []
    for lam, weyr in fp:
        for size, count in clinalg.weyr_to_block_sizes(weyr).items():
            if count % 2:
                return False, None
            blocks.extend([(lam, size)] * (count // 2))
    blocks.sort(key=lambda item: (item[0].real, item[0].imag, item[1]))
    j = np.zeros((n, n), dtype=complex)
    pos = 0
    for lam, size in blocks:
        j[pos : pos + size, pos : pos + size] = lam * np.eye(size) + np.diag(
            np.ones(size - 1), 1
        )
        pos += size
    return True, j
