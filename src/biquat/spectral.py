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
:func:`similar` reads the central traces first; a pair they set apart
computes (or displaces) no structure.

A *regular* right eigenpair is one whose eigenvector has rank 1 as a
quaternion column (block-representation rank 2); its eigenvalue is a full
biquaternion.  Any 2n x 2 complex ``Y`` with orthonormal columns spanning an
invariant subspace of the block representation, ``rep @ Y == Y @ T``, lifts
to such a pair: ``X`` is the preimage of ``Y`` (block rank 2, as ``Y`` has)
and the eigenvalue the preimage of ``T``.  :func:`regular_right_eigenpair`
takes ``Y`` by the first path that applies:

* ``n == 1``: ``Y`` is the identity, so the pair is the entry itself, with
  ``X = [1]`` and residual exactly 0.
* Two *semisimple* clusters (Weyr characteristic of length 1) in the
  operand's :func:`jordan_structure`: an eigenvector of each of two of them
  by inverse iteration, orthonormalised by QR, with ``T`` their Rayleigh
  quotient.  No Schur vectors are formed, so a simple spectrum loads no
  scipy.  The pair is kept only if its residual is at backward-error level,
  ``4 * 2n * eps * |A| * |X|``.
* Schur: the leading two vectors of one complex Schur form (``zgees`` with
  vectors).  Spectra without two semisimple clusters (a Jordan block at
  every eigenvalue, a scalar matrix) take it, as do refused structures and
  eigenvector pairs that miss the bound.

A given pair is checked by the rank rule alone: its vector regular, its
residual within ``DEFAULT_TOL * |A| * |X|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import clinalg
from .errors import ConvergenceError, DimensionError, InvalidPairError
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
    return x.block_repr()[:, 0]


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
    # One product for every column: lam is central, and the lift leaves the
    # second block column of block(X) zero; column k of the first is X_k's.
    bx = x.block_repr()[:, : 2 * n]
    with np.errstate(over="ignore", invalid="ignore"):  # within_range reports overflow
        r = clinalg.within_range(rep @ bx - bx * w, "an eigenpair residual")
    residuals = clinalg.norms(r, axis=0)
    return [
        EigenPair(lam, col, res)
        for lam, col, res in zip(w.tolist(), x._columns(), residuals.tolist())
    ]


def regular_right_eigenpair(a: BqMatrix) -> RegularEigenPair:
    """One regular right eigenpair; every square matrix has one.

    Each path lifts an orthonormal 2n x 2 ``Y`` with ``rep @ Y == Y @ T``
    (see the module docstring): ``n == 1`` gives the entry, eigenvector
    ``[1]`` and residual 0; two semisimple clusters in
    :func:`jordan_structure` give ``Y`` from two inverse-iteration steps at
    each (both solves batched) and ``T = Y^H rep Y``, returned only if the
    residual is at most ``4 * 2n * eps * |A| * |X|``, the backward error of
    a stable factorization; otherwise ``Y`` is the two leading Schur vectors
    and ``T`` the leading 2x2 block of the Schur form, whose backward error
    the residual is.

    Raises:
        OverflowError: if the Schur form, the eigenvalue or the residual lies beyond the float range.
    """
    n = a._require_square()
    if n < 1:
        raise DimensionError("empty matrix has no eigenpairs")
    if n == 1:  # the whole block space is invariant
        return RegularEigenPair(a.entry(0, 0), BqMatrix.identity(1), 0.0)
    rep = a.block_repr()
    try:
        pair = _eigenvector_pair(a, rep)
    except (ConvergenceError, OverflowError, np.linalg.LinAlgError):
        pair = None
    if pair is not None:
        return pair
    t, q = clinalg.schur(rep, vectors=True)
    x = BqMatrix.from_block_repr(q[:, :2])
    value = Biquaternion.from_complex_matrix(t[:2, :2])
    return RegularEigenPair(value, x, _pair_residual(rep, x.block_repr(), value))


_EPS = float(np.finfo(float).eps)
# Inverse iteration's start vector: phases a golden angle apart.  It must not
# be orthogonal to the left eigenvector, which a constant vector can be for
# sparse integer input.
_GOLDEN_ANGLE = math.pi * (3 - math.sqrt(5))


def _eigenvector_pair(a: BqMatrix, rep: np.ndarray) -> RegularEigenPair | None:
    """The eigenvector path of :func:`regular_right_eigenpair`, or None when
    it does not apply or its pair misses the residual bound."""
    structure = jordan_structure(a)
    lams = [lam for lam, weyr in structure.clusters if len(weyr) == 1]
    if len(lams) < 2:
        return None
    far = max(lams[1:], key=lambda lam: abs(lam - lams[0]))
    size = rep.shape[0]
    # Solved on rep times the power of two that brings |rep| into [0.5, 1),
    # so the solution's growth ~1/eps cannot overflow at any scale.  The
    # shift eps*|rep| keeps an exactly computed eigenvalue off a zero pivot.
    unit = clinalg.scaling_unit(structure.scale)
    shifts = np.array([lams[0], far]) * unit + _EPS * structure.scale * unit
    start = np.exp(1j * _GOLDEN_ANGLE * np.arange(size))
    with np.errstate(over="ignore", invalid="ignore"):  # within_range reports overflow
        shifted = rep * unit - shifts[:, None, None] * np.eye(size)
        # Two steps: the second takes the error of the computed eigenvalue out
        # of the vector, so its residual stays at backward-error level.
        y = np.linalg.solve(shifted, np.linalg.solve(shifted, start[:, None]))[:, :, 0].T
        q = np.linalg.qr(y)[0]  # orthonormal: block rank 2 by construction
        t = clinalg.within_range(q.conj().T @ (rep @ q), "the Rayleigh quotient")
    value = Biquaternion.from_complex_matrix(t)
    x = BqMatrix.from_block_repr(q)
    bx = x.block_repr()
    residual = _pair_residual(rep, bx, value)
    # |X| > 0 divided out: the bound's product neither under- nor overflows
    if residual / clinalg.matrix_scale(bx) > 4 * size * _EPS * structure.scale:
        return None
    return RegularEigenPair(value, x, residual)


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
        DimensionError: unless ``a`` is square and the vector a column of its size.
    """
    if pair.vector.shape != (a._require_square(), 1):
        raise DimensionError(f"expected a {a.rows}x1 eigenvector, got shape {pair.vector.shape}")
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
    numbers, decided by comparing Jordan fingerprints under tolerance pairing
    of eigenvalue clusters, ``gap = CLUSTER_TOL * max(|A|, |B|)`` with no floor.
    Clusters paired with equal sizes put the block traces ``2 tr(A0)`` within
    ``2n * gap``, so ``|tr A0 - tr B0| > 2n * gap``, twice that, is False in
    O(n) without either structure; a non-finite trace is no evidence.

    Raises:
        ConvergenceError, OverflowError: see :func:`clinalg.jordan_fingerprint`; only if the traces agree.
    """
    n = a._require_square()
    if a.shape != b.shape:  # so b is square too
        raise DimensionError(f"size mismatch: {a.shape} vs {b.shape}")
    gap = clinalg.CLUSTER_TOL * max(a.norm(), b.norm())
    with np.errstate(over="ignore", invalid="ignore"):
        traces = a.components[0].trace(), b.components[0].trace()
        if np.isfinite(traces).all() and abs(traces[0] - traces[1]) > 2 * n * gap:
            return False
    sa, sb = jordan_structure(a), jordan_structure(b)
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
