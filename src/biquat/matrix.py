"""Matrices over the biquaternion algebra.

A ``BqMatrix`` is stored as four complex component matrices ``A0..A3`` with
``A = A0 + A1*e1 + A2*e2 + A3*e3`` (structure-of-arrays, shape ``(4, m, n)``),
so the scalar algebra's tables of :mod:`scalar` apply to whole component
arrays: :func:`scalar.image` of ``A0..A3`` gives the four blocks of both
complex representations, :func:`scalar.preimage` lifts them back, and
:func:`scalar.product` with ``np.matmul`` is the matrix product.

* ``block_repr``:   ``[[A0+i*A1, -(A2+i*A3)], [A2-i*A3, A0-i*A1]]``  (2m x 2n)
* ``interleaved_repr``: the 2x2 image of each entry, laid out entrywise.

The two are linked by perfect-shuffle permutations
(:func:`shuffle_permutations`).  Norms and residuals are taken on the
components without forming a representation, by
``|block_repr(A)|_F**2 = 2 * sum_k |A_k|_F**2`` (entrywise,
``|x + i*y|**2 + |x - i*y|**2 = 2 * (|x|**2 + |y|**2)``).  Inversion,
pseudoinversion and rank are computed on the block representation and
lifted back; rank comes out as an exact half-integer (:class:`HalfRank`)
because the block representation of a zero-divisor-laden matrix can have
odd rank.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import clinalg
from .errors import DimensionError, NotInvertibleError
from .scalar import Biquaternion, image, preimage, product


@functools.total_ordering
@dataclass(frozen=True)
class HalfRank:
    """Rank of a biquaternion matrix, an exact half-integer.

    Stored as twice the rank so fractional values (odd block-representation
    rank) stay exact bookkeeping rather than floats.
    """

    twice_rank: int

    def __post_init__(self):
        if self.twice_rank < 0:
            raise ValueError("rank cannot be negative")

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice_rank, 2)

    def __str__(self) -> str:
        if self.twice_rank % 2:
            return f"{self.twice_rank}/2"
        return str(self.twice_rank // 2)

    def _as_fraction(self, other) -> Fraction:
        if isinstance(other, HalfRank):
            return other.value
        return Fraction(other)

    def __eq__(self, other) -> bool:
        try:
            return self.value == self._as_fraction(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __lt__(self, other) -> bool:
        return self.value < self._as_fraction(other)

    def __hash__(self):
        return hash(self.value)


class BqMatrix:
    """Dense matrix with biquaternion entries; immutable value semantics."""

    __slots__ = ("_c",)

    def __init__(self, components):
        c = np.array(components, dtype=complex)
        if c.ndim != 3 or c.shape[0] != 4:
            raise DimensionError(
                f"expected component array of shape (4, m, n), got {c.shape}"
            )
        self._adopt(c)

    @classmethod
    def _wrap(cls, c: np.ndarray) -> "BqMatrix":
        """Adopt, without a copy, a complex ``(4, m, n)`` array that the
        library has just built and that nothing else refers to."""
        out = object.__new__(cls)
        out._adopt(c)
        return out

    def _adopt(self, c: np.ndarray) -> None:
        if not np.all(np.isfinite(c)):
            raise ValueError("matrix contains non-finite components")
        c.setflags(write=False)
        object.__setattr__(self, "_c", c)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_entries(cls, rows) -> "BqMatrix":
        """Build from a nested list of entries (Biquaternion or complex)."""
        coerced = [[_as_bq(e) for e in row] for row in rows]
        m = len(coerced)
        n = len(coerced[0]) if m else 0
        if any(len(row) != n for row in coerced):
            raise DimensionError("ragged rows in entry list")
        c = np.zeros((4, m, n), dtype=complex)
        for i, row in enumerate(coerced):
            for j, e in enumerate(row):
                c[:, i, j] = e.components
        return cls(c)

    @classmethod
    def from_complex(cls, m) -> "BqMatrix":
        """Embed a complex matrix (all e-parts zero)."""
        m = clinalg.as_cmatrix(m)
        c = np.zeros((4, *m.shape), dtype=complex)
        c[0] = m
        return cls(c)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BqMatrix":
        return cls(np.zeros((4, rows, cols), dtype=complex))

    @classmethod
    def identity(cls, n: int) -> "BqMatrix":
        return cls.from_complex(np.eye(n))

    @classmethod
    def diag(cls, entries) -> "BqMatrix":
        entries = [_as_bq(e) for e in entries]
        n = len(entries)
        c = np.zeros((4, n, n), dtype=complex)
        for i, e in enumerate(entries):
            c[:, i, i] = e.components
        return cls(c)

    # -- structure -------------------------------------------------------------

    @property
    def components(self) -> np.ndarray:
        """Read-only component array of shape (4, m, n)."""
        return self._c

    @property
    def shape(self) -> tuple[int, int]:
        return self._c.shape[1], self._c.shape[2]

    @property
    def rows(self) -> int:
        return self._c.shape[1]

    @property
    def cols(self) -> int:
        return self._c.shape[2]

    def entry(self, i: int, j: int) -> Biquaternion:
        return Biquaternion(*self._c[:, i, j])

    def __getitem__(self, key):
        if isinstance(key, tuple) and len(key) == 2:
            i, j = key
            if isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer)):
                return self.entry(int(i), int(j))
            sub = self._c[:, i, j]
            if sub.ndim == 2:  # one axis collapsed: keep it a matrix
                sub = sub[:, None, :] if isinstance(i, (int, np.integer)) else sub[:, :, None]
            return BqMatrix(sub)
        raise TypeError("index with a (row, col) pair")

    def col(self, j: int) -> "BqMatrix":
        return BqMatrix(self._c[:, :, j : j + 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BqMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._c, other._c))

    def __hash__(self):
        return hash((self.shape, self._c.tobytes()))

    def allclose(self, other: "BqMatrix", tol: float = clinalg.DEFAULT_TOL) -> bool:
        """Componentwise equality within ``tol`` times the larger norm."""
        if self.shape != other.shape:
            return False
        scale = max(self.norm(), other.norm())
        return bool(np.all(np.abs(self._c - other._c) <= tol * scale))

    def norm(self) -> float:
        """Frobenius norm of the block representation (the residual norm
        used throughout the package)."""
        return float(_block_norm(self._c))

    def __repr__(self) -> str:
        return f"BqMatrix({self.rows}x{self.cols})"

    def __str__(self) -> str:
        rows = [
            "[" + ", ".join(str(self.entry(i, j)) for j in range(self.cols)) + "]"
            for i in range(self.rows)
        ]
        return "[" + ",\n ".join(rows) + "]"

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "BqMatrix") -> "BqMatrix":
        self._check_same_shape(other)
        return BqMatrix._wrap(self._c + other._c)

    def __sub__(self, other: "BqMatrix") -> "BqMatrix":
        self._check_same_shape(other)
        return BqMatrix._wrap(self._c - other._c)

    def __neg__(self) -> "BqMatrix":
        return BqMatrix._wrap(-self._c)

    def __matmul__(self, other: "BqMatrix") -> "BqMatrix":
        if not isinstance(other, BqMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        return BqMatrix._wrap(np.stack(product(self._c, other._c, np.matmul)))

    def __mul__(self, scalar) -> "BqMatrix":
        """Right scalar multiple ``A * lam`` (order matters for non-central
        scalars)."""
        if isinstance(scalar, BqMatrix):
            raise TypeError("use @ for matrix products")
        lam = _as_bq(scalar)
        s = np.asarray(lam.components, dtype=complex).reshape(4, 1, 1)
        return BqMatrix._wrap(np.stack(product(self._c, s, np.multiply)))

    def __rmul__(self, scalar) -> "BqMatrix":
        """Left scalar multiple ``lam * A``."""
        lam = _as_bq(scalar)
        s = np.asarray(lam.components, dtype=complex).reshape(4, 1, 1)
        return BqMatrix._wrap(np.stack(product(s, self._c, np.multiply)))

    def _check_same_shape(self, other: "BqMatrix"):
        if not isinstance(other, BqMatrix):
            raise TypeError(f"expected BqMatrix, got {type(other).__name__}")
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch: {self.shape} vs {other.shape}")

    # -- conjugations ---------------------------------------------------------------

    def dual(self) -> "BqMatrix":
        """Transpose with the e-part of every entry negated."""
        t = self._c.transpose(0, 2, 1)
        return BqMatrix._wrap(np.stack([t[0], -t[1], -t[2], -t[3]]))

    def hconj(self) -> "BqMatrix":
        """Hermitian conjugate: transpose with entrywise Hermitian conjugation."""
        t = self._c.transpose(0, 2, 1).conj()
        return BqMatrix._wrap(np.stack([t[0], -t[1], -t[2], -t[3]]))

    # -- complex representations ---------------------------------------------------

    def block_repr(self) -> np.ndarray:
        """The 2m x 2n block complex representation."""
        m, n = self.shape
        out = np.empty((2 * m, 2 * n), dtype=complex)
        out[:m, :n], out[:m, n:], out[m:, :n], out[m:, n:] = image(self._c)
        return out

    @classmethod
    def from_block_repr(cls, m) -> "BqMatrix":
        """Unique preimage of a 2m x 2n complex matrix under ``block_repr``."""
        m = clinalg.as_cmatrix(m)
        if m.shape[0] % 2 or m.shape[1] % 2:
            raise DimensionError(f"block representation must have even dims, got {m.shape}")
        hm, hn = m.shape[0] // 2, m.shape[1] // 2
        return cls._wrap(np.stack(preimage(m[:hm, :hn], m[:hm, hn:], m[hm:, :hn], m[hm:, hn:])))

    def interleaved_repr(self) -> np.ndarray:
        """The 2m x 2n representation whose (i, j) 2x2 block is the complex
        image of entry (i, j)."""
        m, n = self.shape
        out = np.zeros((2 * m, 2 * n), dtype=complex)
        out[0::2, 0::2], out[0::2, 1::2], out[1::2, 0::2], out[1::2, 1::2] = image(self._c)
        return out

    @classmethod
    def from_interleaved_repr(cls, m) -> "BqMatrix":
        """Unique preimage of a 2m x 2n complex matrix under
        ``interleaved_repr``."""
        m = clinalg.as_cmatrix(m)
        if m.shape[0] % 2 or m.shape[1] % 2:
            raise DimensionError(f"interleaved representation must have even dims, got {m.shape}")
        return cls._wrap(np.stack(preimage(m[0::2, 0::2], m[0::2, 1::2], m[1::2, 0::2], m[1::2, 1::2])))

    # -- lowered computations ----------------------------------------------------------

    def inverse(self) -> "BqMatrix":
        """Two-sided inverse, lifted from the block representation.

        Raises:
            NotInvertibleError: if the block representation is numerically
                rank deficient.
            OverflowError: if the inverse lies beyond the float range.
        """
        n = self._require_square()
        rep = self.block_repr()
        if clinalg.rank(rep) < 2 * n:
            raise NotInvertibleError("matrix is singular over the biquaternions")
        return BqMatrix.from_block_repr(clinalg.within_range(np.linalg.inv(rep), "the inverse"))

    def pinv(self) -> "BqMatrix":
        """Moore-Penrose inverse: unique solution of the four Penrose
        equations over the algebra; its block representation equals the
        complex pseudoinverse of this matrix's block representation."""
        return BqMatrix.from_block_repr(clinalg.pinv(self.block_repr()))

    def rank(self) -> HalfRank:
        """Half of the block representation's numerical rank, kept exact."""
        return HalfRank(clinalg.rank(self.block_repr()))

    def is_hermitian(self) -> bool:
        self._require_square()
        return self.allclose(self.hconj())

    def is_unitary(self) -> bool:
        ident, h = BqMatrix.identity(self._require_square()), self.hconj()
        return (self @ h).allclose(ident) and (h @ self).allclose(ident)

    def _require_square(self) -> int:
        if self.rows != self.cols:
            raise DimensionError(f"expected square matrix, got {self.shape}")
        return self.rows


def _as_bq(value) -> Biquaternion:
    if isinstance(value, Biquaternion):
        return value
    return Biquaternion(complex(value))


def _block_norm(c: np.ndarray, axis=None) -> np.ndarray:
    """Frobenius norm of the block representation of components ``c``, summed over ``axis``
    (all of it by default), from ``2 * sum_k |c_k|**2``, rescaled as :func:`clinalg.matrix_scale`."""
    with np.errstate(over="ignore"):
        out = np.sqrt(2 * np.sum(np.abs(c) ** 2, axis=axis))
    if 2.0**-480 < out.min(initial=np.inf) and out.max(initial=0.0) < np.inf:
        return out
    unit = clinalg.squaring_unit(np.abs(c).max(axis=axis, keepdims=True, initial=0.0))
    squares = np.sum(np.abs(c * unit) ** 2, axis=axis, keepdims=True)
    return np.squeeze(np.sqrt(2 * squares) / unit, axis=axis)


def shuffle_permutations(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Perfect-shuffle permutation matrices (G, H) linking the two
    representations: ``G @ A.block_repr() @ H == A.interleaved_repr()`` for
    every m x n biquaternion matrix A.

    G interleaves the two row blocks (row k next to row m+k); H is the
    analogous column shuffle.  Both are 0/1 matrices with exactly one 1 per
    row and column, and for m == n they are mutually inverse transposes.
    """
    g = np.zeros((2 * m, 2 * m), dtype=int)
    g[0::2, :m] = g[1::2, m:] = np.eye(m, dtype=int)
    h = np.zeros((2 * n, 2 * n), dtype=int)
    h[:n, 0::2] = h[n:, 1::2] = np.eye(n, dtype=int)
    return g, h


def recon_frame(t: int) -> BqMatrix:
    """The t x 2t frame ``[(1 - i*e1)*I, (e2 + i*e3)*I]`` used to rebuild a
    quaternion matrix from its block representation; satisfies
    ``frame @ frame.hconj() == 4*I``."""
    ident = np.eye(t)
    zero = np.zeros((t, t))
    c = np.stack(
        [
            np.hstack([ident, zero]).astype(complex),
            np.hstack([-1j * ident, zero]),
            np.hstack([zero, ident]).astype(complex),
            np.hstack([zero, 1j * ident]),
        ]
    )
    return BqMatrix(c)


def repr_factor(t: int) -> BqMatrix:
    """The self-inverse unitary 2t x 2t factor Q with
    ``Q @ diag(A, A) @ Q`` equal to the embedded block representation of A.

    Q is independent of A; this is the universal similarity factorization
    that makes the block representation canonical rather than ad hoc.
    """
    ident = np.eye(t)
    zero = np.zeros((t, t))
    c0 = 0.5 * np.block([[ident, zero], [zero, ident]]).astype(complex)
    c1 = 0.5 * np.block([[-1j * ident, zero], [zero, 1j * ident]])
    c2 = 0.5 * np.block([[zero, ident], [-ident, zero]]).astype(complex)
    c3 = 0.5 * np.block([[zero, 1j * ident], [1j * ident, zero]])
    return BqMatrix(np.stack([c0, c1, c2, c3]))


def frame_reconstruct(m) -> BqMatrix:
    """Rebuild the m x n biquaternion matrix from a 2m x 2n complex matrix
    using frame arithmetic carried out inside the algebra:
    ``frame(m) @ M @ frame(n).hconj() / 4``.

    Agrees with :meth:`BqMatrix.from_block_repr` whenever M is an actual
    block representation; the two routes are kept separate so they can
    cross-check each other.
    """
    m = clinalg.as_cmatrix(m)
    if m.shape[0] % 2 or m.shape[1] % 2:
        raise DimensionError(f"expected even dimensions, got {m.shape}")
    hm, hn = m.shape[0] // 2, m.shape[1] // 2
    embedded = BqMatrix.from_complex(m)
    out = recon_frame(hm) @ embedded @ recon_frame(hn).hconj()
    return out * 0.25


def block_diagonal(*mats: BqMatrix) -> BqMatrix:
    """Direct sum of biquaternion matrices."""
    rows = sum(a.rows for a in mats)
    cols = sum(a.cols for a in mats)
    c = np.zeros((4, rows, cols), dtype=complex)
    r = s = 0
    for a in mats:
        c[:, r : r + a.rows, s : s + a.cols] = a.components
        r += a.rows
        s += a.cols
    return BqMatrix(c)
