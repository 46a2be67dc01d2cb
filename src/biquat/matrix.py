"""Matrices over the biquaternion algebra.

A ``BqMatrix`` is stored as four complex component matrices ``A0..A3`` with
``A = A0 + A1*e1 + A2*e2 + A3*e3`` (structure-of-arrays, shape ``(4, m, n)``),
so the scalar algebra's tables of :mod:`scalar` apply to whole component
arrays: :func:`scalar.image` of ``A0..A3`` gives the four blocks of the
block representation, :func:`scalar.preimage` lifts them back, and
:func:`scalar.product` with ``np.matmul`` is the matrix product.

* ``block_repr``:   ``[[A0+i*A1, -(A2+i*A3)], [A2-i*A3, A0-i*A1]]``  (2m x 2n)
* ``interleaved_repr``: the 2x2 image of each entry, laid out entrywise.

The interleaved layout is the block one with its rows and columns perfectly
shuffled, and is formed and lifted that way; :func:`shuffle_permutations`
builds the same shuffle as 0/1 matrices, separately.  Norms are taken on the
components without forming a representation, by :func:`clinalg.norms` and
``|block_repr(A)|_F**2 = 2 * sum_k |A_k|_F**2`` (entrywise,
``|x + i*y|**2 + |x - i*y|**2 = 2 * (|x|**2 + |y|**2)``).  Inversion,
pseudoinversion and rank are computed on the block representation and
lifted back; rank comes out as an exact half-integer ``Fraction``
(:class:`HalfRank`) because the block representation of a zero-divisor-laden
matrix can have odd rank.  Inversion pays for one LU factorization: an
inverse whose norm certifies a condition number well inside the rank rule is
accepted as it stands, and only a doubtful one is ranked by SVD.

Components are checked for finiteness once per value: where a matrix enters
(the constructor, :meth:`BqMatrix.from_block_repr`,
:meth:`BqMatrix.from_interleaved_repr`), where a non-finite one is an input
error (ValueError, by :func:`clinalg.finite`), and where one is formed by a
step that can overflow (sums, products, scalar multiples, the block
representation, the inverse and pseudoinverse), which raises OverflowError.
A matrix the library builds from checked values by steps that cannot
overflow (negation, transposes, columns, the lift of finite cells) is
adopted as it is, without a copy or a second check.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import clinalg
from .errors import ConvergenceError, DimensionError, NotInvertibleError
from .scalar import Biquaternion, image, preimage, product


class HalfRank(Fraction):
    """Rank of a biquaternion matrix: half the block representation's rank, exact."""

    def __new__(cls, twice_rank: int, denominator: int = 2):
        # Fraction copies as cls(numerator, denominator); __reduce__ pickles alike on every Python.
        if twice_rank < 0:
            raise ValueError("rank cannot be negative")
        return super().__new__(cls, twice_rank, denominator)

    def __reduce__(self):
        return type(self), (self.twice_rank,)

    @property
    def twice_rank(self) -> int:
        return 2 * self.numerator // self.denominator


class BqMatrix:
    """Dense matrix with biquaternion entries; immutable value semantics."""

    __slots__ = ("_c",)

    def __init__(self, components):
        c = np.array(components, dtype=complex)
        if c.ndim != 3 or c.shape[0] != 4:
            raise DimensionError(
                f"expected component array of shape (4, m, n), got {c.shape}"
            )
        c.setflags(write=False)
        self._c = clinalg.finite(c)

    @classmethod
    def _wrap(cls, c: np.ndarray) -> "BqMatrix":
        """Adopt, without a copy or a check, a finite complex ``(4, m, n)``
        array that the library has just built and that nothing else refers
        to; a caller whose arithmetic can overflow checks it first."""
        c.setflags(write=False)
        out = object.__new__(cls)
        out._c = c
        return out

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
        return Biquaternion(*self._c[:, i, j].tolist())

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

    def _columns(self) -> list["BqMatrix"]:
        """Every column as an n x 1 matrix viewing this one's read-only,
        already checked components: no copy and no second check."""
        return [BqMatrix._wrap(self._c[:, :, j : j + 1]) for j in range(self.cols)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BqMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._c, other._c))

    def __hash__(self):
        # By value, as __eq__ compares, from the shape and at most 8 evenly
        # strided components; hash(-0.0) == hash(0.0), as -0.0 == 0.0.
        return hash((self._c.shape, *self._c.flat[:: self._c.size // 8 + 1].tolist()))

    def allclose(self, other: "BqMatrix", tol: float = clinalg.DEFAULT_TOL) -> bool:
        """Componentwise equality within ``tol`` times the larger norm."""
        if self.shape != other.shape:
            return False
        scale = max(self.norm(), other.norm())
        return bool(np.all(np.abs(self._c - other._c) <= tol * scale))

    def norm(self) -> float:
        """Frobenius norm of the block representation (the residual norm
        used throughout the package), from ``2 * sum_k |A_k|_F**2``."""
        return float(clinalg.norms(self._c, weight=2))

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
        with np.errstate(over="ignore", invalid="ignore"):  # _in_range reports overflow
            return _in_range(self._c + other._c, "the sum")

    def __sub__(self, other: "BqMatrix") -> "BqMatrix":
        self._check_same_shape(other)
        with np.errstate(over="ignore", invalid="ignore"):
            return _in_range(self._c - other._c, "the difference")

    def __neg__(self) -> "BqMatrix":
        return BqMatrix._wrap(-self._c)

    def __matmul__(self, other: "BqMatrix") -> "BqMatrix":
        if not isinstance(other, BqMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            return _in_range(np.array(product(self._c, other._c, np.matmul)), "the product")

    def __mul__(self, scalar) -> "BqMatrix":
        """Right scalar multiple ``A * lam`` (order matters for non-central
        scalars)."""
        if isinstance(scalar, BqMatrix):
            raise TypeError("use @ for matrix products")
        lam = _as_bq(scalar)
        s = np.asarray(lam.components, dtype=complex).reshape(4, 1, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            return _in_range(np.array(product(self._c, s, np.multiply)), "the scalar multiple")

    def __rmul__(self, scalar) -> "BqMatrix":
        """Left scalar multiple ``lam * A``."""
        lam = _as_bq(scalar)
        s = np.asarray(lam.components, dtype=complex).reshape(4, 1, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            return _in_range(np.array(product(s, self._c, np.multiply)), "the scalar multiple")

    def _check_same_shape(self, other: "BqMatrix"):
        if not isinstance(other, BqMatrix):
            raise TypeError(f"expected BqMatrix, got {type(other).__name__}")
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch: {self.shape} vs {other.shape}")

    # -- conjugations ---------------------------------------------------------------

    def dual(self) -> "BqMatrix":
        """Transpose with the e-part of every entry negated."""
        t = self._c.transpose(0, 2, 1)
        return BqMatrix._wrap(np.array([t[0], -t[1], -t[2], -t[3]]))

    def hconj(self) -> "BqMatrix":
        """Hermitian conjugate: transpose with entrywise Hermitian conjugation."""
        t = self._c.transpose(0, 2, 1).conj()
        return BqMatrix._wrap(np.array([t[0], -t[1], -t[2], -t[3]]))

    # -- complex representations ---------------------------------------------------

    def block_repr(self) -> np.ndarray:
        """The 2m x 2n block complex representation.

        Raises:
            OverflowError: if a cell ``c0 +/- i*c1`` or ``c2 +/- i*c3`` lies
                beyond the float range.
        """
        m, n = self.shape
        out = np.empty((2 * m, 2 * n), dtype=complex)
        with np.errstate(over="ignore"):  # within_range reports overflow
            out[:m, :n], out[:m, n:], out[m:, :n], out[m:, n:] = image(self._c)
        return clinalg.within_range(out, "the block representation")

    @classmethod
    def from_block_repr(cls, m) -> "BqMatrix":
        """Unique preimage of a 2m x 2n complex matrix under ``block_repr``."""
        return cls._wrap(_preimage(clinalg.finite(_even(m, "block"))))

    def interleaved_repr(self) -> np.ndarray:
        """The 2m x 2n representation whose (i, j) 2x2 block is the complex
        image of entry (i, j): :meth:`block_repr` perfectly shuffled, row k
        beside row m + k and column k beside column n + k.

        Raises:
            OverflowError: as :meth:`block_repr`, whose cells it holds.
        """
        m, n = self.shape
        return self.block_repr()[np.ix_(_shuffle(m), _shuffle(n))]

    @classmethod
    def from_interleaved_repr(cls, m) -> "BqMatrix":
        """Unique preimage of a 2m x 2n complex matrix under
        ``interleaved_repr``: that of the unshuffled block representation."""
        m = _even(m, "interleaved")
        rows, cols = (np.argsort(_shuffle(k // 2)) for k in m.shape)
        return cls.from_block_repr(m[np.ix_(rows, cols)])

    # -- lowered computations ----------------------------------------------------------

    def inverse(self) -> "BqMatrix":
        """Two-sided inverse, lifted from the LU inverse of the block representation.

        ``|rep|_F * |inv|_F`` bounds the condition number of ``rep``; up to
        ``0.1 / DEFAULT_TOL`` (the 0.1 covers rounding in ``inv``) the rank rule
        finds full rank, so it is run only beyond that bound, or when LU fails
        or overflows.  Every verdict is the rank rule's.

        Raises:
            NotInvertibleError: if the block representation is numerically
                rank deficient.
            ConvergenceError: if LU fails where the rank rule finds full rank.
            OverflowError: if the inverse lies beyond the float range.
        """
        n = self._require_square()
        rep = self.block_repr()
        try:
            inv = np.linalg.inv(rep)
        except np.linalg.LinAlgError:
            inv = None
        certified = (
            inv is not None
            and np.isfinite(inv).all()
            and clinalg.matrix_scale(rep) * clinalg.matrix_scale(inv) <= 0.1 / clinalg.DEFAULT_TOL
        )
        if not certified:
            if clinalg.rank(rep) < 2 * n:
                raise NotInvertibleError("matrix is singular over the biquaternions")
            if inv is None:  # an exact zero pivot that the rank rule misses
                raise ConvergenceError("LU failed on a block representation of full rank")
            clinalg.within_range(inv, "the inverse")
        return BqMatrix._wrap(_preimage(inv))

    def pinv(self) -> "BqMatrix":
        """Moore-Penrose inverse: unique solution of the four Penrose
        equations over the algebra; its block representation equals the
        complex pseudoinverse of this matrix's block representation.

        Raises:
            OverflowError: if the pseudoinverse lies beyond the float range.
        """
        return BqMatrix._wrap(_preimage(clinalg.pinv(self.block_repr())))

    def rank(self) -> HalfRank:
        """Half of the block representation's numerical rank, kept exact."""
        return HalfRank(clinalg.rank(self.block_repr()))

    def _require_square(self) -> int:
        if self.rows != self.cols:
            raise DimensionError(f"expected square matrix, got {self.shape}")
        return self.rows


def _in_range(c: np.ndarray, what: str) -> "BqMatrix":
    """The matrix with components ``c``, computed from finite values: a
    component that is not finite left the float range (OverflowError naming
    ``what``), unlike one given from outside (ValueError)."""
    return BqMatrix._wrap(clinalg.within_range(c, what))


def _even(m, name: str) -> np.ndarray:
    # A 2m x 2n complex matrix, not yet checked for finiteness.
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] % 2 or m.shape[1] % 2:
        raise DimensionError(f"{name} representation must be 2-D with even dims, got {m.shape}")
    return m


def _shuffle(k: int) -> np.ndarray:
    # The perfect shuffle 0, k, 1, k + 1, ...: the block layout's index of
    # each interleaved row (or column) of a matrix with k rows (columns).
    return np.arange(2 * k).reshape(2, k).T.ravel()


def _preimage(m: np.ndarray) -> np.ndarray:
    """The components of the matrix whose block representation is ``m``,
    unchecked: finite for finite ``m`` (see :func:`scalar.preimage`)."""
    hm, hn = m.shape[0] // 2, m.shape[1] // 2
    return np.array(preimage(m[:hm, :hn], m[:hm, hn:], m[hm:, :hn], m[hm:, hn:]))


def _as_bq(value) -> Biquaternion:
    if isinstance(value, Biquaternion):
        return value
    return Biquaternion(complex(value))


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
