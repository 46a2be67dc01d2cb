"""Deterministic random samplers shared by the verification suite and tests.

Exact algebraic laws are exercised on the integer grid {-5..5} (sums and
products of small integers are exact in double precision), tolerance-based
laws on components drawn from the complex unit disk.  Inputs with a known
answer are ``X = P from_complex(J) P^-1`` from :func:`known_answer`: ``J``
is a prescribed complex Jordan form and ``P`` a :func:`unimodular`
Gaussian-integer matrix whose inverse is exact, so ``X`` is exact too.
"""

from __future__ import annotations

import numpy as np

from .matrix import BqMatrix
from .scalar import Biquaternion

INT_LO, INT_HI = -5, 5


def integer_components(rng: np.random.Generator, shape) -> np.ndarray:
    re = rng.integers(INT_LO, INT_HI + 1, shape)
    im = rng.integers(INT_LO, INT_HI + 1, shape)
    return re + 1j * im


def unit_components(rng: np.random.Generator, shape) -> np.ndarray:
    r = np.sqrt(rng.uniform(0, 1, shape))
    theta = rng.uniform(0, 2 * np.pi, shape)
    return r * np.exp(1j * theta)


def integer_biquaternion(rng: np.random.Generator) -> Biquaternion:
    return Biquaternion(*integer_components(rng, 4))


def unit_biquaternion(rng: np.random.Generator) -> Biquaternion:
    return Biquaternion(*unit_components(rng, 4))


def integer_matrix(rng: np.random.Generator, m: int, n: int) -> BqMatrix:
    return BqMatrix(integer_components(rng, (4, m, n)))


def unit_matrix(rng: np.random.Generator, m: int, n: int) -> BqMatrix:
    return BqMatrix(unit_components(rng, (4, m, n)))


def invertible_integer_matrix(rng: np.random.Generator, n: int) -> BqMatrix:
    """Integer-grid matrix that is invertible over the algebra (resampled
    until the block representation has full rank)."""
    while True:
        a = integer_matrix(rng, n, n)
        if a.rank().twice_rank == 2 * n:
            return a


def invertible_integer_scalar(rng: np.random.Generator) -> Biquaternion:
    while True:
        a = integer_biquaternion(rng)
        if abs(a.weak_norm()) > 0.5:
            return a


def rank_deficient_matrix(rng: np.random.Generator, m: int, n: int) -> BqMatrix:
    """Product of thin factors, guaranteeing deficient rank for m, n >= 2."""
    k = max(1, min(m, n) - 1)
    return integer_matrix(rng, m, k) @ integer_matrix(rng, k, n)


def unimodular(rng: np.random.Generator, n: int) -> tuple[BqMatrix, BqMatrix]:
    """``P = (I + N1)(I + N2)`` and ``P^-1 = (I - N2)(I - N1)``, exactly: each
    ``N`` maps one half of a random permutation of ``range(n)`` into the other
    with components in ``{-1, 0, 1} + {-1, 0, 1}i``, so ``N @ N == 0``.  Below
    n = 2 it is ``(I, I)``, drawing nothing."""
    p = p_inv = BqMatrix.identity(n)
    for _ in range(2 if n >= 2 else 0):
        perm = rng.permutation(n)
        lo, hi = perm[: n // 2], perm[n // 2 :]
        nil = np.zeros((4, n, n), dtype=complex)
        re, im = rng.integers(-1, 2, (2, 4, hi.size))
        nil[:, hi, rng.choice(lo, size=hi.size)] = re + 1j * im
        p = p @ (BqMatrix.identity(n) + BqMatrix(nil))
        p_inv = (BqMatrix.identity(n) - BqMatrix(nil)) @ p_inv
    return p, p_inv


def known_answer(rng: np.random.Generator, blocks: list) -> tuple[BqMatrix, BqMatrix, BqMatrix, np.ndarray]:
    """``(X, P, P^-1, J)`` with ``X = P from_complex(J) P^-1`` and ``(P, P^-1)``
    from :func:`unimodular`, where ``J`` is the complex Jordan form with a block
    per ``(eigenvalue, size)`` of ``blocks``, in order: exact for Gaussian-integer eigenvalues."""
    sizes = [size for _, size in blocks]
    j = np.diag(np.repeat(np.array([lam for lam, _ in blocks], dtype=complex), sizes))
    i = np.setdiff1d(np.arange(len(j) - 1), np.cumsum(sizes, dtype=int) - 1)  # not across a block's end
    j[i, i + 1] = 1
    p, p_inv = unimodular(rng, len(j))
    return p @ BqMatrix.from_complex(j) @ p_inv, p, p_inv, j
