"""Seeded input generator for the benchmark workloads.

Built from numpy alone (``biquat.sampling`` is not used), so the program
receives only generated arrays.  A matrix is its ``(4, m, n)`` complex
component array.  Everything is drawn from ``numpy.random.default_rng`` keyed
by ``(seed, workload)``: the same seed gives the same inputs.

Structured inputs are built by exact unimodular similarity ``P T P^-1``:
``P`` is a product of sparse unit-triangular factors ``I + N`` with ``N^2 = 0``
and small Gaussian-integer components, so ``P^-1`` is the product of the
``I - N`` in reverse order, an integer matrix too, and every product below
stays exact in double precision.  The spectrum, the Jordan structure, the
similarity verdicts and the characteristic polynomial of such an input are
therefore known by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from checks import block, unblock

WORKLOAD_KEYS = {"dense": 1, "spectral": 2, "cli": 3, "small": 4}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_KEYS[workload]])


def unit_disk(rng: np.random.Generator, shape) -> np.ndarray:
    """Components uniform on the complex unit disk."""
    r = np.sqrt(rng.uniform(0.0, 1.0, shape))
    return r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, shape))


def gaussian_integers(rng: np.random.Generator, shape, bound: int) -> np.ndarray:
    return rng.integers(-bound, bound + 1, shape) + 1j * rng.integers(-bound, bound + 1, shape)


def identity(n: int) -> np.ndarray:
    c = np.zeros((4, n, n), dtype=complex)
    c[0] = np.eye(n)
    return c


def product(*mats) -> np.ndarray:
    """Matrix product over the algebra, through the block representation."""
    out = block(mats[0])
    for m in mats[1:]:
        out = out @ block(m)
    return unblock(out)


def unimodular(rng: np.random.Generator, n: int):
    """A biquaternion matrix ``P = (I + N1)(I + N2)`` and its exact inverse
    ``(I - N2)(I - N1)``, both with Gaussian-integer components.  Each ``N``
    has one entry per row of a random half of the rows, in a column of the
    other half, so ``N @ N == 0``.  One such pair keeps ``cond(block(P))``
    near 10^2; two pairs reach 10^3 to 10^4, where the program no longer
    resolves Jordan blocks of size 2 at its clustering tolerance."""
    p, p_inv = identity(n), identity(n)
    for _ in range(2):
        perm = rng.permutation(n)
        lo, hi = perm[: n // 2], perm[n // 2 :]
        nil = np.zeros((4, n, n), dtype=complex)
        nil[:, hi, rng.choice(lo, size=hi.size)] = gaussian_integers(rng, (4, hi.size), 1)
        p = product(p, identity(n) + nil)
        p_inv = product(identity(n) - nil, p_inv)
    return p, p_inv


def jordan_matrix(blocks) -> np.ndarray:
    """Complex Jordan matrix from ``[(eigenvalue, size), ...]``."""
    n = sum(size for _, size in blocks)
    j = np.zeros((n, n), dtype=complex)
    pos = 0
    for lam, size in blocks:
        j[pos : pos + size, pos : pos + size] = lam * np.eye(size) + np.diag(np.ones(size - 1), 1)
        pos += size
    return j


def from_complex(m) -> np.ndarray:
    c = np.zeros((4, *np.shape(m)), dtype=complex)
    c[0] = m
    return c


def distinct_gaussian_integers(rng: np.random.Generator, count: int, bound: int) -> np.ndarray:
    """``count`` distinct nonzero Gaussian integers from the box of radius
    ``bound``."""
    grid = [complex(a, b) for a in range(-bound, bound + 1) for b in range(-bound, bound + 1) if a or b]
    return np.array(grid, dtype=complex)[rng.choice(len(grid), size=count, replace=False)]


# -- dense -------------------------------------------------------------------------


@dataclass(frozen=True)
class DenseInput:
    a: np.ndarray  # unit-disk n x n
    b: np.ndarray  # unit-disk n x n, the right factor of A @ B
    c: np.ndarray  # rank-deficient companion F diag(d) G
    twice_rank: int  # block rank of c, odd by construction


def dense_input(rng: np.random.Generator, n: int) -> DenseInput:
    """``c = F diag(d) G`` with ``F`` n x k and ``G`` k x n of full rank and
    ``d`` invertible except ``d[0] = 1 + i e1``, a zero divisor of rank 1/2,
    so ``block(c)`` has rank ``2 (k - 1) + 1``."""
    k = n // 2
    f, g = unit_disk(rng, (4, n, k)), unit_disk(rng, (4, k, n))
    d = np.zeros((4, k, k), dtype=complex)
    idx = np.arange(k)
    d[:, idx, idx] = 0.3 * unit_disk(rng, (4, k))
    d[0, idx, idx] += 1.0  # near 1: well-conditioned invertible entries
    d[:, 0, 0] = (1.0, 1j, 0.0, 0.0)
    return DenseInput(unit_disk(rng, (4, n, n)), unit_disk(rng, (4, n, n)), product(f, d, g), 2 * (k - 1) + 1)


# -- spectral ----------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """An input of the similarity calls, with the answers it was built to have."""

    x: np.ndarray
    conjugate: np.ndarray  # Q x Q^-1: similar to x
    other: np.ndarray  # not similar to x
    similar_to_complex: bool
    spectrum: np.ndarray | None  # block spectrum, when known by construction
    jordan: np.ndarray | None  # complex Jordan matrix x is similar to, if any


def generic_case(rng: np.random.Generator, n: int) -> Case:
    """A unit-disk matrix: 2n distinct block eigenvalues, one Jordan block
    each, so it is diagonalizable and not similar to a complex matrix.
    ``other`` is ``x + s I``, whose spectrum is shifted by ``s`` and cannot
    match."""
    x = unit_disk(rng, (4, n, n))
    q, q_inv = unimodular(rng, n)
    return Case(
        x=x,
        conjugate=product(q, x, q_inv),
        other=x + (0.5 + 0.5j) * identity(n),
        similar_to_complex=False,
        spectrum=None,
        jordan=None,
    )


def structured_case(rng: np.random.Generator, n: int) -> Case:
    """``P from_complex(J) P^-1`` with ``n / 4`` distinct Gaussian-integer
    eigenvalues, each with Jordan blocks of sizes 2, 1, 1 in ``J``: the block
    spectrum is doubled, every eigenvalue is repeated eight times, and the
    largest Jordan block has size 2.  ``other`` splits the first size-2
    block of ``J`` into two of size 1: same spectrum, another Jordan
    structure."""
    lams = distinct_gaussian_integers(rng, n // 4, 3)
    blocks = [(lam, size) for lam in lams for size in (2, 1, 1)]
    split = [(lams[0], 1), *blocks[1:]] + [(lams[0], 1)]
    j, j_other = jordan_matrix(blocks), jordan_matrix(split)
    p, p_inv = unimodular(rng, n)
    q, q_inv = unimodular(rng, n)
    x = product(p, from_complex(j), p_inv)
    return Case(
        x=x,
        conjugate=product(q, x, q_inv),
        other=product(p, from_complex(j_other), p_inv),
        similar_to_complex=True,
        spectrum=np.concatenate([np.diag(j), np.diag(j)]),
        jordan=j,
    )


# -- cli -----------------------------------------------------------------------------


def document(c) -> str:
    """Matrix document text (the format of ``biquat.io``), written with the
    standard library: row-major entries of four ``[re, im]`` pairs."""
    _, m, n = c.shape
    entries = [
        [[float(c[k, i, j].real), float(c[k, i, j].imag)] for k in range(4)]
        for i in range(m)
        for j in range(n)
    ]
    return json.dumps({"rows": m, "cols": n, "entries": entries}, indent=1)


def parse_document(text: str) -> np.ndarray:
    doc = json.loads(text)
    m, n = doc["rows"], doc["cols"]
    raw = np.asarray(doc["entries"], dtype=float).reshape(m, n, 4, 2)
    return (raw[..., 0] + 1j * raw[..., 1]).transpose(2, 0, 1)


# -- small ---------------------------------------------------------------------------


def small_case(rng: np.random.Generator, n: int, quaternionic: bool) -> Case:
    """An exact ``n x n`` input with Gaussian-integer spectrum.

    Complex type: ``P from_complex(J) P^-1`` with ``J`` holding one Jordan
    block of size 2 and a repeated eigenvalue.  Quaternionic type:
    ``P diag(a_k + t_k e1) P^-1``, whose block spectrum ``a_k +- i t_k`` has
    2n distinct values, so it is not similar to a complex matrix.  ``other``
    is ``x + I``.
    """
    p, p_inv = unimodular(rng, n)
    q, q_inv = unimodular(rng, n)
    if quaternionic:
        while True:
            a = gaussian_integers(rng, n, 2)
            t = gaussian_integers(rng, n, 1)
            spectrum = np.concatenate([a + 1j * t, a - 1j * t])
            if np.all(t != 0) and np.all(spectrum != 0) and np.unique(spectrum).size == 2 * n:
                break
        t_mat = np.zeros((4, n, n), dtype=complex)
        t_mat[0][np.diag_indices(n)] = a
        t_mat[1][np.diag_indices(n)] = t
        jordan = None
    else:
        lams = distinct_gaussian_integers(rng, n - 2, 2)
        jordan = jordan_matrix([(lams[0], 2), (lams[0], 1), *((lam, 1) for lam in lams[1:])])
        t_mat = from_complex(jordan)
        spectrum = np.concatenate([np.diag(jordan), np.diag(jordan)])
    x = product(p, t_mat, p_inv)
    return Case(
        x=x,
        conjugate=product(q, x, q_inv),
        other=x + identity(n),
        similar_to_complex=not quaternionic,
        spectrum=spectrum,
        jordan=jordan,
    )
