import signal
from contextlib import contextmanager

import numpy as np
import pytest

from biquat import Biquaternion, BqMatrix, spectral


def bq_close(a: Biquaternion, b: Biquaternion, tol: float = 1e-12) -> bool:
    return all(abs(x - y) <= tol for x, y in zip(a.components, b.components))


def mat_close(a: BqMatrix, b: BqMatrix, tol: float = 1e-10) -> bool:
    return a.shape == b.shape and bool(
        np.all(np.abs(a.components - b.components) <= tol)
    )


def penrose_residual(a: BqMatrix, x: BqMatrix) -> float:
    """Largest residual of the four Penrose equations, in the block norm."""
    return max(
        (a @ x @ a - a).norm(),
        (x @ a @ x - x).norm(),
        ((a @ x).hconj() - a @ x).norm(),
        ((x @ a).hconj() - x @ a).norm(),
    )


def merged_cluster_matrix() -> BqMatrix:
    """J1(l1) + J3(l2) with l2 - l1 = 1.3e-4, diagonally scaled, at 1e21.

    Clustering merges l1 and l2, and the merged cluster's nullity steps
    grow: its fingerprint is ``[(lam, (2, 6, 8))]``, no Weyr characteristic.
    """
    rng = np.random.default_rng(2)
    l1 = complex(*rng.uniform(-1, 1, 2))
    l2 = l1 + 1.3e-4 * np.exp(2j * np.pi * rng.uniform())
    j = np.diag([l1, l2, l2, l2])
    j[1, 2] = j[2, 3] = 1
    d = np.diag(10 ** rng.uniform(-3, 3, 4))
    return BqMatrix.from_complex(d @ j @ np.linalg.inv(d) * 1e21)


def unimodular(rng, n: int) -> tuple[BqMatrix, BqMatrix]:
    """``U = (I + N1)(I + N2)`` and ``U^-1 = (I - N2)(I - N1)``, exactly.

    Each ``N`` has Gaussian-integer components from rows of one half of a
    random permutation of ``range(n)`` to columns of the other, so
    ``N @ N == 0``.
    """
    u = u_inv = BqMatrix.identity(n)
    for _ in range(2):
        perm = rng.permutation(n)
        lo, hi = perm[: n // 2], perm[n // 2 :]
        nil = np.zeros((4, n, n), dtype=complex)
        re, im = rng.integers(-1, 2, (2, 4, hi.size))
        nil[:, hi, rng.choice(lo, size=hi.size)] = re + 1j * im
        u = u @ (BqMatrix.identity(n) + BqMatrix(nil))
        u_inv = (BqMatrix.identity(n) - BqMatrix(nil)) @ u_inv
    return u, u_inv


def gaussian_jordan_conjugate(rng, blocks: tuple[int, ...]) -> BqMatrix:
    """``U from_complex(J) U^-1`` with :func:`unimodular` ``U``, where ``J``
    has Jordan blocks of sizes ``blocks`` at each of two distinct nonzero
    Gaussian integers in ``[-2, 2] + [-2, 2]i``."""
    grid = [complex(a, b) for a in range(-2, 3) for b in range(-2, 3) if a or b]
    pair = np.array(grid)[rng.choice(len(grid), size=2, replace=False)]
    sizes = list(blocks) * 2
    n = sum(sizes)
    ones = np.ones(n - 1)
    ones[np.cumsum(sizes)[:-1] - 1] = 0  # no coupling across a block's end
    j = np.diag(np.repeat(pair, sum(blocks))) + np.diag(ones, 1)
    u, u_inv = unimodular(rng, n)
    return u @ BqMatrix.from_complex(j) @ u_inv


# Weyr characteristics of the block representation of mixed_cluster_matrices' X.
MIXED_CLUSTERS = {1: (4, 6), -1: (4,), 2j: (2, 4), 3: (2,), -2j: (2,)}


def mixed_cluster_matrices(seed: int) -> tuple[BqMatrix, BqMatrix, BqMatrix]:
    """``X = U from_complex(J) U^-1`` at n = 9, a conjugate ``Q X Q^-1`` and
    ``X`` with its J2(1) split into two J1(1) (the same spectrum), where
    ``J = J2(1) + J1(1) + J1(-1) + J1(-1) + J2(2i) + (3) + (-2i)``: five
    repeated clusters, of 6, 4, 4, 2 and 2 block eigenvalues
    (:data:`MIXED_CLUSTERS`).  ``U`` and then ``Q`` are :func:`unimodular`
    from ``default_rng(seed)``, so every product is exact."""
    j = np.diag(np.array([1, 1, 1, -1, -1, 2j, 2j, 3, -2j]))
    j[5, 6] = 1  # J2(2i)
    split = j.copy()
    j[0, 1] = 1  # J2(1)
    rng = np.random.default_rng(seed)
    (u, u_inv), (q, q_inv) = unimodular(rng, 9), unimodular(rng, 9)
    x = u @ BqMatrix.from_complex(j) @ u_inv
    return x, q @ x @ q_inv, u @ BqMatrix.from_complex(split) @ u_inv


def split_cluster_matrix() -> BqMatrix:
    """U from_complex(J3(l1) + J1(l1) + J3(l2) + J1(l2)) U^-1 at n = 8.

    Built by :func:`gaussian_jordan_conjugate`, so ``U^-1`` is exact.
    ``eig`` scatters the eightfold eigenvalue near ``1 + 1j`` by about 1e-5
    of the scale, past ``CLUSTER_TOL``: three of its clusters have first
    nullity 0, which no Weyr characteristic has.
    """
    return gaussian_jordan_conjugate(np.random.default_rng(17), (3, 1))


# A finite document whose block representation has eigenvalues and a
# Frobenius norm beyond the float range: clustering them once looped forever.
OVERFLOWING_SPECTRUM = '{"rows": 1, "cols": 1, "entries": [[[1, 3], [1e155, 1.7e308], [0, 1e-200], [0, 1.7e308]]]}'


@contextmanager
def time_bound(seconds: int):
    """Fail a block that has not ended within ``seconds`` (by SIGALRM)."""
    if not hasattr(signal, "SIGALRM"):
        pytest.skip("needs SIGALRM")

    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def fresh_structure_cache():
    # Verdicts keep the Jordan structure of their last operands; a test that
    # counts fingerprints must not see an earlier test's matrices.
    spectral.jordan_structure.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
