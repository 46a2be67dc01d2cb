import numpy as np
import pytest

from biquat import Biquaternion, BqMatrix


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
