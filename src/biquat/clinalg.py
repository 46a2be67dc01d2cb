"""Dense complex linear algebra engine.

Every higher-level question about biquaternion matrices is lowered to one of
the routines here (all operating on plain 2-D ``numpy`` arrays of
``complex128``): determinant, SVD-based rank and pseudoinverse,
eigendecomposition, characteristic polynomial, and the spectral structure
behind similarity (:func:`spectral_clusters`).

Factorizations are delegated to LAPACK through ``numpy.linalg``; the
characteristic polynomial uses the Faddeev-LeVerrier recursion, which is
exact for integer-valued inputs at desk scale.  Spectral verdicts read
eigenvalues only (plus singular values of one Schur form for repeated
clusters); eigenvectors are formed only for regular eigenpairs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ConvergenceError, DimensionError

# Relative threshold below which singular values count as zero.
DEFAULT_TOL = 1e-10
# Eigenvalue clustering gap, relative to the matrix scale (Frobenius norm,
# which dominates the spectral radius and stays usable for nilpotent input).
CLUSTER_TOL = 1e-7


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def _require_square(m: np.ndarray) -> int:
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m.shape[0]


def det(a) -> complex:
    """Determinant of a square complex matrix.

    Sizes 1-3 use the direct expansion (exact for integer-valued entries);
    larger matrices go through LU with partial pivoting.
    """
    m = as_cmatrix(a)
    n = _require_square(m)
    if n == 0:
        return 1 + 0j
    if n == 1:
        return complex(m[0, 0])
    if n == 2:
        return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    if n == 3:
        return complex(
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )
    return complex(np.linalg.det(m))


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD ``a = u @ diag(s) @ vh`` with ``s`` non-negative descending."""
    m = as_cmatrix(a)
    return np.linalg.svd(m)


def singular_values(a) -> np.ndarray:
    m = as_cmatrix(a)
    if 0 in m.shape:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


def rank(a, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above ``tol`` times the largest one."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    s = singular_values(a)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def pinv(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with relative singular-value cutoff.

    Raises:
        OverflowError: if the pseudoinverse lies beyond the float range.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = as_cmatrix(a)
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.linalg.pinv(m, rcond=tol)
    if not np.all(np.isfinite(p)):
        raise OverflowError("the pseudoinverse exceeds the float range")
    return p


def eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (with multiplicity) and unit right eigenvectors, columnwise.

    Eigenvalues are sorted lexicographically by (real, imag) so output is
    reproducible; the eigenvector columns are permuted to match.
    """
    m = as_cmatrix(a)
    _require_square(m)
    try:
        w, v = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((w.imag, w.real))
    return w[order], v[:, order]


def eigvals(a) -> np.ndarray:
    """Sorted eigenvalues only."""
    m = as_cmatrix(a)
    _require_square(m)
    try:
        w = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    return w[np.lexsort((w.imag, w.real))]


def charpoly(a) -> Polynomial:
    """Monic characteristic polynomial via the Faddeev-LeVerrier recursion.

    Coefficients are returned in ascending degree order.  For matrices with
    (complex-)integer entries the recursion stays exact in double precision
    as long as intermediates fit in 53 bits.
    """
    m = as_cmatrix(a)
    n = _require_square(m)
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    mk = np.zeros_like(m)
    ck = 1.0 + 0j
    for k in range(1, n + 1):
        mk = m @ mk + ck * np.eye(n)
        ck = -np.trace(m @ mk) / k
        coeffs[n - k] = ck
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("characteristic polynomial coefficients overflowed")
    return Polynomial(coeffs)


def matrix_scale(a) -> float:
    """Frobenius norm, the scale used for relative tolerances throughout."""
    return float(np.linalg.norm(as_cmatrix(a)))


def cluster_eigenvalues(w: np.ndarray, gap: float) -> list[np.ndarray]:
    """Group eigenvalues into clusters, returned as arrays of indices into ``w``.

    Single linkage: two eigenvalues land in the same cluster whenever a chain
    of gaps of at most ``gap`` connects them.  Each index array is ascending,
    and clusters come in the order of their smallest index (for sorted ``w``,
    the order of their values).
    """
    w = np.asarray(w, dtype=complex)
    if w.size == 0:
        return []
    near = np.abs(w[:, None] - w) <= gap
    # Every index takes the smallest label among its neighbours until the
    # labels settle; each cluster then carries its smallest index.
    labels = np.arange(w.size)
    while True:
        lowest = np.where(near, labels, w.size).min(axis=1)
        if (lowest == labels).all():
            break
        labels = lowest
    order = np.argsort(labels, kind="stable")
    # Slices of one sorted array (np.split costs as much again at this size).
    cuts = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), w.size]
    return [order[i:j] for i, j in zip(cuts, cuts[1:])]


class Cluster(NamedTuple):
    """One eigenvalue cluster of a square matrix ``a``."""

    value: complex  # mean of the clustered eigenvalues
    weyr: tuple[int, ...]  # nullities of (a - value*I)**k, k = 1, 2, ...
    basis: np.ndarray  # orthonormal columns spanning the numerical kernel


def spectral_clusters(a, tol: float = DEFAULT_TOL) -> list[Cluster]:
    """Eigenvalue clusters with their Weyr characteristics and eigenvectors.

    One eigendecomposition yields the spectrum; eigenvalues closer than
    ``CLUSTER_TOL`` times the matrix scale are merged.  A cluster of one
    eigenvalue has Weyr characteristic ``(1,)`` and its unit eigenvector as
    basis.  A repeated cluster is read off the leading block of one complex
    Schur form reordered to put as many Schur eigenvalues first as the
    cluster has, the nearest ones, so no other eigenvalue enters its
    nullities: with ``b`` the block minus ``value*I`` and ``s`` its largest
    singular value, the k-th nullity counts the singular values of
    ``b**k / s**(k-1)`` (no overflow) at most ``tol`` times the scale, until
    it reaches the block's size or stops growing.  Clusters are sorted by
    (real, imag) of their value.
    """
    return _clusters(as_cmatrix(a), tol, vectors=True)


def _clusters(m: np.ndarray, tol: float, vectors: bool) -> list[Cluster]:
    if _require_square(m) == 0:
        return []
    w, v = eig(m) if vectors else (eigvals(m), None)
    scale = max(matrix_scale(m), float(np.max(np.abs(w))), 1e-300)
    out, schur = [], None
    for idx in cluster_eigenvalues(w, CLUSTER_TOL * scale):
        if idx.size == 1:
            out.append(Cluster(complex(w[idx[0]]), (1,), v[:, idx] if vectors else None))
            continue
        if schur is None:  # scipy.linalg is a slow import, needed only here
            from scipy.linalg import lapack
            t, _, _, q, _, info = lapack.zgees(lambda z: None, m, compute_v=vectors)
            if info:
                raise ConvergenceError(f"Schur iteration failed: info={info}")
            schur = (t, q if vectors else t)  # ztrsen reads q only when it wants it
        d = np.abs(np.diag(schur[0])[:, None] - w[idx]).min(axis=1)
        t, q, _, k, *_ = lapack.ztrsen(d <= np.sort(d)[idx.size - 1], *schur, job="N", wantq=vectors)
        lam = complex(np.mean(w[idx]))
        shifted = t[:k, :k] - lam * np.eye(k)
        _, s, vh = svd(shifted) if vectors else (None, singular_values(shifted), None)
        keep = s <= tol * scale
        weyr = [int(np.count_nonzero(keep))]
        if not weyr[0]:
            keep[-1] = True  # wide cluster: best available near-kernel vector
        power = shifted
        while weyr[-1] < k:
            power = power @ shifted / s[0]
            nullity = int(np.count_nonzero(singular_values(power) <= tol * scale))
            if nullity <= weyr[-1]:
                break
            weyr.append(nullity)
        out.append(Cluster(lam, tuple(weyr), q[:, :k] @ vh[keep].conj().T if vectors else None))
    out.sort(key=lambda c: (c.value.real, c.value.imag))
    return out


def jordan_fingerprint(a, tol: float = DEFAULT_TOL) -> list[tuple[complex, tuple[int, ...]]]:
    """Eigenvalue clusters with their Weyr characteristics.

    Returns ``[(lam, (nu_1, nu_2, ...)), ...]`` where ``nu_k`` is the
    nullity of ``(a - lam*I)**k``: the values and Weyr characteristics of
    :func:`spectral_clusters`, read from eigenvalues and singular values
    only.  Two matrices are similar exactly when their fingerprints match
    under eigenvalue pairing within tolerance (see :func:`fingerprints_match`).

    Jordan structure is discontinuous, so the clustering step is a
    documented heuristic: eigenvalues closer than ``CLUSTER_TOL`` times the
    matrix scale are merged.
    """
    return [(c.value, c.weyr) for c in _clusters(as_cmatrix(a), tol, vectors=False)]


def fingerprints_match(
    fa: list[tuple[complex, tuple[int, ...]]],
    fb: list[tuple[complex, tuple[int, ...]]],
    gap: float,
) -> bool:
    """Pair clusters of two fingerprints within ``gap`` and compare structure.

    Uses optimal assignment on eigenvalue distances so near-ties in the sort
    order cannot produce spurious mismatches.
    """
    from scipy.optimize import linear_sum_assignment  # slow import, only needed here
    if len(fa) != len(fb):
        return False
    if not fa:
        return True
    d = np.subtract.outer([la for la, _ in fa], [lb for lb, _ in fb])
    cost = np.hypot(d.real, d.imag)  # rounds as abs() does; np.abs may not
    rows, cols = linear_sum_assignment(cost)
    for i, j in zip(rows, cols):
        if cost[i, j] > gap or fa[i][1] != fb[j][1]:
            return False
    return True


def weyr_to_block_sizes(weyr: tuple[int, ...]) -> dict[int, int]:
    """Convert a Weyr sequence into ``{block size: count}``."""
    nu = [0, *weyr]
    diffs = [nu[k] - nu[k - 1] for k in range(1, len(nu))]
    diffs.append(0)
    counts = {}
    for k in range(1, len(weyr) + 1):
        c = diffs[k - 1] - diffs[k]
        if c > 0:
            counts[k] = c
    return counts
