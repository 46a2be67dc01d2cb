"""Dense complex linear algebra engine.

Every higher-level question about biquaternion matrices is lowered to one of
the routines here (all operating on plain 2-D ``numpy`` arrays of
``complex128``): determinant, SVD-based rank and pseudoinverse,
eigendecomposition, complex Schur form, characteristic polynomial, and the
Jordan structure behind similarity (:func:`jordan_fingerprint`).

Factorizations are delegated to LAPACK through ``numpy.linalg`` (and
``zgees``/``ztrsen`` from ``scipy.linalg.lapack``, imported on first use);
the characteristic polynomial uses the Faddeev-LeVerrier recursion, which is
exact for integer-valued inputs at desk scale.  Jordan structure reads
eigenvalues only, plus singular values of one Schur form without vectors
for repeated clusters; Schur vectors are formed only for regular
eigenpairs (:func:`schur` with ``vectors=True``).
"""

from __future__ import annotations

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


def within_range(x, what: str):
    """``x`` if all of it is finite; OverflowError naming ``what`` if not."""
    if not np.all(np.isfinite(x)):
        raise OverflowError(f"{what} exceeds the float range")
    return x


def det(a) -> complex:
    """Determinant of a square complex matrix.

    Sizes 1-3 use the direct expansion (exact for integer-valued entries);
    larger matrices go through LU with partial pivoting.

    Raises:
        OverflowError: if the determinant lies beyond the float range.
    """
    m = as_cmatrix(a)
    n = _require_square(m)
    with np.errstate(over="ignore", invalid="ignore"):
        if n == 0:
            d = 1 + 0j
        elif n == 1:
            d = complex(m[0, 0])
        elif n == 2:
            d = complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        elif n == 3:
            d = complex(
                m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
                - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
                + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
            )
        else:
            d = complex(np.linalg.det(m))
    return within_range(d, "the determinant")


def singular_values(a) -> np.ndarray:
    m = as_cmatrix(a)
    if 0 in m.shape:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


def rank(a) -> int:
    """Numerical rank: singular values above ``DEFAULT_TOL`` times the largest one."""
    s = singular_values(a)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > DEFAULT_TOL * s[0]))


def pinv(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse with relative singular-value cutoff ``DEFAULT_TOL``.

    Raises:
        OverflowError: if the pseudoinverse lies beyond the float range.
    """
    m = as_cmatrix(a)
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.linalg.pinv(m, rcond=DEFAULT_TOL)
    return within_range(p, "the pseudoinverse")


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

    Raises:
        OverflowError: if a coefficient lies beyond the float range.
    """
    m = as_cmatrix(a)
    n = _require_square(m)
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    p = np.zeros_like(m)
    c = 1.0 + 0j
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            p = m @ (p + c * np.eye(n))
            c = -np.trace(p) / k
            coeffs[n - k] = c
    return Polynomial(within_range(coeffs, "the characteristic polynomial"))


def squaring_unit(top):
    """Exact powers of two that bring each largest magnitude ``top`` into
    [0.5, 1), capped so they stay finite: after scaling no square overflows."""
    return np.ldexp(1.0, np.minimum(-np.frexp(top)[1], 1022))


def matrix_scale(a) -> float:
    """Frobenius norm, the scale of relative tolerances, rescaled where squares overflow or underflow."""
    m = as_cmatrix(a)
    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(m))
    if 2.0**-480 < scale < np.inf:
        return scale
    unit = float(squaring_unit(np.abs(m).max(initial=0.0)))
    return float(np.linalg.norm(m * unit)) / unit


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


def schur(a, vectors: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Complex Schur form ``a = q @ t @ q^H`` with ``t`` upper triangular.

    One LAPACK ``zgees`` call (no eigenvalue ordering); ``q`` is unitary, and
    ``None`` unless ``vectors``.  The leading ``k`` columns of ``q`` span an
    invariant subspace: ``a @ q[:, :k] == q[:, :k] @ t[:k, :k]``.
    """
    from scipy.linalg import lapack  # slow import, needed only for Schur forms
    m = as_cmatrix(a)
    _require_square(m)
    t, _, _, q, _, info = lapack.zgees(lambda z: None, m, compute_v=vectors)
    if info:
        raise ConvergenceError(f"Schur iteration failed: info={info}")
    return t, (q if vectors else None)


def jordan_fingerprint(a) -> list[tuple[complex, tuple[int, ...]]]:
    """Eigenvalue clusters with their Weyr characteristics.

    Returns ``[(lam, (nu_1, nu_2, ...)), ...]`` sorted by (real, imag) of
    ``lam``, where ``nu_k`` is the nullity of ``(a - lam*I)**k``.  Two
    matrices are similar exactly when their fingerprints match under
    eigenvalue pairing within tolerance (see :func:`fingerprints_match`).

    One eigenvalue computation yields the spectrum; eigenvalues closer than
    ``CLUSTER_TOL`` times the matrix scale are merged (Jordan structure is
    discontinuous, so this is a documented heuristic).  A cluster of one
    eigenvalue has Weyr characteristic ``(1,)``.  A repeated cluster is read
    off the leading block of one complex Schur form (no Schur vectors)
    reordered to put as many Schur eigenvalues first as the cluster has, the
    nearest ones, so no other eigenvalue enters its nullities: with ``b`` the
    block minus ``lam*I`` and ``s`` its largest singular value, the k-th
    nullity counts the singular values of ``b**k / s**(k-1)`` at most
    ``DEFAULT_TOL`` times the scale, until it reaches the block's size or
    stops growing.  No eigenvector, Schur vector or singular vector is formed.

    Raises:
        ConvergenceError: if a cluster's nullities are no Weyr characteristic
            (see :func:`weyr_to_block_sizes`): the cluster is unresolved.
        OverflowError: if ``b**(k-1) / s**(k-2) @ b`` leaves the float range.
    """
    m = as_cmatrix(a)
    if _require_square(m) == 0:
        return []
    w = eigvals(m)
    scale = max(matrix_scale(m), float(np.max(np.abs(w))), 1e-300)
    out, t = [], None
    for idx in cluster_eigenvalues(w, CLUSTER_TOL * scale):
        if idx.size == 1:
            out.append((complex(w[idx[0]]), (1,)))
            continue
        if t is None:
            t, _ = schur(m)
            from scipy.linalg import lapack  # loaded by schur; ztrsen reorders t
        d = np.abs(np.diag(t)[:, None] - w[idx]).min(axis=1)
        # With wantq=0, ztrsen reads no Schur vectors; t stands in for them.
        tk, _, _, k, *_ = lapack.ztrsen(d <= np.sort(d)[idx.size - 1], t, t, job="N", wantq=0)
        lam = complex(np.mean(w[idx]))
        shifted = tk[:k, :k] - lam * np.eye(k)
        s = singular_values(shifted)
        weyr = [int(np.count_nonzero(s <= DEFAULT_TOL * scale))]
        power = shifted
        while weyr[-1] < k:
            with np.errstate(over="ignore", invalid="ignore"):
                power = within_range(power @ shifted / s[0], "a power of a cluster block")
            nullity = int(np.count_nonzero(singular_values(power) <= DEFAULT_TOL * scale))
            if nullity <= weyr[-1]:
                break
            weyr.append(nullity)
        weyr_to_block_sizes(tuple(weyr))  # raises unless weyr is a Weyr characteristic
        out.append((lam, tuple(weyr)))
    out.sort(key=lambda c: (c[0].real, c[0].imag))
    return out


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
    """Convert a Weyr characteristic into ``{block size: count}``.

    Raises:
        ConvergenceError: if the first nullity is 0 or the nullity steps
            grow, so ``weyr`` is no Weyr characteristic (a cluster whose
            eigenvalues are split, or one that merged separate eigenvalues).
    """
    nu = [0, *weyr]
    diffs = [nu[k] - nu[k - 1] for k in range(1, len(nu))]
    if weyr and weyr[0] <= 0:
        raise ConvergenceError(f"first nullity of {weyr} is 0: Jordan structure not resolved")
    if any(later > earlier for earlier, later in zip(diffs, diffs[1:])):
        raise ConvergenceError(f"nullity steps of {weyr} grow: Jordan structure not resolved")
    diffs.append(0)
    counts = {}
    for k in range(1, len(weyr) + 1):
        c = diffs[k - 1] - diffs[k]
        if c > 0:
            counts[k] = c
    return counts
