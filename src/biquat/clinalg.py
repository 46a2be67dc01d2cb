"""Dense complex linear algebra engine.

Every higher-level question about biquaternion matrices is lowered to one of
the routines here (all operating on plain 2-D ``numpy`` arrays of
``complex128``): determinant, SVD-based rank and pseudoinverse,
eigendecomposition, complex Schur form, characteristic polynomial, and the
Jordan structure behind similarity (:func:`jordan_fingerprint`, one frozen
:class:`JordanStructure` per matrix).  Each numerical rule of the package is
here once: the rank rule ``DEFAULT_TOL``, the cluster rule ``CLUSTER_TOL``,
and the power of two that scales a value into range, :func:`scaling_unit`
(array-wise in :func:`norms`, the rescaling of :func:`matrix_scale`).

Factorizations are delegated to LAPACK through ``numpy.linalg`` (and
``zgees``/``ztrsen`` from ``scipy.linalg.lapack``, imported on first use);
the characteristic polynomial uses the Faddeev-LeVerrier recursion, which is
exact for integer-valued inputs at desk scale.  Jordan structure reads the
eigenvalues of one copy of the matrix scaled by :func:`scaling_unit`, plus
singular values of the blocks ``ztrsen`` peels, repeated cluster by cluster,
off one Schur form without vectors; Schur vectors are formed only for regular
eigenpairs of spectra without two semisimple clusters (``vectors=True``).

The routines take finite arrays: the library checks a value once, where it
enters (:func:`finite`, through :func:`as_cmatrix` for a complex matrix and
the constructors of :mod:`matrix`; :mod:`scalar` checks its own components)
or where a step can take it out of the float range.  Here that is every
output that can overflow on finite input (determinant, pseudoinverse,
characteristic polynomial, eigenpairs, Schur form and vectors), which
:func:`within_range` turns into ``OverflowError``.
A LAPACK failure to converge is ``ConvergenceError``, by :func:`_converged`,
as is a Jordan cluster whose nullities stop short of its size.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ConvergenceError, DimensionError

# Relative threshold below which singular values count as zero.
DEFAULT_TOL = 1e-10
# Eigenvalue clustering gap, relative to the matrix scale (Frobenius norm,
# which dominates the spectral radius and stays usable for nilpotent input).
CLUSTER_TOL = 1e-7


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries: the
    check for a matrix that enters from outside the library."""
    return finite(_matrix(a))


def _matrix(a) -> np.ndarray:
    # The routines' own coercion: finite input is their precondition.
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def _require_square(m: np.ndarray) -> int:
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m.shape[0]


def finite(x):
    """``x`` if all of it is finite; ValueError if not: the one check of a
    value that enters from outside the library."""
    if not np.isfinite(x).all():
        raise ValueError("matrix contains non-finite entries")
    return x


def within_range(x, what: str):
    """``x`` if all of it is finite; OverflowError naming ``what`` if not."""
    if not np.isfinite(x).all():
        raise OverflowError(f"{what} exceeds the float range")
    return x


def _converged(what: str, driver, *args, **kwargs):
    """``driver(*args, **kwargs)``, a LAPACK driver of ``numpy.linalg``, with
    its failure to converge (``LinAlgError``) raised as ConvergenceError."""
    try:
        return driver(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{what} failed: {exc}") from exc


def det(a) -> complex:
    """Determinant of a square complex matrix.

    Sizes 1-3 use the direct expansion (exact for integer-valued entries);
    larger matrices go through LU with partial pivoting.

    Raises:
        OverflowError: if the determinant lies beyond the float range.
    """
    m = _matrix(a)
    n = _require_square(m)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if n == 1:
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
    return _converged("the SVD", np.linalg.svd, _matrix(a), compute_uv=False)


def rank(a) -> int:
    """Numerical rank: singular values above ``DEFAULT_TOL`` times the largest one."""
    s = singular_values(a)
    return int(np.count_nonzero(s > DEFAULT_TOL * s.max(initial=0.0)))


def pinv(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse with relative singular-value cutoff ``DEFAULT_TOL``.

    Raises:
        OverflowError: if the pseudoinverse lies beyond the float range.
    """
    m = _matrix(a)
    with np.errstate(over="ignore", invalid="ignore"):
        p = _converged("the SVD", np.linalg.pinv, m, rcond=DEFAULT_TOL)
    return within_range(p, "the pseudoinverse")


def eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (with multiplicity) and unit right eigenvectors, columnwise.

    Eigenvalues are sorted lexicographically by (real, imag) so output is
    reproducible; the eigenvector columns are permuted to match.

    Raises:
        OverflowError: if an eigenvalue or eigenvector is not finite.
    """
    m = _matrix(a)
    _require_square(m)
    w, v = _converged("eigenvalue iteration", np.linalg.eig, m)
    within_range(w, "an eigenvalue")
    within_range(v, "an eigenvector")
    order = np.lexsort((w.imag, w.real))
    return w[order], v[:, order]


def eigvals(a) -> np.ndarray:
    """Sorted eigenvalues only.

    Raises:
        OverflowError: if an eigenvalue lies beyond the float range.
    """
    m = _matrix(a)
    _require_square(m)
    w = _converged("eigenvalue iteration", np.linalg.eigvals, m)
    within_range(w, "an eigenvalue")
    return w[np.lexsort((w.imag, w.real))]


def charpoly(a) -> Polynomial:
    """Monic characteristic polynomial via the Faddeev-LeVerrier recursion.

    Coefficients are returned in ascending degree order.  For matrices with
    (complex-)integer entries the recursion stays exact in double precision
    as long as intermediates fit in 53 bits.

    Raises:
        OverflowError: if a coefficient lies beyond the float range.
    """
    m = _matrix(a)
    n = _require_square(m)
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    p = np.zeros_like(m)
    c = 1.0 + 0j
    eye = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            p = m @ (p + c * eye)
            c = -p.trace() / k
            coeffs[n - k] = c
    return Polynomial(within_range(coeffs, "the characteristic polynomial"))


def norms(c, axis=None, weight: int = 1) -> np.ndarray:
    """``sqrt(weight * sum |c|**2)`` over ``axis`` (all of it by default).  Where squares leave
    the float range, they are taken on ``c`` times the power of two that brings its largest real
    or imaginary part (a modulus can overflow) into [0.5, 1), capped to stay finite."""
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        out = np.sqrt(weight * (np.abs(c) ** 2).sum(axis=axis))
        if 2.0**-480 < out.min(initial=np.inf) and out.max(initial=0.0) < np.inf:
            return out
        top = np.maximum(np.abs(c.real), np.abs(c.imag)).max(axis=axis, keepdims=True, initial=0.0)
        unit = np.ldexp(1.0, np.minimum(-np.frexp(top)[1], 1022))
        squares = np.sum(np.abs(c * unit) ** 2, axis=axis, keepdims=True)
        return np.squeeze(np.sqrt(weight * squares) / unit, axis=axis)


def scaling_unit(top: float) -> float:
    """The power of two that brings ``top`` into [0.5, 1) (1 for 0), capped at ``2**1022`` to stay finite."""
    return math.ldexp(1.0, min(-math.frexp(top)[1], 1022))


def _times(x: np.ndarray, unit: float) -> np.ndarray:
    # Part by part: a complex times real product adds 0 * part terms, which flip signed zeros.
    return (np.ascontiguousarray(x).view(float) * unit).view(complex)


def matrix_scale(a) -> float:
    """Frobenius norm, the scale of relative tolerances, by :func:`norms` where squares leave the range."""
    x = _matrix(a).ravel(order="K")
    with np.errstate(over="ignore"):  # the sums of np.linalg.norm, without its wrapper
        scale = math.sqrt(float(x.real.dot(x.real)) + float(x.imag.dot(x.imag)))
    return scale if 2.0**-480 < scale < math.inf else float(norms(x))


def cluster_eigenvalues(w: np.ndarray, gap: float) -> list[np.ndarray]:
    """Group eigenvalues into clusters, returned as arrays of indices into ``w``.

    Single linkage: two eigenvalues land in the same cluster whenever a chain
    of gaps of at most ``gap`` connects them.  Each index array is ascending,
    and clusters come in the order of their smallest index (for sorted ``w``,
    the order of their values).  When no two eigenvalues are within ``gap``,
    every cluster is a singleton and no linkage pass runs.
    """
    w = np.asarray(w, dtype=complex)
    near = np.abs(w[:, None] - w) <= gap
    near.flat[:: w.size + 1] = True  # even where the distance is nan
    if np.count_nonzero(near) == w.size:
        return list(np.arange(w.size)[:, None])
    # Every index takes the smallest label among its neighbours, starting
    # from its own index (argmax finds the first pass: the smallest
    # neighbour).  A label travels one link a pass, so w.size passes settle
    # every chain, and each cluster then carries its smallest index.
    labels = near.argmax(axis=1)
    for _ in range(w.size):
        lowest = np.where(near, labels, w.size).min(axis=1)
        if (lowest == labels).all():
            break
        labels = lowest
    clusters: dict[int, list[int]] = {}
    for i, label in enumerate(labels.tolist()):
        clusters.setdefault(label, []).append(i)
    return [np.array(members) for members in clusters.values()]


def schur(a, vectors: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Complex Schur form ``a = q @ t @ q^H`` with ``t`` upper triangular.

    One LAPACK ``zgees`` call (no eigenvalue ordering); ``q`` is unitary, and
    ``None`` unless ``vectors``.  The leading ``k`` columns of ``q`` span an
    invariant subspace: ``a @ q[:, :k] == q[:, :k] @ t[:k, :k]``.

    Raises:
        OverflowError: if an entry of ``t`` or ``q`` is not finite.
    """
    from scipy.linalg import lapack  # slow import, needed only for Schur forms
    m = _matrix(a)
    _require_square(m)
    t, _, _, q, _, info = lapack.zgees(lambda z: None, m, compute_v=vectors)
    if info:
        raise ConvergenceError(f"Schur iteration failed: info={info}")
    return within_range(t, "the Schur form"), (within_range(q, "the Schur vectors") if vectors else None)


@dataclass(frozen=True)
class JordanStructure:
    """The result of :func:`jordan_fingerprint`: its ``(lam, weyr)`` clusters,
    each cluster's Jordan ``(block size, count)`` pairs, and the matrix's
    Frobenius norm (:func:`matrix_scale`), so a caller's tolerance needs no second norm."""

    clusters: tuple[tuple[complex, tuple[int, ...]], ...]
    blocks: tuple[tuple[tuple[int, int], ...], ...]
    scale: float


_SIMPLE = ((1, 1),)  # the blocks of a simple eigenvalue


def jordan_fingerprint(a) -> JordanStructure:
    """Eigenvalue clusters with their Weyr characteristics and Jordan blocks.

    The :class:`JordanStructure`'s clusters are ``((lam, (nu_1, nu_2, ...)),
    ...)`` sorted by (real, imag) of ``lam``, where ``nu_k`` is the nullity
    of ``(a - lam*I)**k``; each cluster's block sizes are decoded from it
    once, by :func:`weyr_to_block_sizes`.  Two matrices are similar exactly
    when their clusters match under eigenvalue pairing within tolerance
    (see :func:`fingerprints_match`).

    Every step runs on one copy of ``a`` times :func:`scaling_unit` of its
    Frobenius norm; only eigenvalues and cluster means are scaled back,
    exactly, so an exact power of two times ``a`` scales only them.
    One eigenvalue computation yields the spectrum; eigenvalues closer than
    ``CLUSTER_TOL`` times the matrix scale are merged (Jordan structure is
    discontinuous, so this is a documented heuristic).  A cluster of one
    eigenvalue has Weyr characteristic ``(1,)`` and one block of size 1;
    when every cluster is one, nothing more is computed.  Each repeated
    cluster moves as many Schur eigenvalues as it has, the nearest ones, to
    the top of what is left of one complex Schur form (no Schur vectors),
    reads that leading block and leaves the rest to the next, so no other
    eigenvalue enters its nullities: with ``b`` the block minus ``lam*I`` and
    ``s`` its largest singular value, the k-th nullity counts the singular
    values of ``b**k / s**(k-1)`` at most ``DEFAULT_TOL`` times the scale,
    until it reaches the block's size or stops growing; no power's norm
    exceeds ``s``.  No eigenvector, Schur vector or singular vector is formed.

    Raises:
        ConvergenceError: if a cluster's nullities are no Weyr characteristic
            (see :func:`weyr_to_block_sizes`) or stop short of the block's
            size: the cluster is unresolved.
        OverflowError: if the Frobenius norm or a scaled-back eigenvalue overflows.
    """
    m = _matrix(a)
    _require_square(m)
    norm = matrix_scale(m)
    if norm == math.inf:  # every cluster would merge, and every nullity be full
        raise OverflowError("the scale of the matrix exceeds the float range")
    unit = scaling_unit(norm)
    m, scale = _times(m, unit), norm * unit
    w = eigvals(m)
    lams = within_range((w.view(float) / unit).view(complex), "an eigenvalue")
    clusters = cluster_eigenvalues(w, CLUSTER_TOL * scale)
    if len(clusters) == w.size:  # all singletons, sorted again where scaling back ties two real parts
        lams = sorted(lams.tolist(), key=lambda lam: (lam.real, lam.imag))
        return JordanStructure(tuple((lam, (1,)) for lam in lams), (_SIMPLE,) * w.size, norm)
    from scipy.linalg import lapack  # ztrsen reorders the Schur form

    out, cutoff = [], DEFAULT_TOL * scale
    t, _ = schur(m)  # each repeated cluster takes its block off the top
    for idx in clusters:
        if idx.size == 1:
            out.append((complex(lams[idx[0]]), (1,), _SIMPLE))
            continue
        d = np.abs(t.diagonal()[:, None] - w[idx]).min(axis=1)
        # With wantq=0, ztrsen reads no Schur vectors; t stands in for them.
        t, _, _, k, *_ = lapack.ztrsen(d <= np.sort(d)[idx.size - 1], t, t, job="N", wantq=0)
        mean = complex(w[idx].sum() / idx.size)
        shifted, t = t[:k, :k] - mean * np.eye(k), t[k:, k:]
        s = singular_values(shifted)
        weyr = [int(np.count_nonzero(s <= cutoff))]
        power = shifted
        while weyr[-1] < k:
            power = power @ shifted / s[0]
            nullity = int(np.count_nonzero(singular_values(power) <= cutoff))
            if nullity <= weyr[-1]:
                break
            weyr.append(nullity)
        blocks = weyr_to_block_sizes(tuple(weyr))  # raises unless weyr is a Weyr characteristic
        if weyr[-1] < k:
            raise ConvergenceError(f"nullities {tuple(weyr)} stop short of {k}: Jordan structure not resolved")
        out.append((complex(mean.real / unit, mean.imag / unit), tuple(weyr), tuple(blocks.items())))
    out.sort(key=lambda c: (c[0].real, c[0].imag))
    return JordanStructure(tuple((lam, weyr) for lam, weyr, _ in out), tuple(b for *_, b in out), norm)


def fingerprints_match(
    fa: Sequence[tuple[complex, tuple[int, ...]]],
    fb: Sequence[tuple[complex, tuple[int, ...]]],
    gap: float,
) -> bool:
    """Whether two sequences of ``(lam, weyr)`` clusters (such as
    :attr:`JordanStructure.clusters`) pair off one to one, each pair within
    ``gap`` of each other and with equal Weyr characteristics.

    Decided by augmenting paths over the admissible pairs (a perfect
    bipartite matching), so any valid pairing is found, whatever the sort
    order of near-ties or the distances within ``gap``.
    """
    if len(fa) != len(fb):
        return False
    d = np.subtract.outer([la for la, _ in fa], [lb for lb, _ in fb])
    near = np.hypot(d.real, d.imag) <= gap  # rounds as abs() does; np.abs may not
    admissible: list[list[int]] = [[] for _ in fa]
    for i, j in zip(*(k.tolist() for k in np.nonzero(near))):  # row by row, j ascending
        if fa[i][1] == fb[j][1]:
            admissible[i].append(j)
    owner: dict[int, int] = {}  # cluster of fb -> its partner in fa
    partner: dict[int, int] = {}  # cluster of fa -> its partner in fb
    for start in range(len(fa)):
        # Search the alternating paths from the unpaired ``start`` for an
        # unpaired cluster of fb; ``reached`` records how each was reached.
        reached: dict[int, int] = {}
        stack, free = [start], None
        while stack and free is None:
            i = stack.pop()
            for j in admissible[i]:
                if j not in reached:
                    reached[j] = i
                    if j not in owner:
                        free = j
                        break
                    stack.append(owner[j])
        if free is None:
            return False
        j = free
        while j is not None:  # flip the pairs along the path back to start
            i = reached[j]
            previous = partner.get(i)
            owner[j], partner[i] = i, j
            j = previous
    return True


def weyr_to_block_sizes(weyr: tuple[int, ...]) -> dict[int, int]:
    """Convert a Weyr characteristic into ``{block size: count}``.

    Raises:
        ConvergenceError: if the first nullity is 0 or the nullity steps
            grow, so ``weyr`` is no Weyr characteristic (a cluster whose
            eigenvalues are split, or one that merged separate eigenvalues).
    """
    # The k-th step counts the blocks of size k or more.
    steps = [nu - below for below, nu in zip((0, *weyr), weyr)]
    if weyr and weyr[0] <= 0:
        raise ConvergenceError(f"first nullity of {weyr} is 0: Jordan structure not resolved")
    if any(later > earlier for earlier, later in zip(steps, steps[1:])):
        raise ConvergenceError(f"nullity steps of {weyr} grow: Jordan structure not resolved")
    return {k: c - d for k, (c, d) in enumerate(zip(steps, [*steps[1:], 0]), 1) if c > d}
