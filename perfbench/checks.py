"""Output checks computed apart from the program.

Every check works on plain numpy arrays: a biquaternion matrix is its
``(4, m, n)`` complex component array, a scalar its four components.  The
block representation is written here from the paper's formula, and every
claim the program makes is re-derived from it with numpy:

* ``block(A @ B) == block(A) @ block(B)``
* ``block(inv(A)) @ block(A) == I``
* the four Penrose equations for ``pinv``
* rank against the twice-rank the input was built with
* ``central_det`` against ``numpy.linalg.slogdet`` or a known spectrum
* each eigenpair residual, recomputed, and each eigenvalue against a
  reference spectrum
* the regular eigenpair's vector lifts to a rank-1 column
* verdicts and charpoly coefficients known from how the input was built

A failed check raises :class:`CheckError`; nothing here compares with a
stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment


class CheckError(AssertionError):
    """An output of the program disagrees with its independent check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- representations, from the paper's formula -----------------------------


def block(c) -> np.ndarray:
    """``[[A0 + i A1, -(A2 + i A3)], [A2 - i A3, A0 - i A1]]`` (2m x 2n)."""
    a0, a1, a2, a3 = np.asarray(c, dtype=complex)
    m, n = a0.shape
    out = np.empty((2 * m, 2 * n), dtype=complex)
    out[:m, :n] = a0 + 1j * a1
    out[:m, n:] = -(a2 + 1j * a3)
    out[m:, :n] = a2 - 1j * a3
    out[m:, n:] = a0 - 1j * a1
    return out


def unblock(m) -> np.ndarray:
    """Components of the matrix whose block representation is ``m``."""
    m = np.asarray(m, dtype=complex)
    hm, hn = m.shape[0] // 2, m.shape[1] // 2
    m11, m12, m21, m22 = m[:hm, :hn], m[:hm, hn:], m[hm:, :hn], m[hm:, hn:]
    return np.stack([(m11 + m22) / 2, 1j * (m22 - m11) / 2, (m21 - m12) / 2, 1j * (m12 + m21) / 2])


def interleaved(c) -> np.ndarray:
    """The 2m x 2n representation whose (i, j) 2x2 cell images entry (i, j)."""
    a0, a1, a2, a3 = np.asarray(c, dtype=complex)
    m, n = a0.shape
    out = np.zeros((2 * m, 2 * n), dtype=complex)
    out[0::2, 0::2] = a0 + 1j * a1
    out[0::2, 1::2] = -(a2 + 1j * a3)
    out[1::2, 0::2] = a2 - 1j * a3
    out[1::2, 1::2] = a0 - 1j * a1
    return out


def image(q) -> np.ndarray:
    """2x2 complex image of one biquaternion given by its four components."""
    a0, a1, a2, a3 = (complex(c) for c in q)
    return np.array([[a0 + 1j * a1, -(a2 + 1j * a3)], [a2 - 1j * a3, a0 - 1j * a1]])


def _fro(m) -> float:
    return float(np.linalg.norm(m))


# -- matrix operations -------------------------------------------------------


def check_product(a, b, ab, rtol: float = 1e-12) -> None:
    ba, bb = block(a), block(b)
    err = _fro(block(ab) - ba @ bb)
    _require(err <= rtol * _fro(ba) * _fro(bb), f"product residual {err:.3e}")


def check_inverse(a, ainv, tol: float = 1e-8) -> None:
    ba = block(a)
    err = _fro(block(ainv) @ ba - np.eye(ba.shape[0]))
    _require(err <= tol, f"inverse residual ||inv(A) A - I|| = {err:.3e}")


def check_pinv(c, x, rtol: float = 1e-8) -> None:
    """The four Penrose equations on the block representations."""
    bc, bx = block(c), block(x)
    cx, xc = bc @ bx, bx @ bc
    scale = max(1.0, _fro(cx))
    residuals = {
        "CXC = C": _fro(cx @ bc - bc) / max(_fro(bc), 1e-300),
        "XCX = X": _fro(xc @ bx - bx) / max(_fro(bx), 1e-300),
        "(CX)^H = CX": _fro(cx.conj().T - cx) / scale,
        "(XC)^H = XC": _fro(xc.conj().T - xc) / scale,
    }
    for law, err in residuals.items():
        _require(err <= rtol, f"Penrose equation {law}: relative residual {err:.3e}")


def check_rank(twice_rank: int, expected: int) -> None:
    _require(twice_rank == expected, f"twice-rank {twice_rank}, built with {expected}")


def check_det_slogdet(a, det: complex, rtol: float = 1e-8) -> None:
    sign, logabs = np.linalg.slogdet(block(a))
    _require(np.isfinite(det) and det != 0, f"central_det is {det!r}")
    log_err = abs(np.log(abs(det)) - logabs)
    phase_err = abs(det / abs(det) - sign)
    _require(
        log_err <= rtol * max(1.0, abs(logabs)) and phase_err <= rtol,
        f"central_det off slogdet: log error {log_err:.3e}, phase error {phase_err:.3e}",
    )


def check_det_known(det: complex, spectrum, rtol: float = 1e-9) -> None:
    expected = complex(np.prod(np.asarray(spectrum, dtype=complex)))
    err = abs(det - expected)
    _require(err <= rtol * abs(expected), f"central_det {det!r}, expected {expected!r}")


def check_charpoly_exact(coef, spectrum) -> None:
    """Ascending coefficients against the product of ``(z - lam)`` over a
    spectrum of Gaussian integers, expanded in exact integer arithmetic."""
    exact = [1 + 0j]
    for lam in spectrum:
        lam = complex(round(lam.real), round(lam.imag))
        shifted = [0j, *exact]  # z * p
        for k, c in enumerate(exact):
            shifted[k] -= lam * c
        exact = shifted
    got = [complex(c) for c in coef]
    _require(len(got) == len(exact), f"charpoly degree {len(got) - 1}, expected {len(exact) - 1}")
    worst = max(abs(g - e) for g, e in zip(got, exact))
    _require(worst == 0.0, f"charpoly coefficient off its exact value by {worst:.3e}")


def match_spectrum(values, reference, tol: float) -> None:
    """Pair ``values`` one-to-one with ``reference`` (as multisets) within
    ``tol``."""
    values = np.asarray(values, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    _require(values.size == reference.size, f"{values.size} eigenvalues, expected {reference.size}")
    cost = np.abs(values[:, None] - reference[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max()) if values.size else 0.0
    _require(worst <= tol, f"eigenvalue off the reference spectrum by {worst:.3e}")


def check_eigenpairs(a, values, vectors, residuals, reference, tol: float) -> None:
    """``vectors`` is a ``(4, n, 2n)`` array, one eigenvector column per
    eigenvalue; each residual ``||A X - X lam||`` is recomputed in the block
    norm and bounded by ``tol * ||block(A)|| * ||block(X)||``."""
    ba = block(a)
    values = np.asarray(values, dtype=complex)
    k = values.size
    bx = block(vectors)  # column j and column k + j are block(x_j)
    resid = ba @ bx - bx * np.concatenate([values, values])[None, :]
    r = np.sqrt(np.sum(np.abs(resid[:, :k]) ** 2 + np.abs(resid[:, k:]) ** 2, axis=0))
    xnorm = np.sqrt(np.sum(np.abs(bx[:, :k]) ** 2 + np.abs(bx[:, k:]) ** 2, axis=0))
    _require(bool(np.all(xnorm > 1e-6)), "an eigenvector is (near) zero")
    scale = _fro(ba)
    worst = float(np.max(r / (scale * xnorm)))
    _require(worst <= tol, f"eigenpair relative residual {worst:.3e}")
    reported = np.asarray(residuals, dtype=float)
    _require(
        bool(np.all(np.abs(reported - r) <= 1e-6 * scale * xnorm + 1e-9)),
        "reported eigenpair residuals disagree with the recomputed ones",
    )
    match_spectrum(values, reference, 1e-6 * max(scale, 1.0))


def check_regular_pair(a, value, x, residual: float, reference, tol: float) -> None:
    """A regular right eigenpair: ``x`` (n x 1) has rank 1, so its 2n x 2
    block has full column rank; ``A x = x value`` in the block norm; the
    value's 2x2 image has eigenvalues in the reference spectrum."""
    ba, bx, lam = block(a), block(x), image(value)
    s = np.linalg.svd(bx, compute_uv=False)
    _require(s.size == 2 and s[1] > 1e-6 * s[0], f"eigenvector lift has rank < 1: singular values {s}")
    err = _fro(ba @ bx - bx @ lam)
    bound = tol * _fro(ba) * _fro(bx)
    _require(err <= bound, f"regular eigenpair residual {err:.3e} above {bound:.3e}")
    _require(abs(residual - err) <= bound + 1e-9, f"reported residual {residual:.3e}, recomputed {err:.3e}")
    vals = np.linalg.eigvals(lam)
    cost = np.abs(vals[:, None] - np.asarray(reference, dtype=complex)[None, :])
    worst = float(cost.min(axis=1).max())
    _require(worst <= 1e-6 * max(_fro(ba), 1.0), f"regular eigenvalue off the spectrum by {worst:.3e}")


def check_verdict(name: str, got, expected: bool) -> None:
    _require(bool(got) is expected, f"{name}: got {bool(got)}, expected {expected} by construction")


def check_jordan_witness(j, jordan) -> None:
    """``similar_to_complex``'s witness against the complex Jordan matrix
    the input was built from: same spectrum and the same number of
    superdiagonal ones, and nothing else off the two diagonals."""
    j = np.asarray(j, dtype=complex)
    _require(j.shape == jordan.shape, f"witness shape {j.shape}, expected {jordan.shape}")
    scale = max(_fro(jordan), 1.0)
    match_spectrum(np.diag(j), np.diag(jordan), 1e-6 * scale)
    off = j - np.diag(np.diag(j)) - np.diag(np.diag(j, 1), 1)
    _require(_fro(off) == 0.0, "witness has entries off its two diagonals")
    ones = int(np.count_nonzero(np.diag(j, 1)))
    _require(ones == int(np.count_nonzero(np.diag(jordan, 1))), f"witness has {ones} Jordan links")


# -- scalar operations -----------------------------------------------------------


def check_scalar_product(a, b, ab) -> None:
    err = _fro(image(ab) - image(a) @ image(b))
    _require(err <= 1e-12 * max(1.0, _fro(image(a)) * _fro(image(b))), f"scalar product residual {err:.3e}")


def check_scalar_inverse(a, ainv) -> None:
    err = _fro(image(a) @ image(ainv) - np.eye(2))
    _require(err <= 1e-10, f"scalar inverse residual {err:.3e}")


def canonical_case(q) -> str:
    """Similarity class of a biquaternion with exactly representable
    components: ``complex`` (no e-part), ``null`` (isotropic e-part) or
    ``generic``."""
    a0, a1, a2, a3 = (complex(c) for c in q)
    if a1 == a2 == a3 == 0:
        return "complex"
    return "null" if a1 * a1 + a2 * a2 + a3 * a3 == 0 else "generic"


def check_canonical(q, case: str, form) -> None:
    expected = canonical_case(q)
    _require(case == expected, f"canonical case {case}, expected {expected}")
    form = [complex(c) for c in form]
    a0 = complex(q[0])
    if expected == "complex":
        _require(form == [complex(c) for c in q], "complex element is not its own canonical form")
    elif expected == "null":
        _require(form == [a0, 0, -0.5, 0.5j], f"null canonical form {form}")
    else:
        tau_sq = sum(complex(c) ** 2 for c in q[1:])
        ok = form[0] == a0 and form[2] == form[3] == 0
        ok = ok and abs(form[1] ** 2 - tau_sq) <= 1e-12 * max(1.0, abs(tau_sq))
        _require(ok, f"generic canonical form {form}")
