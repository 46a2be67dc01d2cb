"""Each independent check passes on a right answer and fails on a wrong one.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from checks import CheckError, block, unblock  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def lift(y):
    """Quaternion column ``(up, -i up, low, i low)`` of a block eigenvector."""
    n = y.shape[0] // 2
    up, low = y[:n], y[n:]
    return np.stack([up, -1j * up, low, 1j * low])


def eigenpairs(a):
    w, v = np.linalg.eig(block(a))
    vectors = np.stack([lift(v[:, k]) for k in range(w.size)], axis=2)
    bx = block(vectors)
    k = w.size
    resid = block(a) @ bx - bx * np.concatenate([w, w])
    residuals = np.sqrt(np.sum(np.abs(resid[:, :k]) ** 2 + np.abs(resid[:, k:]) ** 2, axis=0))
    return w, vectors, residuals


def test_block_round_trip(rng):
    a = inputs.unit_disk(rng, (4, 3, 5))
    assert np.allclose(unblock(block(a)), a)
    assert block(a).shape == (6, 10)


def test_product(rng):
    a, b = inputs.unit_disk(rng, (4, 4, 4)), inputs.unit_disk(rng, (4, 4, 4))
    ab = unblock(block(a) @ block(b))
    checks.check_product(a, b, ab)
    ab[2, 1, 3] += 1e-6
    with pytest.raises(CheckError):
        checks.check_product(a, b, ab)


def test_perturbed_inverse_fails(rng):
    a = inputs.unit_disk(rng, (4, 6, 6))
    a_inv = unblock(np.linalg.inv(block(a)))
    checks.check_inverse(a, a_inv)
    a_inv[1, 2, 3] += 1e-6
    with pytest.raises(CheckError):
        checks.check_inverse(a, a_inv)


def test_penrose_equations(rng):
    d = inputs.dense_input(rng, 8)
    x = unblock(np.linalg.pinv(block(d.c), rcond=1e-10))
    checks.check_pinv(d.c, x)
    with pytest.raises(CheckError):
        checks.check_pinv(d.c, x * (1 + 1e-6))
    with pytest.raises(CheckError):  # a cutoff that keeps the rounding-level singular value
        checks.check_pinv(d.c, unblock(np.linalg.pinv(block(d.c), rcond=1e-20)))


def test_off_by_one_rank_fails(rng):
    d = inputs.dense_input(rng, 8)
    twice_rank = int(np.linalg.matrix_rank(block(d.c), tol=1e-10 * np.linalg.norm(block(d.c), 2)))
    assert twice_rank == d.twice_rank == 7
    checks.check_rank(twice_rank, d.twice_rank)
    for wrong in (twice_rank - 1, twice_rank + 1):
        with pytest.raises(CheckError):
            checks.check_rank(wrong, d.twice_rank)


def test_det(rng):
    a = inputs.unit_disk(rng, (4, 5, 5))
    det = complex(np.linalg.det(block(a)))
    checks.check_det_slogdet(a, det)
    for wrong in (det * (1 + 1e-6), -det, complex("inf")):
        with pytest.raises(CheckError):
            checks.check_det_slogdet(a, wrong)
    checks.check_det_known(6 + 0j, [1, 2, 3])
    with pytest.raises(CheckError):
        checks.check_det_known(-6 + 0j, [1, 2, 3])


def test_charpoly_exact():
    spectrum = [1 + 1j, 1 + 1j, -2, 3j]
    coef = np.polynomial.polynomial.polyfromroots(spectrum)
    checks.check_charpoly_exact(coef, spectrum)
    coef[1] += 1
    with pytest.raises(CheckError):
        checks.check_charpoly_exact(coef, spectrum)


def test_wrong_eigenvalue_fails(rng):
    a = inputs.unit_disk(rng, (4, 5, 5))
    w, vectors, residuals = eigenpairs(a)
    reference = np.linalg.eigvals(block(a))
    checks.check_eigenpairs(a, w, vectors, residuals, reference, tol=1e-10)
    wrong = w.copy()
    wrong[3] += 1e-3
    with pytest.raises(CheckError):
        checks.check_eigenpairs(a, wrong, vectors, residuals, reference, tol=1e-10)
    with pytest.raises(CheckError):  # right pairs, claimed residual off
        checks.check_eigenpairs(a, w, vectors, residuals + 1e-3, reference, tol=1e-10)
    with pytest.raises(CheckError):  # right pairs, spectrum that is not A's
        checks.check_eigenpairs(a, w, vectors, residuals, reference + 1e-3, tol=1e-10)


def test_regular_pair(rng):
    a = inputs.unit_disk(rng, (4, 4, 4))
    w, v = np.linalg.eig(block(a))
    y = v[:, [0, 1]]
    # x is the n x 1 column whose 2n x 2 block is [y0, y1]; its value's
    # image is diag(w0, w1).
    x = unblock(y)
    value = unblock(np.diag(w[:2]))[:, 0, 0]
    residual = float(np.linalg.norm(block(a) @ block(x) - block(x) @ np.diag(w[:2])))
    checks.check_regular_pair(a, value, x, residual, w, tol=1e-10)
    wrong_value = unblock(np.diag([w[0], w[1] + 1e-3]))[:, 0, 0]
    with pytest.raises(CheckError):
        checks.check_regular_pair(a, wrong_value, x, residual, w, tol=1e-10)
    flat = unblock(np.column_stack([y[:, 0], 2 * y[:, 0]]))  # rank-1 block: no rank-1 lift
    with pytest.raises(CheckError):
        checks.check_regular_pair(a, unblock(np.diag([w[0], w[0]]))[:, 0, 0], flat, 0.0, w, tol=1e-10)


def test_flipped_verdict_fails():
    checks.check_verdict("similar", True, True)
    checks.check_verdict("similar", np.bool_(False), False)
    with pytest.raises(CheckError):
        checks.check_verdict("similar", False, True)
    with pytest.raises(CheckError):
        checks.check_verdict("similar_to_complex", True, False)


def test_jordan_witness():
    jordan = inputs.jordan_matrix([(1j, 2), (1j, 1), (2, 1)])
    checks.check_jordan_witness(jordan + 1e-12 * np.eye(4), jordan)
    split = inputs.jordan_matrix([(1j, 1), (1j, 1), (1j, 1), (2, 1)])
    with pytest.raises(CheckError):
        checks.check_jordan_witness(split, jordan)
    moved = inputs.jordan_matrix([(1j, 2), (1j, 1), (3, 1)])
    with pytest.raises(CheckError):
        checks.check_jordan_witness(moved, jordan)


def test_scalar_checks():
    a, b = np.array([1, 2j, -1, 3]), np.array([0.5, 1, 1j, -2])
    ab = unblock(checks.image(a) @ checks.image(b))[:, 0, 0]
    checks.check_scalar_product(a, b, ab)
    ba = unblock(checks.image(b) @ checks.image(a))[:, 0, 0]
    with pytest.raises(CheckError):  # the algebra is noncommutative
        checks.check_scalar_product(a, b, ba)
    a_inv = unblock(np.linalg.inv(checks.image(a)))[:, 0, 0]
    checks.check_scalar_inverse(a, a_inv)
    with pytest.raises(CheckError):
        checks.check_scalar_inverse(a, a_inv * 1.001)


def test_canonical_case():
    assert checks.canonical_case([2, 0, 0, 0]) == "complex"
    assert checks.canonical_case([2, 1, 1j, 0]) == "null"
    assert checks.canonical_case([2, 1, 1, 0]) == "generic"
    checks.check_canonical([2, 1, 1j, 0], "null", [2, 0, -0.5, 0.5j])
    checks.check_canonical([2, 0, 3, 4], "generic", [2, 5, 0, 0])
    with pytest.raises(CheckError):
        checks.check_canonical([2, 0, 3, 4], "null", [2, 0, -0.5, 0.5j])
    with pytest.raises(CheckError):
        checks.check_canonical([2, 0, 3, 4], "generic", [2, 4, 0, 0])


def test_unimodular_inverse_is_exact(rng):
    p, p_inv = inputs.unimodular(rng, 16)
    assert np.array_equal(inputs.product(p, p_inv), inputs.identity(16))
    assert np.array_equal(p.real, np.round(p.real)) and np.array_equal(p_inv.imag, np.round(p_inv.imag))
    assert np.any(p[1:] != 0)  # genuinely quaternionic


def test_structured_case_is_built_as_stated(rng):
    case = inputs.structured_case(rng, 16)
    w = np.linalg.eigvals(block(case.x))
    checks.match_spectrum(w, case.spectrum, 1e-5)
    assert np.unique(case.spectrum).size == 4  # 4 eigenvalues, each 8 times
    checks.match_spectrum(np.linalg.eigvals(block(case.other)), case.spectrum, 1e-5)
    checks.match_spectrum(np.linalg.eigvals(block(case.conjugate)), case.spectrum, 1e-5)


def test_same_seed_same_inputs():
    a = inputs.small_case(inputs.rng_for("small", 3), 4, quaternionic=True)
    b = inputs.small_case(inputs.rng_for("small", 3), 4, quaternionic=True)
    c = inputs.small_case(inputs.rng_for("small", 4), 4, quaternionic=True)
    assert np.array_equal(a.x, b.x) and not np.array_equal(a.x, c.x)


def test_document_round_trip(rng):
    a = inputs.unit_disk(rng, (4, 2, 3))
    assert np.array_equal(inputs.parse_document(inputs.document(a)), a)
