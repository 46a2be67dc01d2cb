import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biquat import (
    E1,
    E2,
    E3,
    ONE,
    Biquaternion,
    BqMatrix,
    CanonicalCase,
    ConvergenceError,
    DimensionError,
    InvalidPairError,
    adjoint_vector,
    clinalg,
    derived_complex_eigenvalues,
    diagonalizable,
    regular_right_eigenpair,
    right_eigenpairs,
    sampling,
    similar,
    similar_to_complex,
    spectral,
)
from biquat.spectral import RegularEigenPair
from conftest import bq_close, mat_close, merged_cluster_matrix, split_cluster_matrix

NULL_SCALAR = Biquaternion(0, 0, -0.5, 0.5j)  # block image [[0,1],[0,0]]


def single(entry) -> BqMatrix:
    return BqMatrix.from_entries([[entry]])


class TestAdjointVector:
    def test_complex_column(self):
        x = BqMatrix.from_entries([[1], [2]])
        np.testing.assert_array_equal(adjoint_vector(x), [1, 2, 0, 0])

    def test_basis_entry(self):
        np.testing.assert_array_equal(adjoint_vector(single(E1)), [1j, 0])

    def test_rejects_multicolumn(self, rng):
        with pytest.raises(DimensionError):
            adjoint_vector(sampling.integer_matrix(rng, 2, 2))

    def test_intertwining_identities(self, rng):
        for _ in range(50):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            a = sampling.integer_matrix(rng, m, n)
            x = sampling.integer_matrix(rng, n, 1)
            lam = complex(int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
            np.testing.assert_array_equal(
                adjoint_vector(a @ x), a.block_repr() @ adjoint_vector(x)
            )
            np.testing.assert_array_equal(
                adjoint_vector(x * lam), adjoint_vector(x) * lam
            )


class TestRightEigenpairs:
    def test_basis_entry(self):
        pairs = right_eigenpairs(single(E1))
        assert [p.value for p in pairs] == [-1j, 1j]
        # eigenvector for +i is proportional to 1 - i*e1, for -i to e2 + i*e3
        v_plus = pairs[1].vector.entry(0, 0)
        assert bq_close(v_plus, Biquaternion(1, -1j) * (v_plus.a0 / 1.0))
        v_minus = pairs[0].vector.entry(0, 0)
        assert abs(v_minus.a0) < 1e-14 and abs(v_minus.a1) < 1e-14
        for p in pairs:
            assert p.residual <= 1e-12

    def test_identity(self):
        pairs = right_eigenpairs(BqMatrix.identity(2))
        assert [p.value for p in pairs] == [1, 1, 1, 1]

    def test_complex_diagonal(self):
        pairs = right_eigenpairs(BqMatrix.diag([2, 3]))
        assert [p.value for p in pairs] == [2, 2, 3, 3]

    def test_residuals_and_spectrum_random(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 7))
            a = sampling.unit_matrix(rng, n, n)
            pairs = right_eigenpairs(a)
            assert len(pairs) == 2 * n
            spectrum = clinalg.eigvals(a.block_repr())
            for k, p in enumerate(pairs):
                assert p.residual <= 1e-9 * a.norm()
                assert abs(p.value - spectrum[k]) <= 1e-12 * max(1.0, a.norm())
                assert p.vector.norm() > 0


    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_reported_residual_is_that_of_the_returned_vector(self, rng, n):
        a = sampling.unit_matrix(rng, n, n)
        for p in right_eigenpairs(a):
            direct = (a @ p.vector - p.vector * p.value).norm()
            assert abs(p.residual - direct) <= 1e-14 * a.norm() * p.vector.norm()

    def test_reported_residual_with_zero_divisors(self):
        # every entry but the last is a zero divisor, so block(A) has rank 5
        a = BqMatrix.from_entries(
            [[Biquaternion(1, 1j), E2 + 1j * E3, 0], [0, Biquaternion(2, 0, 2j), E1], [E2, 0, 3]]
        )
        assert a.rank().twice_rank == 5
        for p in right_eigenpairs(a):
            direct = (a @ p.vector - p.vector * p.value).norm()
            assert abs(p.residual - direct) <= 1e-14 * a.norm() * p.vector.norm()
            assert p.residual <= 1e-12 * a.norm()

    def test_residual_exposes_a_wrong_lift(self, rng, monkeypatch):
        a = sampling.unit_matrix(rng, 3, 3)
        lift = spectral._lift_columns

        def corrupt_first_column(y):
            c = lift(y).components.copy()
            c[1, :, 0] *= -1  # the frame of column 0 gets the wrong sign on e1
            return BqMatrix(c)

        monkeypatch.setattr(spectral, "_lift_columns", corrupt_first_column)
        pairs = right_eigenpairs(a)
        assert pairs[0].residual > 1e-2 * a.norm() * pairs[0].vector.norm()
        assert all(p.residual <= 1e-12 * a.norm() for p in pairs[1:])


class TestRegularEigenpair:
    def test_basis_entry(self):
        pair = regular_right_eigenpair(single(E1))
        assert pair.value == E1
        assert pair.vector.entry(0, 0) == ONE
        assert pair.residual <= 1e-14
        assert pair.vector.rank().twice_rank == 2

    def test_complex_scalar(self):
        c = 2.5 - 1j
        pair = regular_right_eigenpair(single(c))
        assert bq_close(pair.value, Biquaternion(c), tol=1e-12)
        assert pair.vector.entry(0, 0) == ONE

    def test_defective_null_scalar(self):
        pair = regular_right_eigenpair(single(NULL_SCALAR))
        assert bq_close(pair.value, NULL_SCALAR, tol=1e-12)
        assert pair.vector.rank().twice_rank == 2
        assert pair.residual <= 1e-12

    def test_random(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 7))
            a = sampling.unit_matrix(rng, n, n)
            pair = regular_right_eigenpair(a)
            assert pair.residual <= 1e-9 * a.norm()
            assert pair.vector.rank().twice_rank == 2


# block image [[1+2i, 2], [2, 1-2i]]: one Jordan block of size 2 at 1
JORDAN_ELEMENT = Biquaternion(1, 2, 0, 2j)

GRID_MATRICES = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(-5, 5), min_size=4 * n * n, max_size=4 * n * n).map(
        lambda v: BqMatrix(np.array(v, dtype=complex).reshape(4, n, n))
    )
)


class TestRegularEigenpairScaleFree:
    """The Schur construction holds at any scale, defective input included."""

    @settings(derandomize=True, deadline=None)
    @given(st.one_of(GRID_MATRICES, st.just(single(JORDAN_ELEMENT))), st.integers(-100, 100))
    @example(single(JORDAN_ELEMENT), -9)
    @example(single(JORDAN_ELEMENT), 11)
    @example(single(JORDAN_ELEMENT - 1), 30)  # nilpotent
    def test_residual_rank_and_spectrum(self, a, k):
        ac = a * 10.0**k
        pair = regular_right_eigenpair(ac)
        assert pair.residual <= 1e-13 * ac.norm()
        assert pair.vector.rank().twice_rank == 2
        # each eigenvalue of the value's image is an eigenvalue of a nearby
        # block representation (backward error), which also holds for
        # eigenvalues of Jordan blocks that rounding splits
        rep = ac.block_repr()
        eye = np.eye(rep.shape[0])
        for mu in np.linalg.eigvals(pair.value.as_complex_matrix()):
            assert np.linalg.svd(rep - mu * eye, compute_uv=False)[-1] <= 1e-13 * ac.norm()


class TestDerivedEigenvalues:
    def test_generic(self):
        a = single(E1)
        pair = regular_right_eigenpair(a)
        assert sorted(derived_complex_eigenvalues(a, pair), key=lambda z: z.imag) == [
            -1j,
            1j,
        ]

    def test_complex_value(self):
        a = single(5)
        pair = regular_right_eigenpair(a)
        assert derived_complex_eigenvalues(a, pair) == [5, 5]

    def test_null_value(self):
        a = single(NULL_SCALAR)
        pair = regular_right_eigenpair(a)
        derived = derived_complex_eigenvalues(a, pair)
        assert len(derived) == 1
        assert abs(derived[0]) <= 1e-12

    def test_rejects_bogus_pair(self, rng):
        a = sampling.unit_matrix(rng, 2, 2)
        fake = RegularEigenPair(
            E1 + 3, BqMatrix.from_entries([[ONE], [E2]]), 0.0
        )
        with pytest.raises(InvalidPairError):
            derived_complex_eigenvalues(a, fake)

    def test_roundtrip_into_spectrum(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            a = sampling.unit_matrix(rng, n, n)
            pair = regular_right_eigenpair(a)
            spectrum = clinalg.eigvals(a.block_repr())
            for d in derived_complex_eigenvalues(a, pair):
                assert min(abs(d - w) for w in spectrum) <= 1e-8 * max(1.0, a.norm())

    @pytest.mark.parametrize("k", [-100, -50, -11, 11, 50, 100])
    @pytest.mark.parametrize(
        "a",
        [
            BqMatrix.from_entries([[JORDAN_ELEMENT, 1], [0, JORDAN_ELEMENT]]),
            BqMatrix.from_complex([[2, 1, 0], [0, 2, 0], [0, 0, 2]]),
            single(JORDAN_ELEMENT),
        ],
    )
    def test_null_case_at_any_scale(self, a, k):
        # the eigenvalue is null-case: its witness onto the fixed form is
        # ill-conditioned at these scales, and no value depends on it
        ac = a * 10.0**k
        pair = regular_right_eigenpair(ac)
        assert pair.value.canonical_form()[1] is CanonicalCase.NULL
        spectrum = np.linalg.eigvals(ac.block_repr())
        for d in derived_complex_eigenvalues(ac, pair):
            assert np.min(np.abs(d - spectrum)) <= 1e-7 * ac.norm()


class TestSimilar:
    def test_reflexive(self):
        assert similar(BqMatrix.identity(2), BqMatrix.identity(2))

    def test_nearby_eigenvalue_under_diagonal_similarity(self):
        # the block image doubles the 2x2 Jordan block, whose shift by 3e-6
        # has a singular value of 9e-12; it must not count toward 3e-6
        a = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 3e-6]])
        d = np.diag([1.0, 1e3, 1.0])
        b = d @ a @ np.linalg.inv(d)
        assert similar(BqMatrix.from_complex(a), BqMatrix.from_complex(b))

    def test_conjugates(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            a = sampling.integer_matrix(rng, n, n)
            x = sampling.invertible_integer_matrix(rng, n)
            assert similar(a, x.inverse() @ a @ x)

    def test_basis_scalars_similar(self):
        # both block images have simple spectrum {i, -i}
        assert similar(single(E1), single(E2))

    def test_spectrum_shift_not_similar(self, rng):
        a = sampling.integer_matrix(rng, 3, 3)
        assert not similar(a, a + BqMatrix.identity(3))

    def test_same_spectrum_different_structure(self):
        # equal eigenvalue multisets {2,2,2,2} but different Jordan layout:
        # J2 + J1 + J1 against J3 + J1 (triangular inputs keep the computed
        # spectra exact, so the verdict is not at the tolerance boundary)
        rep_a = np.diag([2.0 + 0j] * 4)
        rep_a[0, 1] = 1.0
        rep_b = np.diag([2.0 + 0j] * 4)
        rep_b[0, 1] = rep_b[1, 2] = 1.0
        a = BqMatrix.from_block_repr(rep_a)
        b = BqMatrix.from_block_repr(rep_b)
        assert not similar(a, b)

    def test_block_order_is_irrelevant(self):
        rep_a = np.diag([4.0 + 0j, 4.0, 4.0, -1.0])
        rep_a[0, 1] = 1.0  # J2(4) first
        rep_b = np.diag([4.0 + 0j, 4.0, 4.0, -1.0])
        rep_b[1, 2] = 1.0  # J2(4) second
        assert similar(BqMatrix.from_block_repr(rep_a), BqMatrix.from_block_repr(rep_b))

    @pytest.mark.parametrize("c", [1e-300, 1e-160, 1e160, 1e300])
    def test_spectrum_shift_not_similar_at_any_scale(self, c):
        a = BqMatrix.from_complex(np.diag([1.0, 2.0])) * c
        b = BqMatrix.from_complex(np.diag([1.0, 3.0])) * c
        assert similar(a, a) and not similar(a, b)

    def test_size_mismatch(self, rng):
        with pytest.raises(DimensionError):
            similar(BqMatrix.identity(2), BqMatrix.identity(3))


class TestDiagonalizable:
    def test_diagonal_of_basis(self):
        assert diagonalizable(BqMatrix.diag([E1, E2]))

    def test_identity(self):
        assert diagonalizable(BqMatrix.identity(3))

    @pytest.mark.parametrize("c", [1e-120, 1e120])
    def test_scaled_size_three_block(self, c):
        j = np.eye(3) + np.diag([1.0, 1.0], 1)
        assert not diagonalizable(BqMatrix.from_complex(j) * c)

    def test_size_three_block_beyond_power_range_is_refused(self):
        # the powers rule squares entries of 1e160, beyond the float range
        j = np.eye(3) + np.diag([1.0, 1.0], 1)
        with pytest.raises(OverflowError):
            diagonalizable(BqMatrix.from_complex(j) * 1e160)

    def test_conjugated_diagonal(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            d = BqMatrix.diag([sampling.integer_biquaternion(rng) for _ in range(n)])
            p = sampling.invertible_integer_matrix(rng, n)
            assert diagonalizable(p.inverse() @ d @ p)

    def test_large_jordan_block_preimage(self):
        # interleaved image J3(2) + J1(5) has a size-3 block: not
        # diagonalizable over the algebra
        m = np.diag([2.0, 2.0, 2.0, 5.0]).astype(complex)
        m[0, 1] = m[1, 2] = 1.0
        a = BqMatrix.from_interleaved_repr(m)
        np.testing.assert_allclose(a.interleaved_repr(), m)
        assert not diagonalizable(a)

    def test_two_block_preimage_is_diagonalizable(self):
        # blocks of size exactly 2 are fine
        m = np.diag([2.0, 2.0, 5.0, 5.0]).astype(complex)
        m[0, 1] = 1.0
        m[2, 3] = 1.0
        a = BqMatrix.from_interleaved_repr(m)
        assert diagonalizable(a)


class TestSimilarToComplex:
    def test_embedded_complex(self, rng):
        c = sampling.integer_components(rng, (3, 3))
        ok, j = similar_to_complex(BqMatrix.from_complex(c))
        assert ok
        # witness must be similar to c over the complex numbers
        fj = clinalg.jordan_fingerprint(j)
        fc = clinalg.jordan_fingerprint(c)
        gap = clinalg.CLUSTER_TOL * max(1.0, float(np.linalg.norm(c)))
        assert clinalg.fingerprints_match(fj, fc, gap)

    def test_basis_scalar_is_not(self):
        ok, j = similar_to_complex(single(E1))
        assert not ok and j is None

    def test_paired_basis_diagonal(self):
        ok, j = similar_to_complex(BqMatrix.diag([E1, -E1]))
        assert ok
        assert sorted(np.diag(j), key=lambda z: z.imag) == [-1j, 1j]

    @pytest.mark.parametrize("c", [0.1 + 0.2j, 1 / 3])
    def test_scalar_multiple_of_identity(self, c):
        ok, j = similar_to_complex(BqMatrix.identity(3) * c)
        assert ok
        np.testing.assert_allclose(j, c * np.eye(3), atol=1e-15)

    def test_unresolved_cluster_is_a_numerical_error(self):
        # J1(l1) + J3(l2), |l1 - l2| = 1.3e-4 at scale 1e21: the merged
        # cluster's nullity steps grow, (2, 6, 8), which is no Weyr characteristic
        with pytest.raises(ConvergenceError):
            similar_to_complex(merged_cluster_matrix())

    @pytest.mark.parametrize("matrix", [split_cluster_matrix, merged_cluster_matrix])
    @pytest.mark.parametrize(
        "verdict",
        [lambda x: similar(x, x), diagonalizable, similar_to_complex],
        ids=["similar", "diagonalizable", "similar_to_complex"],
    )
    def test_every_verdict_refuses_an_unresolved_cluster(self, matrix, verdict):
        # no verdict reads nullities that are no Weyr characteristic
        with pytest.raises(ConvergenceError):
            verdict(matrix())

    def test_jordan_witness_structure(self):
        # doubled nilpotent 2-block: J should be one 2-block
        rep = np.zeros((4, 4), dtype=complex)
        rep[0, 1] = rep[2, 3] = 1.0
        a = BqMatrix.from_block_repr(rep)
        ok, j = similar_to_complex(a)
        assert ok
        np.testing.assert_allclose(j, [[0, 1], [0, 0]], atol=1e-9)


class TestVerdictsReadEigenvaluesOnly:
    @pytest.fixture
    def no_vectors(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a verdict formed eigenvectors or Schur vectors")

        schur = clinalg.schur

        def schur_without_vectors(a, vectors=False):
            if vectors:
                refuse()
            return schur(a)

        monkeypatch.setattr(clinalg, "eig", refuse)
        monkeypatch.setattr(clinalg, "schur", schur_without_vectors)

    def test_generic(self, rng, no_vectors):
        a = sampling.unit_matrix(rng, 3, 3)
        p = sampling.invertible_integer_matrix(rng, 3)
        assert similar(a, p.inverse() @ a @ p)
        assert diagonalizable(a)
        assert similar_to_complex(a) == (False, None)

    def test_repeated_clusters(self, rng, no_vectors):
        # J2(2+i) + J1(2+i) + J1(-1): every cluster of the block image is repeated
        j = np.diag([2 + 1j, 2 + 1j, 2 + 1j, -1])
        j[0, 1] = 1
        p = sampling.invertible_integer_matrix(rng, 4)
        a = p.inverse() @ BqMatrix.from_complex(j) @ p
        assert similar(a, BqMatrix.from_complex(j))
        assert not similar(a, BqMatrix.from_complex(np.diag(np.diag(j))))
        assert diagonalizable(a)
        ok, witness = similar_to_complex(a)
        assert ok
        np.testing.assert_array_equal(np.diag(witness, 1) != 0, [False, False, True])
