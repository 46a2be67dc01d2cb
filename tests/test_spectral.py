import numpy as np
import pytest

from biquat import (
    E1,
    E2,
    E3,
    ONE,
    Biquaternion,
    BqMatrix,
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
)
from biquat.spectral import RegularEigenPair
from conftest import bq_close, mat_close

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


class TestSimilar:
    def test_reflexive(self):
        assert similar(BqMatrix.identity(2), BqMatrix.identity(2))

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

    def test_size_mismatch(self, rng):
        with pytest.raises(DimensionError):
            similar(BqMatrix.identity(2), BqMatrix.identity(3))


class TestDiagonalizable:
    def test_diagonal_of_basis(self):
        assert diagonalizable(BqMatrix.diag([E1, E2]))

    def test_identity(self):
        assert diagonalizable(BqMatrix.identity(3))

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

    def test_jordan_witness_structure(self):
        # doubled nilpotent 2-block: J should be one 2-block
        rep = np.zeros((4, 4), dtype=complex)
        rep[0, 1] = rep[2, 3] = 1.0
        a = BqMatrix.from_block_repr(rep)
        ok, j = similar_to_complex(a)
        assert ok
        np.testing.assert_allclose(j, [[0, 1], [0, 0]], atol=1e-9)
