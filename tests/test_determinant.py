import warnings

import numpy as np
import pytest

from biquat import (
    E1,
    E2,
    Biquaternion,
    BqMatrix,
    NotInvertibleError,
    block_diagonal,
    central_charpoly,
    central_det,
    clinalg,
    sampling,
)
from biquat.errors import NotTriangularError
from biquat.verify import (
    cayley_hamilton_residual,
    charpoly_coefficient_scale,
    scaling_exponent_probe,
    triangular_central_det,
)

ZD = Biquaternion(1, 1j)


def single(entry) -> BqMatrix:
    return BqMatrix.from_entries([[entry]])


class TestCentralDet:
    def test_identity(self):
        assert central_det(BqMatrix.identity(3)) == 1

    def test_basis_scalar(self):
        # equals the weak norm at 1x1
        assert central_det(single(E1)) == 1
        assert central_det(single(E1)) == E1.weak_norm()

    def test_complex_embedding_is_square(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 5))
            c = sampling.integer_components(rng, (n, n))
            lhs = central_det(BqMatrix.from_complex(c))
            rhs = clinalg.det(c) ** 2
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    def test_multiplicative(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a = sampling.integer_matrix(rng, n, n)
            b = sampling.integer_matrix(rng, n, n)
            lhs = central_det(a @ b)
            rhs = central_det(a) * central_det(b)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    def test_detects_invertibility(self, rng):
        for k in range(50):
            n = int(rng.integers(1, 5))
            if k % 2 and n >= 2:
                a = sampling.rank_deficient_matrix(rng, n, n)
            else:
                a = sampling.integer_matrix(rng, n, n)
            nonzero = abs(central_det(a)) > 1e-8
            try:
                a.inverse()
                assert nonzero
            except NotInvertibleError:
                assert not nonzero

    def test_inverse_law(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            a = sampling.invertible_integer_matrix(rng, n)
            lhs = central_det(a.inverse())
            rhs = 1.0 / central_det(a)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_hermitian_conjugate_law(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            a = sampling.integer_matrix(rng, n, n)
            assert abs(
                central_det(a.hconj()) - central_det(a).conjugate()
            ) <= 1e-10 * max(abs(central_det(a)), 1.0)

    def test_complex_scalar_law(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            a = sampling.integer_matrix(rng, n, n)
            lam = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            lhs = central_det(lam * a)
            rhs = lam ** (2 * n) * central_det(a)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)

    def test_block_triangular_law(self, rng):
        for _ in range(20):
            n1, n2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            a1 = sampling.integer_matrix(rng, n1, n1)
            a2 = sampling.integer_matrix(rng, n2, n2)
            c = block_diagonal(a1, a2).components.copy()
            c[:, :n1, n1:] = sampling.integer_components(rng, (4, n1, n2))
            lhs = central_det(BqMatrix(c))
            rhs = central_det(a1) * central_det(a2)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    def test_similarity_invariance(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            a = sampling.integer_matrix(rng, n, n)
            x = sampling.invertible_integer_matrix(rng, n)
            lhs = central_det(x.inverse() @ a @ x)
            rhs = central_det(a)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    @pytest.mark.parametrize("entry", [1e200, Biquaternion(0, 1e200)])
    def test_beyond_float_range_raises(self, entry):
        # the block determinant is 1e400 (the weak norm of the entry)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                central_det(single(entry))


class TestCentralCharpoly:
    def test_scalar_formula(self):
        # (lambda - a0)**2 + a1**2 + a2**2 + a3**2 for a 1x1 matrix
        a = Biquaternion(1 + 1j, 2, 3j, -1)
        p = central_charpoly(single(a))
        c0 = (1 + 1j) ** 2 + 4 + (3j) ** 2 + 1
        np.testing.assert_allclose(p.coef, [c0, -2 * (1 + 1j), 1])

    def test_identity(self):
        p = central_charpoly(BqMatrix.identity(2))
        np.testing.assert_array_equal(p.coef, [1, -4, 6, -4, 1])

    def test_basis_scalar(self):
        p = central_charpoly(single(E1))
        np.testing.assert_array_equal(p.coef, [1, 0, 1])

    def test_monic_degree(self, rng):
        n = int(rng.integers(1, 4))
        p = central_charpoly(sampling.integer_matrix(rng, n, n))
        assert p.coef[-1] == 1 and len(p.coef) == 2 * n + 1


class TestCayleyHamilton:
    def test_basis_scalar(self):
        # p(lambda) = lambda**2 + 1 and e1**2 + 1 = 0
        assert cayley_hamilton_residual(single(E1)) == 0

    def test_identity(self):
        assert cayley_hamilton_residual(BqMatrix.identity(3)) <= 1e-12

    def test_random_integers(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            a = sampling.integer_matrix(rng, n, n)
            res = cayley_hamilton_residual(a)
            assert res <= 1e-8 * charpoly_coefficient_scale(a)


class TestTriangular:
    def test_diagonal_of_basis(self):
        a = BqMatrix.diag([E1, E2])
        assert triangular_central_det(a) == 1
        assert abs(triangular_central_det(a) - central_det(a)) <= 1e-12

    def test_zero_divisor_diagonal(self):
        assert triangular_central_det(BqMatrix.diag([ZD, 5])) == 0

    def test_identity(self):
        assert triangular_central_det(BqMatrix.identity(4)) == 1

    def test_rejects_full_matrix(self, rng):
        c = sampling.integer_components(rng, (4, 3, 3))
        c[:, 2, 0] = 3.0  # definitely both triangles populated
        c[:, 0, 2] = 3.0
        with pytest.raises(NotTriangularError):
            triangular_central_det(BqMatrix(c))

    def test_rejects_small_full_matrix(self):
        # the triangularity test is relative to the matrix's own norm
        with pytest.raises(NotTriangularError):
            triangular_central_det(BqMatrix.from_entries([[1, 2], [3, 4]]) * 1e-12)

    def test_agrees_with_central_det(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            c = sampling.integer_components(rng, (4, n, n))
            il, jl = np.tril_indices(n, k=-1)
            c[:, il, jl] = 0
            a = BqMatrix(c)
            lhs = triangular_central_det(a)
            rhs = central_det(a)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


class TestScalingProbe:
    def test_scalar_basis_case(self):
        # |e1 * I1| = 1 = weak_norm(e1)**1
        assert scaling_exponent_probe(BqMatrix.identity(1), E1 * 2) == 1

    def test_identity_two(self):
        # direct oracle: |(2e2) I2|_c = det of the 4x4 block image = 16 = n(2e2)**2
        mu = 2 * E2
        a = BqMatrix.identity(2)
        assert central_det(mu * a) == pytest.approx(16, rel=1e-12)
        assert scaling_exponent_probe(a, mu) == 2

    def test_complex_scalar_consistent(self, rng):
        # for complex mu both readings coincide via n(lam) = lam**2
        a = sampling.invertible_integer_matrix(rng, 2)
        k = scaling_exponent_probe(a, Biquaternion(3))
        assert central_det(3 * a) == pytest.approx(3 ** (2 * 2) * central_det(a))
        assert k == 2

    def test_measured_exponent_is_matrix_size(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            a = sampling.invertible_integer_matrix(rng, n)
            mu = sampling.invertible_integer_scalar(rng)
            assert scaling_exponent_probe(a, mu) == n

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            scaling_exponent_probe(BqMatrix.identity(1), ZD)
        with pytest.raises(ValueError):
            scaling_exponent_probe(BqMatrix.zeros(2, 2), E1)
