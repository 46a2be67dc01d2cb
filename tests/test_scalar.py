import numpy as np
import pytest

from biquat import (
    E1,
    E2,
    E3,
    ONE,
    Biquaternion,
    CanonicalCase,
    NotInvertibleError,
    clinalg,
    format_biquaternion,
    parse_biquaternion,
    principal_sqrt,
    sampling,
)
from biquat.scalar import format_complex
from conftest import bq_close

ZERO = Biquaternion()
BASIS = [ONE, E1, E2, E3]

# e_s * e_t for s, t in {1, e1, e2, e3}, row-major
TABLE = [
    [ONE, E1, E2, E3],
    [E1, -ONE, E3, -E2],
    [E2, -E3, -ONE, E1],
    [E3, E2, -E1, -ONE],
]


class TestMultiplication:
    @pytest.mark.parametrize("s", range(4))
    @pytest.mark.parametrize("t", range(4))
    def test_table(self, s, t):
        assert BASIS[s] * BASIS[t] == TABLE[s][t]

    def test_unity(self, rng):
        a = sampling.unit_biquaternion(rng)
        assert ONE * a == a
        assert a * ONE == a

    def test_bilinear_over_complex(self, rng):
        a = sampling.integer_biquaternion(rng)
        b = sampling.integer_biquaternion(rng)
        lam = 2 - 3j
        assert (lam * a) * b == lam * (a * b)
        assert a * (b * lam) == (a * b) * lam

    def test_associative(self, rng):
        for _ in range(20):
            a = sampling.integer_biquaternion(rng)
            b = sampling.integer_biquaternion(rng)
            c = sampling.integer_biquaternion(rng)
            assert (a * b) * c == a * (b * c)


class TestConjugations:
    def test_dual_basis(self):
        assert E1.dual() == -E1

    def test_cconj_example(self):
        a = Biquaternion(1j, 0, 1j, 0)
        assert a.cconj() == Biquaternion(-1j, 0, -1j, 0)

    def test_hconj_fixed_point(self):
        # conj(i) = -i and the dual negates again, so 1 + i*e1 is Hermitian
        a = Biquaternion(1, 1j)
        assert a.hconj() == a

    def test_laws_on_integers(self, rng):
        for _ in range(100):
            a = sampling.integer_biquaternion(rng)
            b = sampling.integer_biquaternion(rng)
            assert a.dual().dual() == a
            assert a.cconj().cconj() == a
            assert a.hconj().hconj() == a
            assert (a + b).dual() == a.dual() + b.dual()
            assert (a * b).dual() == b.dual() * a.dual()
            assert (a * b).cconj() == a.cconj() * b.cconj()
            assert (a * b).hconj() == b.hconj() * a.hconj()
            n = a.weak_norm()
            assert a * a.dual() == Biquaternion(n)
            assert a.dual() * a == Biquaternion(n)
            assert a.dual().weak_norm() == n


class TestWeakNorm:
    @pytest.mark.parametrize(
        "a,expected",
        [
            (E1, 1),
            (Biquaternion(1, 1j), 0),
            (Biquaternion(2, 0, 1), 5),
        ],
    )
    def test_values(self, a, expected):
        assert a.weak_norm() == expected


class TestInverse:
    def test_basis(self):
        assert E1.inverse() == -E1

    def test_zero_divisor(self):
        with pytest.raises(NotInvertibleError):
            Biquaternion(1, 1j).inverse()

    def test_complex_scalar(self):
        assert Biquaternion(2).inverse() == Biquaternion(0.5)

    def test_two_sided(self, rng):
        for _ in range(50):
            a = sampling.invertible_integer_scalar(rng)
            inv = a.inverse()
            assert bq_close(a * inv, ONE)
            assert bq_close(inv * a, ONE)


class TestRepresentation:
    def test_unity(self):
        np.testing.assert_array_equal(ONE.as_complex_matrix(), np.eye(2))

    def test_pauli_images(self):
        np.testing.assert_array_equal(E1.as_complex_matrix(), [[1j, 0], [0, -1j]])
        np.testing.assert_array_equal(E2.as_complex_matrix(), [[0, -1], [1, 0]])
        np.testing.assert_array_equal(E3.as_complex_matrix(), [[0, -1j], [-1j, 0]])

    def test_homomorphism_example(self):
        lhs = (E1 * E2).as_complex_matrix()
        rhs = E1.as_complex_matrix() @ E2.as_complex_matrix()
        np.testing.assert_array_equal(lhs, rhs)

    def test_homomorphism_random_integers(self, rng):
        for _ in range(200):
            a = sampling.integer_biquaternion(rng)
            b = sampling.integer_biquaternion(rng)
            np.testing.assert_array_equal(
                (a * b).as_complex_matrix(),
                a.as_complex_matrix() @ b.as_complex_matrix(),
            )
            np.testing.assert_array_equal(
                (a + b).as_complex_matrix(),
                a.as_complex_matrix() + b.as_complex_matrix(),
            )

    def test_det_is_weak_norm(self, rng):
        for _ in range(200):
            a = sampling.integer_biquaternion(rng)
            assert clinalg.det(a.as_complex_matrix()) == a.weak_norm()

    def test_hermitian_conjugate_image(self, rng):
        for _ in range(50):
            a = sampling.integer_biquaternion(rng)
            np.testing.assert_array_equal(
                a.hconj().as_complex_matrix(), a.as_complex_matrix().conj().T
            )

    def test_dual_image_predicate(self, rng):
        # image of the dual equals J @ image.T @ J^{-1}
        j = np.array([[0, 1], [-1, 0]], dtype=complex)
        jinv = np.array([[0, -1], [1, 0]], dtype=complex)
        for _ in range(50):
            a = sampling.integer_biquaternion(rng)
            np.testing.assert_array_equal(
                a.dual().as_complex_matrix(), j @ a.as_complex_matrix().T @ jinv
            )

    def test_cconj_image_predicate(self, rng):
        # image of the componentwise conjugate uses entrywise conjugation
        j = np.array([[0, 1], [-1, 0]], dtype=complex)
        jinv = np.array([[0, -1], [1, 0]], dtype=complex)
        for _ in range(50):
            a = sampling.integer_biquaternion(rng)
            np.testing.assert_array_equal(
                a.cconj().as_complex_matrix(),
                j @ a.as_complex_matrix().conj() @ jinv,
            )


class TestFromComplexMatrix:
    def test_identity(self):
        assert Biquaternion.from_complex_matrix(np.eye(2)) == ONE

    def test_diagonal_pauli(self):
        assert Biquaternion.from_complex_matrix([[1j, 0], [0, -1j]]) == E1

    def test_jordan_cell(self):
        lam = 0.75 - 0.5j
        cell = np.array([[lam, 1], [0, lam]])
        expected = Biquaternion(lam, 0, -0.5, 0.5j)
        assert Biquaternion.from_complex_matrix(cell) == expected

    def test_roundtrip_exact_on_integers(self, rng):
        for _ in range(100):
            a = sampling.integer_biquaternion(rng)
            assert Biquaternion.from_complex_matrix(a.as_complex_matrix()) == a
            m = sampling.integer_components(rng, (2, 2))
            np.testing.assert_array_equal(
                Biquaternion.from_complex_matrix(m).as_complex_matrix(), m
            )

    def test_roundtrip_floats(self, rng):
        for _ in range(100):
            m = sampling.unit_components(rng, (2, 2))
            back = Biquaternion.from_complex_matrix(m).as_complex_matrix()
            assert np.max(np.abs(back - m)) <= 1e-12


class TestPinv:
    def test_zero(self):
        assert ZERO.pinv() == ZERO

    def test_invertible_matches_inverse(self):
        assert E1.pinv() == E1.inverse()

    def test_zero_divisor_candidate_satisfies_penrose_exactly(self):
        # brute-force oracle: check the four equations on the candidate
        a = Biquaternion(1, 1j)
        x = Biquaternion(0.25, 0.25j)
        assert a * x * a == a
        assert x * a * x == x
        assert (a * x).hconj() == a * x
        assert (x * a).hconj() == x * a

    def test_zero_divisor_value(self):
        a = Biquaternion(1, 1j)
        assert bq_close(a.pinv(), Biquaternion(0.25, 0.25j), tol=1e-13)

    def test_penrose_residuals_random(self, rng):
        for k in range(100):
            a = sampling.unit_biquaternion(rng)
            if k % 3 == 0:
                a = Biquaternion(1, 1j) * a  # zero divisor
            x = a.pinv()
            scale = max(a.norm(), 1e-300)
            assert (a * x * a - a).norm() <= 1e-10 * scale
            assert (x * a * x - x).norm() <= 1e-10 * scale
            assert ((a * x).hconj() - a * x).norm() <= 1e-10 * scale
            assert ((x * a).hconj() - x * a).norm() <= 1e-10 * scale


class TestVectorMagnitude:
    @pytest.mark.parametrize(
        "a,expected",
        [
            (E2, 1),
            (E2 + 1j * E3, 0),
            (Biquaternion(7, 3, 4, 0), 5),
        ],
    )
    def test_values(self, a, expected):
        assert a.vector_magnitude() == expected

    def test_principal_branch(self):
        assert principal_sqrt(-4) == 2j
        assert principal_sqrt(complex(-4, -0.0)) == 2j
        assert principal_sqrt(9) == 3


class TestCanonicalForm:
    def test_generic(self):
        form, case = E2.canonical_form()
        assert case is CanonicalCase.GENERIC
        assert form == E1

    def test_null(self):
        form, case = (E2 + 1j * E3).canonical_form()
        assert case is CanonicalCase.NULL
        assert form == Biquaternion(0, 0, -0.5, 0.5j)

    def test_complex(self):
        a = Biquaternion(3 + 2j)
        form, case = a.canonical_form()
        assert case is CanonicalCase.COMPLEX
        assert form == a


class TestSimilarityWitness:
    def test_already_canonical(self):
        assert E1.similarity_witness() == ONE

    def test_generic_contract(self):
        p = E2.similarity_witness()
        assert bq_close(p.inverse() * E2 * p, E1, tol=1e-10)

    def test_null_contract(self):
        a = E2 + 1j * E3
        p = a.similarity_witness()
        assert bq_close(p.inverse() * a * p, Biquaternion(0, 0, -0.5, 0.5j), 1e-10)

    def test_random_contract_and_fingerprint(self, rng):
        for _ in range(50):
            a = sampling.unit_biquaternion(rng)
            form, _ = a.canonical_form()
            p = a.similarity_witness()
            conj = p.inverse() * a * p
            assert bq_close(conj, form, tol=1e-9 * (1 + a.norm()))
            fa = clinalg.jordan_fingerprint(a.as_complex_matrix())
            fb = clinalg.jordan_fingerprint(form.as_complex_matrix())
            gap = clinalg.CLUSTER_TOL * max(1.0, a.norm())
            assert clinalg.fingerprints_match(fa, fb, gap)


class TestClassify:
    def test_real_scalar(self):
        flags = Biquaternion(3).classify()
        assert flags.real and flags.scalar and flags.hermitian
        assert not flags.pure_imaginary

    def test_basis_vector(self):
        flags = E1.classify()
        assert flags.real
        assert not flags.scalar and not flags.hermitian and not flags.pure_imaginary

    def test_imaginary_unit(self):
        flags = Biquaternion(1j).classify()
        assert flags.pure_imaginary and flags.scalar
        assert not flags.real and not flags.hermitian


class TestTextForm:
    def test_render(self):
        text = format_biquaternion(Biquaternion(1, 2j, -3, 0.5 + 0.5j))
        assert text == "(1.0+0.0i) + (0.0+2.0i)e1 + (-3.0+0.0i)e2 + (0.5+0.5i)e3"

    def test_render_digits_folds_negative_zero(self):
        assert format_complex(complex(-0.0, -0.0), 17) == "0+0i"
        assert format_complex(complex(-1.5, -0.0), 17) == "-1.5+0i"

    def test_roundtrip(self, rng):
        for _ in range(50):
            a = sampling.unit_biquaternion(rng)
            assert parse_biquaternion(format_biquaternion(a)) == a

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_biquaternion("nonsense")


class TestValueSemantics:
    def test_equality_is_componentwise(self):
        assert Biquaternion(1, 0, 0, 0) == ONE
        assert Biquaternion(1, 1e-300) != ONE

    def test_hashable(self):
        assert len({ONE, E1, E1}) == 2

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Biquaternion(np.inf)

    def test_division_by_complex(self):
        assert (2 * E1) / 2 == E1
