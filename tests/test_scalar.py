import copy
import pickle
import struct
import warnings

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
    DegenerateWitnessError,
    NotInvertibleError,
    clinalg,
    format_biquaternion,
    parse_biquaternion,
    sampling,
)
from biquat.scalar import format_complex, principal_sqrt
from conftest import bq_close

ZERO = Biquaternion()
BASIS = [ONE, E1, E2, E3]

# Integer-grid elements and the powers of ten they are scaled by.
GAUSSIAN = st.builds(complex, st.integers(-5, 5), st.integers(-5, 5))
ELEMENTS = st.builds(Biquaternion, GAUSSIAN, GAUSSIAN, GAUSSIAN, GAUSSIAN)
EXPONENTS = st.integers(-100, 100)
# Scales where the squares of the components overflow or underflow.
EXTREME_EXPONENTS = st.one_of(st.integers(-300, -160), st.integers(160, 300))

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

    def test_small_element_agrees_with_1x1_matrix(self):
        a = Biquaternion(1e-7)
        assert bq_close(a.inverse() * 1e-7, ONE)
        assert bq_close(BqMatrix.from_entries([[a]]).inverse().entry(0, 0) * 1e-7, ONE)

    @pytest.mark.parametrize("c", [1e-170, 1e-154, 1e154, 1e170])
    def test_extreme_scale_agrees_with_1x1_matrix(self, c):
        # the weak norm of c itself would underflow or overflow
        a = Biquaternion(c, 0, c)
        for inv in (a.inverse(), BqMatrix.from_entries([[a]]).inverse().entry(0, 0)):
            assert np.allclose(np.array(inv.components) * c, [0.5, 0, -0.5, 0], rtol=0, atol=1e-15)

    def test_beyond_float_range_raises_overflow_as_1x1_matrix(self):
        a = Biquaternion(1e-310)  # 1 / 1e-310 exceeds the largest double
        with pytest.raises(OverflowError):
            a.inverse()
        with pytest.raises(OverflowError):
            BqMatrix.from_entries([[a]]).inverse()
        with pytest.raises(OverflowError):
            a.pinv()

    @pytest.mark.parametrize("c", [1e-200, 1.0, 1e200])
    @pytest.mark.parametrize("phase", [1.0, np.exp(0.3j)])
    def test_certificate_sweep_agrees_with_rank_rule_and_1x1_matrix(self, c, phase):
        # a = c * phase * (1 + i*sqrt(x) e2) has weak_norm / |a|**2 = (1 - x) / (1 + x) = r
        verdicts = set()
        for r in np.logspace(-8, -12, 81):
            x = (1 - r) / (1 + r)
            a = Biquaternion(c * phase, 0, 1j * np.sqrt(x) * c * phase)
            singular = clinalg.rank(a.as_complex_matrix()) < 2
            verdicts.add(singular)
            try:
                inv = a.inverse()
            except NotInvertibleError:
                assert singular
                with pytest.raises(NotInvertibleError):
                    BqMatrix.from_entries([[a]]).inverse()
            else:
                assert not singular
                assert bq_close(BqMatrix.from_entries([[a]]).inverse().entry(0, 0), inv, 1e-5 * inv.norm())
        assert verdicts == {False, True}

    def test_no_svd_when_well_conditioned(self, monkeypatch):
        calls = []
        original = clinalg.singular_values
        monkeypatch.setattr(clinalg, "singular_values", lambda m: calls.append(m) or original(m))
        for a in (E1, Biquaternion(2, 1, 0, 1j), Biquaternion(1e-300, 1e-300), Biquaternion(1e300)):
            a.inverse()
        assert calls == []
        with pytest.raises(NotInvertibleError):
            Biquaternion(1, 1j).inverse()
        assert len(calls) == 1

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

    @pytest.mark.parametrize("cell", [np.inf, np.nan, complex(0, -np.inf)])
    def test_non_finite_cell_is_an_input_error(self, cell):
        with pytest.raises(ValueError, match="non-finite"):
            Biquaternion.from_complex_matrix([[1, cell], [0, 1]])

    @pytest.mark.parametrize(
        "m, expected",
        [
            ([[1.7e308, 0], [0, 1.7e308]], Biquaternion(1.7e308)),  # m11 + m22
            ([[1.7e308j, 0], [0, -1.7e308j]], Biquaternion(0, 1.7e308)),  # m22 - m11
            ([[0, -1.7e308], [1.7e308, 0]], Biquaternion(0, 0, 1.7e308)),  # m21 - m12
        ],
    )
    def test_sum_of_cells_beyond_float_range_is_exact(self, m, expected):
        # each cell is halved before two are combined
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Biquaternion.from_complex_matrix(m) == expected


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

    @pytest.mark.parametrize("a", [Biquaternion(1e-7, 0, 1e-7), Biquaternion(0, 1e-7)])
    def test_small_vector_part_is_generic(self, a):
        # the image has the two distinct eigenvalues a0 +/- 1e-7 i
        form, case = a.canonical_form()
        assert case is CanonicalCase.GENERIC
        assert form.a0 == a.a0 and abs(form.a1 - 1e-7) <= 1e-22
        assert len(clinalg.jordan_fingerprint(a.as_complex_matrix()).clusters) == 2


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

    def test_null_witness_reach(self):
        # the form's nilpotent part is fixed, so the witness's condition
        # number grows as max(|N|, 1/|N|) and the rank rule stops it near 1/DEFAULT_TOL
        for c in (1e-9, 1e9):
            (Biquaternion(3, 2, 0, 2j) * c).similarity_witness().inverse()
        for c in (1e-11, 1e11):
            a = Biquaternion(3, 2, 0, 2j) * c
            with pytest.raises(DegenerateWitnessError):
                a.similarity_witness()

    def test_generic_witness_at_any_scale(self):
        # eigenvector directions do not depend on scale: the witness is built
        # from the element scaled by a power of two, so no step overflows
        for k in range(-300, 301, 10):
            a = Biquaternion(1, 2, 3, 4) * 10.0**k
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                p = a.similarity_witness()
                form, case = a.canonical_form()
                err = (p.inverse() * a * p - form).norm()
            assert case is CanonicalCase.GENERIC and err <= 1e-9 * a.norm(), k

    def test_random_contract_and_fingerprint(self, rng):
        for _ in range(50):
            a = sampling.unit_biquaternion(rng)
            form, _ = a.canonical_form()
            p = a.similarity_witness()
            conj = p.inverse() * a * p
            assert bq_close(conj, form, tol=1e-9 * (1 + a.norm()))
            fa = clinalg.jordan_fingerprint(a.as_complex_matrix()).clusters
            fb = clinalg.jordan_fingerprint(form.as_complex_matrix()).clusters
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

    @pytest.mark.parametrize("c", [1.5e308, 1e-320])
    @pytest.mark.parametrize("comps", [(1 + 1j,), (1, 1j), (1j, 1, 0, 1)])
    def test_any_scale(self, c, comps):
        # at 1.5e308 the norm overflows; the flags must not all turn True
        assert Biquaternion(*(z * c for z in comps)).classify() == Biquaternion(*comps).classify()


CASE_WEYR = {
    CanonicalCase.COMPLEX: [(2,)],
    CanonicalCase.NULL: [(1, 2)],
    CanonicalCase.GENERIC: [(1,), (1,)],
}


class TestScaleFree:
    """Scalar decisions are the matrix rules on the 2x2 image, so they do
    not depend on the scale of the element."""

    @settings(derandomize=True, deadline=None)
    @given(ELEMENTS, EXPONENTS)
    @example(Biquaternion(), 100)
    @example(Biquaternion(1, 1j), -100)  # zero divisor
    @example(Biquaternion(2, 0, 1, 1j), -7)  # null case
    @example(Biquaternion(3 - 1j), 100)  # complex case
    @example(Biquaternion(1, 0, 1), -7)
    def test_verdicts_do_not_depend_on_scale(self, a, k):
        c = 10.0**k
        ac = a * c
        try:
            inv = a.inverse()
        except NotInvertibleError:
            with pytest.raises(NotInvertibleError):
                ac.inverse()
            with pytest.raises(NotInvertibleError):
                BqMatrix.from_entries([[ac]]).inverse()
        else:
            inv_c = ac.inverse()
            assert bq_close(inv_c * c, inv, 1e-12 * inv.norm())
            BqMatrix.from_entries([[ac]]).inverse()
        assert ac.canonical_form()[1] is a.canonical_form()[1]
        assert ac.classify() == a.classify()

    @settings(derandomize=True, deadline=None)
    @given(ELEMENTS, EXTREME_EXPONENTS)
    @example(Biquaternion(1, 2), 160)
    @example(Biquaternion(1, 2), -170)
    @example(Biquaternion(2, 0, 1, 1j), 300)  # null case
    @example(Biquaternion(3 - 1j), -300)  # complex case
    @example(Biquaternion(1, 1j), -300)  # zero divisor
    def test_decisions_beyond_squared_range(self, a, k):
        c = 10.0**k
        ac = a * c
        assert ac.norm() == pytest.approx(a.norm() * c, rel=1e-14)
        (form, case), (form_c, case_c) = a.canonical_form(), ac.canonical_form()
        assert case_c is case
        if case is CanonicalCase.GENERIC:
            assert abs(form_c.a1 - form.a1 * c) <= 1e-14 * abs(form.a1 * c)
        assert ac.classify() == a.classify()
        try:
            inv = a.inverse()
        except NotInvertibleError:
            with pytest.raises(NotInvertibleError):
                ac.inverse()
        else:
            assert bq_close(ac.inverse() * c, inv, 1e-12 * inv.norm())

    def test_subnormal_components(self):
        # the scaling power of two is capped, so it stays finite here
        a = Biquaternion(5e-324, 1e-323)
        assert a.canonical_form()[1] is CanonicalCase.GENERIC
        assert a.norm() == 1e-323

    def test_component_modulus_beyond_float_range(self):
        # |a0| = 2.1e308 overflows abs(), though each part is a finite double
        a = Biquaternion(1.5e308 + 1.5e308j)
        assert a.canonical_form() == (a, CanonicalCase.COMPLEX)

    @settings(derandomize=True, deadline=None)
    @given(ELEMENTS, st.integers(-320, 307))  # subnormal and near-overflow elements included
    @example(Biquaternion(1, 2, 0, 2j), 0)
    @example(Biquaternion(1, 2, 0, 2j), 2)
    @example(Biquaternion(1, 2, 0, 2j), -320)  # null case
    @example(Biquaternion(0, 1, 1j), -100)
    @example(Biquaternion(5j), 100)
    @example(Biquaternion(5 + 5j, 5, 5, 5), 307)
    @example(Biquaternion(1, 2j, 0.5), -308)  # generic: two simple eigenvalues at every scale
    @example(Biquaternion(1, 2j, 0.5), -310)
    @example(Biquaternion(1, 2j, 0.5), -315)
    @example(Biquaternion(1, 2j, 0.5), -320)
    def test_case_matches_image_fingerprint(self, a, k):
        ac = a * 10.0**k
        _, case = ac.canonical_form()
        fp = clinalg.jordan_fingerprint(ac.as_complex_matrix()).clusters
        assert [weyr for _, weyr in fp] == CASE_WEYR[case]


class TestTextForm:
    def test_render(self):
        a = Biquaternion(1, 2j, -3, 0.5 + 0.5j)
        assert format_biquaternion(a) == str(a) == "(1.0+0.0i) + (0.0+2.0i)e1 + (-3.0+0.0i)e2 + (0.5+0.5i)e3"

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

    def test_truth_is_a_nonzero_component(self):
        assert not Biquaternion() and not Biquaternion(-0.0, complex(0.0, -0.0))
        assert E3 and Biquaternion(0, 0, 0, 1e-310j)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Biquaternion(np.inf)

    def test_division_by_complex(self):
        assert (2 * E1) / 2 == E1

    def test_immutable(self):
        a = Biquaternion(1, 2j)
        for name in ("a0", "components", "other"):
            with pytest.raises(AttributeError):
                setattr(a, name, 5)
        with pytest.raises(AttributeError):
            del a.a1
        assert a.components == (1 + 0j, 2j, 0j, 0j)

    def test_equal_and_hashed_by_components(self):
        zero, negative_zero = Biquaternion(0.0), Biquaternion(-0.0, complex(0.0, -0.0))
        assert zero == negative_zero and hash(zero) == hash(negative_zero)
        assert len({zero, negative_zero}) == 1
        assert Biquaternion(1, 2j) != Biquaternion(1, 2j, 1e-300)
        assert Biquaternion(1) != 1  # a value of its own type, not a number

    def test_components_are_plain_complex(self):
        a = Biquaternion(np.complex128(1 + 2j), np.float64(3), 4, True)
        assert all(type(c) is complex for c in a.components)
        assert a.a0 == 1 + 2j and a.a3 == 1 and a.components == (a.a0, a.a1, a.a2, a.a3)

    def test_repr_is_stable(self):
        a = Biquaternion(1, 2j, -0.0, complex(1e-300, -0.0))
        assert repr(a) == "Biquaternion(a0=(1+0j), a1=2j, a2=(-0+0j), a3=(1e-300-0j))"
        assert repr(Biquaternion()) == "Biquaternion(a0=0j, a1=0j, a2=0j, a3=0j)"

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a)), lambda a: pickle.loads(pickle.dumps(a, 0))],
        ids=["copy", "deepcopy", "pickle", "pickle-0"],
    )
    def test_round_trips(self, clone):
        a = Biquaternion(-0.0, 1e-310j, complex(2.5, -0.0), 1.7e308)
        b = clone(a)
        assert type(b) is Biquaternion and b == a
        bits = [struct.pack("dd", c.real, c.imag) for c in a.components]
        assert [struct.pack("dd", c.real, c.imag) for c in b.components] == bits  # signed zeros too

    def test_every_result_is_built_by_init(self, monkeypatch):
        # the one check of a scalar, and what a tracer of __init__ counts
        built = []
        init = Biquaternion.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Biquaternion, "__init__", counted)
        a = BqMatrix.from_complex([[2.0]]).entry(0, 0) + E1  # entry, then the sum
        for make in (lambda: a * E2, lambda: 2 * a, lambda: a - 1, lambda: -a, lambda: a.inverse(),
                     lambda: a.canonical_form()[0], lambda: a.hconj(), lambda: copy.copy(a)):
            before = len(built)
            make()
            assert len(built) == before + 1

    def test_overflowing_result_is_rejected(self):
        big = Biquaternion(1e308)
        with pytest.raises(OverflowError, match="the product exceeds the float range"):
            big * 10
        with pytest.raises(OverflowError, match="the sum exceeds the float range"):
            big + big

    @pytest.mark.parametrize(
        "op, what",
        [
            (lambda a: a + a, "the sum"),
            (lambda a: 1e308 + a, "the sum"),
            (lambda a: a - -a, "the difference"),
            (lambda a: -1e308 - a, "the difference"),
            (lambda a: a * (2 * E1), "the product"),
            (lambda a: 10 * a, "the product"),
            (lambda a: a / 1e-300, "the quotient"),
        ],
        ids=["add", "radd", "sub", "rsub", "mul", "rmul", "truediv"],
    )
    def test_arithmetic_beyond_float_range_is_an_overflow(self, op, what):
        # a computed result, not an input error
        with pytest.raises(OverflowError, match=f"{what} exceeds the float range"):
            op(Biquaternion(1e308, 1e308))

    @pytest.mark.parametrize("operand", [np.inf, complex(0, np.nan)])
    def test_non_finite_operand_is_an_input_error(self, operand):
        with pytest.raises(ValueError, match="not finite"):
            E1 * operand
        with pytest.raises(ValueError, match="not finite"):
            Biquaternion(operand)
