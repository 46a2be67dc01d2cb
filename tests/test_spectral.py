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
from conftest import (
    MIXED_CLUSTERS,
    bq_close,
    gaussian_jordan_conjugate,
    mat_close,
    merged_cluster_matrix,
    mixed_cluster_matrices,
    split_cluster_matrix,
)

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

    @pytest.mark.parametrize("k", [-300, -250, -200, -100, -10, 0, 10, 100, 200, 250, 300])
    def test_residuals_at_any_scale(self, rng, k):
        a = sampling.unit_matrix(rng, 3, 3)
        ac = a * 10.0**k
        pairs, scaled = right_eigenpairs(a), right_eigenpairs(ac)
        for p, q in zip(pairs, scaled):
            assert q.value == pytest.approx(p.value * 10.0**k, rel=1e-14)
            assert q.residual <= 1e-14 * ac.norm() * q.vector.norm()
            direct = (ac @ q.vector - q.vector * q.value).norm()
            assert abs(q.residual - direct) <= 1e-14 * ac.norm() * q.vector.norm()

    def test_vectors_are_read_only_columns(self, rng):
        a = sampling.unit_matrix(rng, 2, 2)
        for p in right_eigenpairs(a):
            assert p.vector.shape == (2, 1)
            assert not p.vector.components.flags.writeable


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


class TestRegularEigenpairPaths:
    """Which construction ``regular_right_eigenpair`` takes, and what certifies it."""

    @pytest.fixture
    def factored(self, monkeypatch):
        calls = []
        for name in ("schur", "jordan_fingerprint"):
            original = getattr(clinalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(clinalg, name, counted)
        return calls

    @staticmethod
    def schur_pair(a: BqMatrix) -> RegularEigenPair:
        # the Schur construction on its own: two leading Schur vectors
        rep = a.block_repr()
        t, q = clinalg.schur(rep, vectors=True)
        x = BqMatrix.from_block_repr(q[:, :2])
        value = Biquaternion.from_complex_matrix(t[:2, :2])
        return RegularEigenPair(value, x, spectral._pair_residual(rep, x.block_repr(), value))

    def test_one_by_one_is_its_entry(self, factored):
        entry = Biquaternion(0.5, -2j, 3, 1e-310j)
        pair = regular_right_eigenpair(single(entry))
        assert pair == RegularEigenPair(entry, single(ONE), 0.0)
        assert factored == []

    def test_verdicts_leave_nothing_to_factor(self, rng, factored):
        a = sampling.unit_matrix(rng, 6, 6)
        p = sampling.invertible_integer_matrix(rng, 6)
        assert similar(a, p.inverse() @ a @ p) and diagonalizable(a)
        before = len(factored)
        pair = regular_right_eigenpair(a)
        assert factored[before:] == []
        assert pair.residual <= 8 * 6 * np.finfo(float).eps * a.norm() * pair.vector.norm()

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("k", [0, -300, -100, 100, 300])
    def test_eigenvector_pairs_pass_the_pair_gate(self, rng, monkeypatch, n, k):
        def refuse(*args, **kwargs):
            raise AssertionError("took the Schur path")

        monkeypatch.setattr(clinalg, "schur", refuse)
        a = sampling.unit_matrix(rng, n, n) * 10.0**k
        pair = regular_right_eigenpair(a)
        assert clinalg.rank(pair.vector.block_repr()) == 2
        assert pair.residual <= 4 * 2 * n * np.finfo(float).eps * a.norm() * pair.vector.norm()
        assert len(derived_complex_eigenvalues(a, pair)) == 2  # the rank rule's pair gate

    def test_eigenvector_pair_over_its_bound_gives_way(self, monkeypatch):
        # two semisimple clusters, but rows 1e10 apart in scale leave the
        # inverse-iteration pair over its residual bound: the Schur pair
        # replaces it
        top = 1e5 * np.array([[3 - 2j, 1 + 1j], [3, -1], [-1 + 1j, 2 + 3j], [1 + 3j, 1]])
        bot = 1e-5 * np.array([[3 + 3j, -3], [-3 + 2j, 3], [-1 - 1j, 1], [-2 + 3j, 1 - 2j]])
        a = BqMatrix(np.stack([top, bot], axis=1))
        assert sum(len(weyr) == 1 for _, weyr in spectral.jordan_structure(a).clusters) >= 2
        calls, schur = [], clinalg.schur

        def recorded(rep, vectors=False):
            calls.append(vectors)
            return schur(rep, vectors)

        monkeypatch.setattr(clinalg, "schur", recorded)
        pair = regular_right_eigenpair(a)
        assert calls == [True]
        assert pair.vector.rank().twice_rank == 2
        assert len(derived_complex_eigenvalues(a, pair)) == 2

    @pytest.mark.parametrize(
        "a",
        [
            # J2(1) + J1(3): the block's cluster at 1 is defective, so only one
            # cluster is semisimple
            BqMatrix.from_complex([[1, 1, 0], [0, 1, 0], [0, 0, 3]]),
            BqMatrix.identity(3) * (2 - 1j),  # one semisimple cluster
            split_cluster_matrix(),  # the Jordan structure is refused
        ],
        ids=["defective", "scalar", "refused"],
    )
    def test_schur_pairs_are_the_schur_construction(self, a):
        pair, expected = regular_right_eigenpair(a), self.schur_pair(a)
        assert pair.value.components == expected.value.components
        assert pair.vector.components.tobytes() == expected.vector.components.tobytes()
        assert pair.residual == expected.residual


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

    @pytest.mark.parametrize(
        "a_shape, x_shape",
        [((2, 3), (3, 1)), ((3, 3), (2, 1)), ((2, 2), (2, 2))],
        ids=["non-square", "size-mismatch", "not-a-column"],
    )
    def test_rejects_mismatched_shapes(self, rng, a_shape, x_shape):
        a, x = sampling.unit_matrix(rng, *a_shape), sampling.unit_matrix(rng, *x_shape)
        with pytest.raises(DimensionError):
            derived_complex_eigenvalues(a, RegularEigenPair(E1, x, 0.0))

    @pytest.mark.parametrize("k", [-12, -9, 0, 8, 12])
    def test_pair_gate_ignores_the_vector_scale(self, rng, k):
        # A @ (X c) == (X c) * lam for complex c: a valid pair stays valid,
        # and a bogus one bogus, whatever the vector is multiplied by
        a = sampling.unit_matrix(rng, 4, 4)
        pair = regular_right_eigenpair(a)
        scaled = RegularEigenPair(pair.value, pair.vector * 10.0**k, 0.0)
        assert derived_complex_eigenvalues(a, scaled) == derived_complex_eigenvalues(a, pair)
        b = sampling.unit_matrix(rng, 3, 3)
        bogus = RegularEigenPair(Biquaternion(7, 1, 2, 3), sampling.unit_matrix(rng, 3, 1) * 10.0**k, 0.0)
        with pytest.raises(InvalidPairError, match="residual"):
            derived_complex_eigenvalues(b, bogus)

    @pytest.mark.parametrize("k", [-12, -9, 0, 8, 12])
    def test_pair_gate_rejects_a_zero_vector(self, rng, k):
        a = sampling.unit_matrix(rng, 3, 3) * 10.0**k
        zero = RegularEigenPair(Biquaternion(7, 1, 2, 3), BqMatrix.zeros(3, 1), 0.0)
        with pytest.raises(InvalidPairError, match="not regular"):
            derived_complex_eigenvalues(a, zero)

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

    @pytest.mark.parametrize("c", [1e-318, 1e-310, 1e-300, 1e-160, 1e160, 1e300])
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

    @pytest.mark.parametrize("c", [1e-318, 1e-310, 1e-300, 1e-200, 1e-120, 1e120, 1e200, 1e300])
    def test_scaled_size_three_block(self, c):
        j = np.eye(3) + np.diag([1.0, 1.0], 1)
        assert not diagonalizable(BqMatrix.from_complex(j) * c)

    @pytest.mark.parametrize("k", [-307, -150, 0, 100, 158, 200, 250, 307])
    def test_null_case_entry_at_any_scale(self, k):
        # a 1x1 matrix is diagonalizable; this entry's block is one Jordan
        # block of size 2, whose powers once left the float range past 1e157
        c = 10.0**k
        assert diagonalizable(single(Biquaternion((1 + 2j) * c, c, 1j * c)))

    @pytest.mark.parametrize("n, c", [(1, 0.9e308), (8, 0.25e308)])
    def test_scalar_matrix_near_the_float_range(self, n, c):
        # the mean of its one cluster once overflowed, and the SVD failed
        assert diagonalizable(BqMatrix.identity(n) * c)

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


@pytest.mark.parametrize("k", [-300, -150, 150, 300])
def test_verdicts_on_an_exact_input_are_scale_free(k):
    # J2(3) + J1(3) + J1(-2+2i) and a conjugate, both exact
    rng = np.random.default_rng(0)
    x = sampling.known_answer(rng, [(3, 2), (3, 1), (-2 + 2j, 1)])[0]
    q, q_inv = sampling.unimodular(rng, 4)
    y = q @ x @ q_inv

    def verdicts(c):
        return similar(x * c, y * c), diagonalizable(x * c), similar_to_complex(x * c)[0]

    assert verdicts(10.0**k) == verdicts(1.0) == (True, True, True)


@settings(derandomize=True, deadline=None)
@given(GRID_MATRICES, st.integers(-1060, 1000))
@example(single(JORDAN_ELEMENT - 1), -1060)  # nilpotent
@example(BqMatrix.identity(4) * 5, 1000)
@example(BqMatrix(np.array([[[3, -2], [2, -5]], [[-5, 1], [1, 2]], [[-3, -4], [5, -4]], [[1, 1], [4, 0]]])), -1040)
@example(BqMatrix(np.array([[[3, -5, 3], [0, 0, 1], [-2, 5, -5]], [[-2, -1, 1], [-1, -4, -5], [-5, -5, -4]],
                            [[5, -3, 2], [3, -3, -2], [-1, -3, 5]], [[-4, 4, 3], [4, -4, -1], [1, 0, 2]]])), -1043)
def test_structure_is_exact_under_powers_of_two(a, k):
    # 2**k times a small-integer input, subnormal ones included, is exact,
    # and while the norm is a normal float the structure runs on the same
    # scaled copy; rounding into subnormals can tie two real parts, which
    # then sort by imag
    ak = BqMatrix(np.ldexp(a.components.view(float), k).view(complex))
    structure, scaled = spectral.jordan_structure(a), spectral.jordan_structure(ak)
    expected = [(complex(np.ldexp(lam.real, k), np.ldexp(lam.imag, k)), weyr) for lam, weyr in structure.clusters]
    assert scaled.clusters == tuple(sorted(expected, key=lambda c: (c[0].real, c[0].imag)))
    assert diagonalizable(ak) == diagonalizable(a)
    assert similar_to_complex(ak)[0] == similar_to_complex(a)[0]


class TestSimilarToComplex:
    def test_embedded_complex(self, rng):
        c = sampling.integer_components(rng, (3, 3))
        ok, j = similar_to_complex(BqMatrix.from_complex(c))
        assert ok
        # witness must be similar to c over the complex numbers
        fj = clinalg.jordan_fingerprint(j).clusters
        fc = clinalg.jordan_fingerprint(c).clusters
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

    @pytest.mark.parametrize("lam", [complex(-1, -0.0), complex(-0.0, 2), complex(-0.0, -0.0), 2 - 1j])
    def test_witness_matches_blockwise_construction(self, lam):
        # reference: each block written in place as lam * I plus its
        # superdiagonal of ones; compared byte for byte, signed zeros included
        j = np.diag([lam, lam, lam, 3 - 1j]) + np.diag([1.0, 0.0, 0.0], 1)
        a = BqMatrix.from_complex(j)
        ok, witness = similar_to_complex(a)
        structure = spectral.jordan_structure(a)
        ref, pos = np.zeros((4, 4), dtype=complex), 0
        for (mu, _), sizes in zip(structure.clusters, structure.blocks):
            for size, count in sizes:
                for _ in range(count // 2):
                    ref[pos : pos + size, pos : pos + size] = mu * np.eye(size) + np.diag(np.ones(size - 1), 1)
                    pos += size
        assert ok and pos == 4 and witness.tobytes() == ref.tobytes()

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


@pytest.fixture
def computed(monkeypatch):
    """The blocks whose Jordan fingerprint is computed, in order."""
    blocks = []
    fingerprint = clinalg.jordan_fingerprint

    def counted_fingerprint(block):
        blocks.append(block)
        return fingerprint(block)

    monkeypatch.setattr(clinalg, "jordan_fingerprint", counted_fingerprint)
    return blocks


class TestHconjSymmetry:
    """block(X^H) = block(X)^H, so the Jordan structure of ``X.hconj()`` is
    that of ``X`` at the conjugate eigenvalues."""

    @staticmethod
    def pairs_with_conjugates(x):
        s, t = spectral.jordan_structure(x), spectral.jordan_structure(x.hconj())
        conjugates = [(lam.conjugate(), weyr) for lam, weyr in s.clusters]
        return clinalg.fingerprints_match(conjugates, t.clusters, clinalg.CLUSTER_TOL * max(s.scale, t.scale))

    @pytest.mark.parametrize("seed", range(20))
    def test_clusters_pair_with_the_conjugates(self, seed):
        rng = np.random.default_rng(seed)
        assert self.pairs_with_conjugates(gaussian_jordan_conjugate(rng, (2, 1, 1)))
        assert self.pairs_with_conjugates(sampling.unit_matrix(rng, 6, 6))

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_size_3_blocks_pair_with_the_conjugates(self):
        # J3 + J1 at two eigenvalues: eig scatters the cluster past
        # CLUSTER_TOL, and the two sides are read differently
        assert self.pairs_with_conjugates(gaussian_jordan_conjugate(np.random.default_rng(13), (3, 1)))


class TestManyClusters:
    """Five repeated clusters of mixed sizes, each read off what the ones
    before it left of the Schur form."""

    @pytest.mark.parametrize("seed", range(20))
    def test_verdicts(self, seed):
        x, conjugate, split = mixed_cluster_matrices(seed)
        s = spectral.jordan_structure(x)
        # paired, not compared in order: a +-0 real part swaps 2i and -2i
        expected = [(complex(lam), weyr) for lam, weyr in MIXED_CLUSTERS.items()]
        assert clinalg.fingerprints_match(s.clusters, expected, clinalg.CLUSTER_TOL * s.scale)
        assert similar(x, conjugate) and not similar(x, split)
        assert diagonalizable(x) and similar_to_complex(x)[0]


class TestStructureReuse:
    @staticmethod
    def operands(rng):
        # X = P^-1 from_complex(J2(2+i) + J1(2+i) + J1(-1)) P, a conjugate Y
        # of X, and Z with the same spectrum but no Jordan block
        j = np.diag([2 + 1j, 2 + 1j, 2 + 1j, -1])
        j[0, 1] = 1
        p, q = (sampling.invertible_integer_matrix(rng, 4) for _ in range(2))
        x = p.inverse() @ BqMatrix.from_complex(j) @ p
        return x, q.inverse() @ x @ q, BqMatrix.from_complex(np.diag(np.diag(j)))

    @staticmethod
    def verdicts(x, y, z):
        return similar(x, y), similar(x, z), diagonalizable(x), similar_to_complex(x)

    def test_one_fingerprint_per_operand(self, rng, computed):
        x, y, z = self.operands(rng)
        assert self.verdicts(x, y, z)[:3] == (True, False, True)
        assert len(computed) == 3

    def test_last_two_operands_are_kept(self, rng, computed):
        x, y, z = self.operands(rng)
        diagonalizable(x)
        diagonalizable(x)
        assert len(computed) == 1
        similar(y, z)
        assert len(computed) == 3
        diagonalizable(x)  # y and z displaced x
        assert len(computed) == 4

    def test_signed_zeros_share_one_structure(self, computed):
        a, b = BqMatrix.from_entries([[0.0]]), BqMatrix.from_entries([[-0.0]])
        assert similar(a, b)
        assert len(computed) == 1

    def test_entries_the_hash_skips_still_key_apart(self, computed):
        # equal hashes, unequal matrices: two structures, each kept; the
        # hash reads components 0, 5, 10, ... of 36, not entry (0, 1)
        j = np.diag([1.0, 2.0, 3.0])
        a = BqMatrix.from_complex(j)
        j[0, 1] = 1.0
        b = BqMatrix.from_complex(j)
        assert hash(a) == hash(b) and a != b
        for _ in range(2):
            diagonalizable(a), diagonalizable(b)
        assert len(computed) == 2

    def test_errors_are_not_kept(self, computed):
        x = split_cluster_matrix()
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                diagonalizable(x)
        assert len(computed) == 2
        assert spectral.jordan_structure.cache_info().currsize == 0

    def test_same_results_as_a_cleared_cache(self, rng):
        x, y, z = self.operands(rng)
        calls = [
            lambda: similar(x, y),
            lambda: similar(x, z),
            lambda: diagonalizable(x),
            lambda: similar_to_complex(x),
            lambda: spectral.jordan_structure(x),
        ]
        kept = [call() for call in calls]
        assert spectral.jordan_structure.cache_info().hits == 4
        fresh = []
        for call in calls:
            spectral.jordan_structure.cache_clear()
            fresh.append(call())
        assert kept[:3] == fresh[:3] and kept[4] == fresh[4]
        (ok, witness), (fresh_ok, fresh_witness) = kept[3], fresh[3]
        assert ok and fresh_ok
        np.testing.assert_array_equal(witness, fresh_witness)


class TestTraceRule:
    """``similar`` answers False on ``|tr A0 - tr B0| > 2n * gap`` before
    either Jordan structure, and leaves every other pair to the structures."""

    @staticmethod
    def gap(a, b):
        return clinalg.CLUSTER_TOL * max(a.norm(), b.norm(), 1e-300)

    def test_differing_traces_compute_no_structure(self, rng, computed):
        x = sampling.integer_matrix(rng, 3, 3)
        y = sampling.unit_matrix(rng, 3, 3)
        assert diagonalizable(y) and len(computed) == 1
        assert not similar(x, x + BqMatrix.identity(3))
        assert len(computed) == 1  # neither computed nor displacing y's
        assert diagonalizable(y) and spectral.jordan_structure.cache_info().hits == 1

    @staticmethod
    def corpus(rng):
        """Pairs, each with whether the trace decides it."""
        for n in (1, 2, 3, 5):
            for _ in range(4):
                a = sampling.unit_matrix(rng, n, n)
                yield a, sampling.unit_matrix(rng, n, n), True
                p = sampling.invertible_integer_matrix(rng, n)
                yield a, p.inverse() @ a @ p, False
                # tr(B0) - tr(A0) = n * shift, just below and just above 2n * gap
                for factor, by_trace in ((1 - 1e-3, False), (1 + 1e-3, True)):
                    shift = 2 * factor * TestTraceRule.gap(a, a)
                    yield a, a + BqMatrix.identity(n) * complex(shift), by_trace

    def test_trace_verdicts_agree_with_the_structures(self, rng, computed):
        for a, b, by_trace in self.corpus(rng):
            spectral.jordan_structure.cache_clear()
            computed.clear()
            verdict = similar(a, b)
            assert len(computed) == (0 if by_trace else 2)
            apart = abs(complex(a.components[0].trace() - b.components[0].trace()))
            assert (apart > 2 * a.rows * self.gap(a, b)) == by_trace
            sa, sb = spectral.jordan_structure(a), spectral.jordan_structure(b)
            assert verdict == clinalg.fingerprints_match(sa.clusters, sb.clusters, self.gap(a, b))

    def test_refused_operand_with_another_trace_is_not_similar(self):
        x = split_cluster_matrix()
        assert not similar(x, x + BqMatrix.identity(8))
        with pytest.raises(ConvergenceError):
            similar(x, x)

    @pytest.mark.parametrize("k", [-100, -10, 0, 10, 100])
    def test_same_trace_goes_through_the_structures(self, k, computed):
        # (1+2i) I + E01 against (1+2i) I: one trace, two Jordan structures
        c = 10.0**k
        scalar = BqMatrix.identity(3) * complex(1 + 2j)
        step = BqMatrix.from_complex(np.diag([1.0, 0.0], 1))
        assert not similar((scalar + step) * c, scalar * c)
        assert similar((scalar + step) * c, (scalar + step) * c)
        assert len(computed) == 2

    def test_traces_beyond_the_float_range_leave_it_to_the_structures(self, computed):
        # |A| is finite while the sum of each diagonal is not
        d = np.linspace(2.5e307, 2.25e307, 8)
        a, reordered = BqMatrix.from_complex(np.diag(d)), BqMatrix.from_complex(np.diag(d[::-1]))
        b = BqMatrix.from_complex(np.diag([*d[:7], 2.4e307]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert similar(a, reordered) and not similar(a, b)
        assert len(computed) == 3
