import copy
import pickle
import warnings

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biquat import (
    E1,
    E2,
    E3,
    ONE,
    Biquaternion,
    BqMatrix,
    DimensionError,
    HalfRank,
    NotInvertibleError,
    block_diagonal,
    clinalg,
    frame_reconstruct,
    recon_frame,
    repr_factor,
    sampling,
    shuffle_permutations,
)
from biquat.errors import NotTriangularError
from biquat.verify import triangular_central_det
from conftest import bq_close, mat_close, penrose_residual

ZD = Biquaternion(1, 1j)  # zero divisor: weak norm 0


def embed(m):
    return BqMatrix.from_complex(m)


class TestConstruction:
    def test_from_entries_shape(self):
        a = BqMatrix.from_entries([[E1, E2], [ONE, 2 + 1j]])
        assert a.shape == (2, 2)
        assert a.entry(0, 1) == E2
        assert a.entry(1, 1) == Biquaternion(2 + 1j)

    def test_hash_agrees_with_equality_on_signed_zeros(self):
        a, b = BqMatrix.from_entries([[0.0]]), BqMatrix.from_entries([[-0.0]])
        c = BqMatrix(np.array([[[complex(0.0, -0.0), 1.0]], [[-0.0, 2j]], [[0j, 0j]], [[-0.0, 0j]]]))
        d = BqMatrix(np.array([[[0j, 1.0]], [[0j, 2j]], [[0j, 0j]], [[0j, 0j]]]))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert c == d and hash(c) == hash(d) and len({c, d}) == 1
        assert len({a, BqMatrix.from_entries([[1e-300]])}) == 2

    def test_hash_reads_a_few_entries_and_equality_decides(self, rng):
        # the hash strides over at most 8 components: every signed zero,
        # read or skipped, hashes as 0.0, and a skipped entry that differs
        # leaves the hash alone while the matrices stay two keys
        c = sampling.integer_components(rng, (4, 4, 4))
        c[:, ::2, ::3] = 0.0
        signed = c.copy()
        signed[signed == 0] = complex(-0.0, -0.0)
        a, b = BqMatrix(c), BqMatrix(signed)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        c[0, 0, 1] += 1  # component 1 of 64: the stride is 9
        other = BqMatrix(c)
        assert hash(other) == hash(a) and other != a and len({a, other}) == 2

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            BqMatrix.from_entries([[ONE], [ONE, E1]])

    def test_component_view_matches_entries(self, rng):
        a = sampling.integer_matrix(rng, 3, 2)
        for i in range(3):
            for j in range(2):
                assert a.entry(i, j) == Biquaternion(*a.components[:, i, j])

    def test_immutable_components(self, rng):
        a = sampling.integer_matrix(rng, 2, 2)
        with pytest.raises(ValueError):
            a.components[0, 0, 0] = 5

    def test_public_construction_copies(self):
        c = np.zeros((4, 1, 1), dtype=complex)
        a = BqMatrix(c)
        c[0, 0, 0] = 1
        assert a.entry(0, 0) == Biquaternion(0) and c.flags.writeable

    def test_built_results_are_read_only_and_finite(self, rng):
        a = sampling.integer_matrix(rng, 2, 2)
        built = [a @ a, a + a, a - a, -a, a * E1, E1 * a, a.dual(), a.hconj(),
                 BqMatrix.from_block_repr(a.block_repr()),
                 BqMatrix.from_interleaved_repr(a.interleaved_repr())]
        assert not any(b.components.flags.writeable for b in built)
        big = BqMatrix.from_complex([[1e308]])
        with pytest.raises(OverflowError):
            big + big

    def test_getitem(self, rng):
        a = sampling.integer_matrix(rng, 3, 3)
        assert a[1, 2] == a.entry(1, 2)
        sub = a[0:2, 1:3]
        assert sub.shape == (2, 2)
        assert sub.entry(0, 0) == a.entry(0, 1)
        assert a[:, 2:3].shape == (3, 1)


class TestArithmetic:
    @pytest.mark.parametrize(
        "op, what",
        [
            (lambda a: a + a, "the sum"),
            (lambda a: a - -a, "the difference"),
            (lambda a: a @ BqMatrix.from_entries([[10, 0], [0, 1]]), "the product"),
            (lambda a: a * (2 * E1), "the scalar multiple"),
            (lambda a: (2 * E1) * a, "the scalar multiple"),
        ],
        ids=["add", "sub", "matmul", "mul", "rmul"],
    )
    def test_beyond_float_range_is_an_overflow_without_warnings(self, op, what):
        # a computed result, not an input error; formed under np.errstate
        a = BqMatrix.from_entries([[Biquaternion(1e308, 1e308), 0], [0, 1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=f"{what} exceeds the float range"):
                op(a)

    def test_non_finite_input_is_an_input_error(self):
        with pytest.raises(ValueError, match="non-finite"):
            BqMatrix.from_complex([[np.inf]])
        with pytest.raises(ValueError, match="not finite"):
            BqMatrix.identity(1) * np.nan

    def test_identity_product(self, rng):
        a = sampling.integer_matrix(rng, 3, 3)
        assert BqMatrix.identity(3) @ a == a

    def test_basis_product(self):
        lhs = BqMatrix.from_entries([[E1]]) @ BqMatrix.from_entries([[E2]])
        assert lhs == BqMatrix.from_entries([[E3]])

    def test_product_hconj_reverses(self, rng):
        for _ in range(25):
            a = sampling.integer_matrix(rng, 2, 3)
            b = sampling.integer_matrix(rng, 3, 2)
            assert (a @ b).hconj() == b.hconj() @ a.hconj()

    def test_product_dual_reverses(self, rng):
        a = sampling.integer_matrix(rng, 2, 3)
        b = sampling.integer_matrix(rng, 3, 4)
        assert (a @ b).dual() == b.dual() @ a.dual()

    def test_scalar_sides_differ(self):
        a = BqMatrix.from_entries([[E2]])
        assert (E1 * a).entry(0, 0) == E3
        assert (a * E1).entry(0, 0) == -E3

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            sampling.integer_matrix(rng, 2, 3) @ sampling.integer_matrix(rng, 2, 3)
        with pytest.raises(DimensionError):
            sampling.integer_matrix(rng, 2, 3) + sampling.integer_matrix(rng, 3, 2)


@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_norm_is_scale_free(c):
    a = embed(np.diag([1.0, 2.0])) * c
    assert a.norm() / c == pytest.approx(np.sqrt(10), rel=1e-15)


class TestConjugations:
    def test_hconj_of_hermitian_diagonal(self):
        a = BqMatrix.diag([1, 2])
        assert a.hconj() == a

    def test_dual_involution(self, rng):
        a = sampling.integer_matrix(rng, 3, 2)
        assert a.dual().dual() == a
        assert a.hconj().hconj() == a

    def test_dual_of_row(self):
        row = BqMatrix.from_entries([[E1, E2]])
        expect = BqMatrix.from_entries([[-E1], [-E2]])
        assert row.dual() == expect


class TestBlockRepr:
    def test_identity(self):
        np.testing.assert_array_equal(BqMatrix.identity(3).block_repr(), np.eye(6))

    def test_basis_entry(self):
        a = BqMatrix.from_entries([[E1]])
        np.testing.assert_array_equal(a.block_repr(), [[1j, 0], [0, -1j]])

    @pytest.mark.parametrize("m, n", [(2, 3), (0, 3), (3, 0), (0, 0)])
    def test_layout_at_every_shape(self, rng, m, n):
        a = sampling.unit_matrix(rng, m, n) if m and n else BqMatrix.zeros(m, n)
        c0, c1, c2, c3 = a.components
        rep = a.block_repr()
        assert rep.dtype == complex and rep.shape == (2 * m, 2 * n)
        np.testing.assert_array_equal(
            rep, np.block([[c0 + 1j * c1, -(c2 + 1j * c3)], [c2 - 1j * c3, c0 - 1j * c1]])
        )

    def test_homomorphism(self, rng):
        for _ in range(25):
            a = sampling.integer_matrix(rng, 2, 3)
            b = sampling.integer_matrix(rng, 3, 4)
            np.testing.assert_array_equal(
                (a @ b).block_repr(), a.block_repr() @ b.block_repr()
            )

    def test_hconj_is_conjugate_transpose(self, rng):
        a = sampling.integer_matrix(rng, 3, 2)
        np.testing.assert_array_equal(a.hconj().block_repr(), a.block_repr().conj().T)

    def test_dual_predicate(self, rng):
        # dual image = [[0, I], [-I, 0]] @ image.T @ [[0, -I], [I, 0]]
        m, n = 2, 3
        a = sampling.integer_matrix(rng, m, n)
        jl = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
        jr = np.block([[np.zeros((m, m)), -np.eye(m)], [np.eye(m), np.zeros((m, m))]])
        np.testing.assert_array_equal(
            a.dual().block_repr(), jl @ a.block_repr().T @ jr
        )

    def test_cconj_predicate(self, rng):
        # componentwise-conjugate image uses entrywise conjugation, no transpose
        m, n = 2, 3
        a = sampling.integer_matrix(rng, m, n)
        star = BqMatrix(a.components.conj())
        jl = np.block([[np.zeros((m, m)), np.eye(m)], [-np.eye(m), np.zeros((m, m))]])
        jr = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
        np.testing.assert_array_equal(
            star.block_repr(), jl @ a.block_repr().conj() @ jr
        )


class TestFromBlockRepr:
    def test_identity(self):
        assert BqMatrix.from_block_repr(np.eye(4)) == BqMatrix.identity(2)

    def test_roundtrip_exact(self, rng):
        for _ in range(25):
            a = sampling.integer_matrix(rng, 3, 2)
            assert BqMatrix.from_block_repr(a.block_repr()) == a
            raw = sampling.integer_components(rng, (4, 6))
            np.testing.assert_array_equal(
                BqMatrix.from_block_repr(raw).block_repr(), raw
            )

    def test_diagonal_pauli(self):
        a = BqMatrix.from_block_repr(np.diag([1j, -1j]))
        assert a == BqMatrix.from_entries([[E1]])

    def test_odd_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            BqMatrix.from_block_repr(np.eye(3))


class TestInterleavedRepr:
    def test_identity(self):
        np.testing.assert_array_equal(
            BqMatrix.identity(3).interleaved_repr(), np.eye(6)
        )

    def test_row_of_basis_entries(self):
        a = BqMatrix.from_entries([[E1, E2]])
        expected = np.hstack([E1.as_complex_matrix(), E2.as_complex_matrix()])
        np.testing.assert_array_equal(a.interleaved_repr(), expected)

    def test_homomorphism(self, rng):
        a = sampling.integer_matrix(rng, 2, 3)
        c = sampling.integer_matrix(rng, 3, 2)
        np.testing.assert_array_equal(
            (a @ c).interleaved_repr(), a.interleaved_repr() @ c.interleaved_repr()
        )

    def test_inverse_map(self, rng):
        a = sampling.integer_matrix(rng, 2, 3)
        assert BqMatrix.from_interleaved_repr(a.interleaved_repr()) == a

    def test_lift_rejects_odd_dimensions_and_non_finite_cells(self):
        with pytest.raises(DimensionError, match="interleaved"):
            BqMatrix.from_interleaved_repr(np.eye(3))
        with pytest.raises(ValueError, match="non-finite"):
            BqMatrix.from_interleaved_repr(np.diag([1, 1, np.inf, 1]))


class TestShufflePermutations:
    def test_trivial_size(self):
        g, h = shuffle_permutations(1, 1)
        np.testing.assert_array_equal(g, np.eye(2))
        np.testing.assert_array_equal(h, np.eye(2))

    def test_links_representations(self, rng):
        for m, n in [(2, 2), (3, 1), (2, 4)]:
            a = sampling.integer_matrix(rng, m, n)
            g, h = shuffle_permutations(m, n)
            np.testing.assert_array_equal(
                g @ a.block_repr() @ h, a.interleaved_repr()
            )

    def test_are_permutations(self):
        g, h = shuffle_permutations(3, 2)
        for p in (g, h):
            assert np.array_equal(p.sum(axis=0), np.ones(p.shape[0]))
            assert np.array_equal(p.sum(axis=1), np.ones(p.shape[0]))
            assert set(np.unique(p)) == {0, 1}


class TestUniversalFactorization:
    def test_exact_on_integers(self, rng):
        for _ in range(25):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            a = sampling.integer_matrix(rng, m, n)
            lifted = repr_factor(m) @ block_diagonal(a, a) @ repr_factor(n)
            assert lifted == embed(a.block_repr())

    def test_factor_self_inverse_unitary(self):
        for t in (1, 2, 3):
            q = repr_factor(t)
            ident = BqMatrix.identity(2 * t)
            assert q @ q == ident
            assert q @ q.hconj() == ident
            assert q.hconj() == q


class TestFrames:
    def test_frame_product(self):
        for t in (1, 2, 3):
            e = recon_frame(t)
            assert e @ e.hconj() == BqMatrix.identity(t) * 4

    def test_reconstruct_matches_block_inverse(self, rng):
        for _ in range(20):
            a = sampling.integer_matrix(rng, 2, 3)
            assert frame_reconstruct(a.block_repr()) == a

    def test_reconstruct_identity(self):
        out = frame_reconstruct(np.eye(2))
        assert out == BqMatrix.identity(1)

    def test_commutation_identity(self, rng):
        for _ in range(10):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            a = sampling.integer_matrix(rng, m, n)
            rep = embed(a.block_repr())
            em, en = recon_frame(m), recon_frame(n)
            assert rep @ (en.hconj() @ en) == (em.hconj() @ em) @ rep


class TestInverse:
    def test_identity(self):
        assert BqMatrix.identity(3).inverse() == BqMatrix.identity(3)

    def test_diagonal_of_basis(self):
        a = BqMatrix.diag([E1, E2])
        assert mat_close(a.inverse(), BqMatrix.diag([-E1, -E2]), tol=1e-14)

    def test_zero_divisor_entry(self):
        with pytest.raises(NotInvertibleError):
            BqMatrix.from_entries([[ZD]]).inverse()

    def test_two_sided(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            a = sampling.invertible_integer_matrix(rng, n)
            inv = a.inverse()
            assert mat_close(a @ inv, BqMatrix.identity(n), tol=1e-9)
            assert mat_close(inv @ a, BqMatrix.identity(n), tol=1e-9)


def _conditioned(rng, n, log_kappa):
    """An n x n matrix whose block representation has singular values spaced
    geometrically from 1 down to 10**-log_kappa."""
    u, _, vh = np.linalg.svd(sampling.unit_matrix(rng, n, n).block_repr())
    return BqMatrix.from_block_repr((u * np.logspace(0, -log_kappa, 2 * n)) @ vh)


def _count_svds(monkeypatch):
    calls = []
    original = clinalg.singular_values

    def counted(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(clinalg, "singular_values", counted)
    return calls


class TestInverseCertificate:
    """The LU inverse is accepted without an SVD when |block| |inverse| bounds
    the condition number below 0.1 / DEFAULT_TOL; every verdict is the rank rule's."""

    LOG_KAPPAS = [*np.linspace(8, 12, 9), *np.linspace(9.9, 10.1, 11)]

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("log_kappa", LOG_KAPPAS)
    def test_raises_exactly_where_the_rank_rule_does(self, rng, n, log_kappa):
        a = _conditioned(rng, n, log_kappa)
        if clinalg.rank(a.block_repr()) < 2 * n:
            with pytest.raises(NotInvertibleError):
                a.inverse()
        else:
            inv = a.inverse()
            err = np.linalg.norm(a.block_repr() @ inv.block_repr() - np.eye(2 * n))
            assert err <= 1e-15 * 10**log_kappa * 2 * n

    def test_sweep_reaches_both_verdicts(self, rng):
        ranks = {clinalg.rank(_conditioned(rng, 2, k).block_repr()) for k in self.LOG_KAPPAS}
        assert ranks == {3, 4}

    @pytest.mark.parametrize("log_kappa", [0, 4, 8])
    def test_no_svd_when_well_conditioned(self, rng, monkeypatch, log_kappa):
        a = _conditioned(rng, 3, log_kappa)
        svds = _count_svds(monkeypatch)
        a.inverse()
        assert svds == []

    @pytest.mark.parametrize("log_kappa", [9.5, 9.95, 10.05, 11])
    def test_one_svd_in_the_doubtful_band(self, rng, monkeypatch, log_kappa):
        a = _conditioned(rng, 3, log_kappa)
        svds = _count_svds(monkeypatch)
        try:
            a.inverse()
        except NotInvertibleError:
            pass
        assert svds == [(6, 6)]

    def test_singular_and_zero_divisor_matrices(self, monkeypatch):
        svds = _count_svds(monkeypatch)
        for a in (
            BqMatrix.zeros(2, 2),
            BqMatrix.from_entries([[ZD, 0], [0, 1]]),
            BqMatrix.from_entries([[1, E1], [E1, -1]]),  # rows differ by a factor of E1
        ):
            with pytest.raises(NotInvertibleError):
                a.inverse()
        assert len(svds) == 3

    @pytest.mark.parametrize("k", [-300, -200, -100, 0, 100, 200, 300])
    def test_at_any_scale(self, rng, monkeypatch, k):
        a = sampling.unit_matrix(rng, 3, 3)
        svds = _count_svds(monkeypatch)
        inv = a.inverse()
        c = 10.0**k
        assert (a * c).inverse().allclose(inv * (1 / c), 1e-13 * np.linalg.cond(a.block_repr()))
        assert svds == []


class TestPinv:
    def test_zero(self):
        assert BqMatrix.zeros(2, 3).pinv() == BqMatrix.zeros(3, 2)

    def test_identity(self):
        assert mat_close(BqMatrix.identity(3).pinv(), BqMatrix.identity(3), 1e-14)

    def test_beyond_float_range_raises_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy RuntimeWarning
            with pytest.raises(OverflowError):
                BqMatrix.from_entries([[Biquaternion(1e-310)]]).pinv()

    def test_zero_divisor_scalar_case(self):
        x = BqMatrix.from_entries([[ZD]]).pinv()
        assert bq_close(x.entry(0, 0), Biquaternion(0.25, 0.25j), tol=1e-13)

    def test_penrose_and_representation(self, rng):
        for k in range(50):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            if k % 2 and min(m, n) >= 2:
                a = sampling.rank_deficient_matrix(rng, m, n)
            else:
                a = sampling.unit_matrix(rng, m, n)
            x = a.pinv()
            scale = max(a.norm(), 1e-300)
            assert penrose_residual(a, x) <= 1e-10 * scale
            gap = np.max(np.abs(x.block_repr() - clinalg.pinv(a.block_repr())))
            assert gap <= 1e-10 * scale

    def test_uniqueness_by_perturbation_rejection(self, rng):
        a = sampling.integer_matrix(rng, 3, 3)
        x = a.pinv()
        scale = a.norm()
        assert penrose_residual(a, x) <= 1e-12 * scale
        bump = BqMatrix.identity(3) * 1e-6
        assert penrose_residual(a, x + bump) > 1e-12 * scale

    def test_frame_route_agrees(self, rng):
        # pinv is also 1/4 * E_2n @ pinv(block) @ E_2m.hconj()
        for _ in range(10):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            a = sampling.unit_matrix(rng, m, n)
            x = a.pinv()
            y = frame_reconstruct(clinalg.pinv(a.block_repr()))
            assert mat_close(x, y, tol=1e-12)


class TestRank:
    def test_identity(self):
        assert BqMatrix.identity(4).rank() == 4

    def test_zero(self):
        assert BqMatrix.zeros(2, 3).rank() == 0

    def test_half_rank_zero_divisor(self):
        r = BqMatrix.from_entries([[ZD]]).rank()
        assert r == HalfRank(1)
        assert r == Fraction(1, 2) and isinstance(r, Fraction)
        assert type(r.twice_rank) is int and r.twice_rank == 1
        assert str(r) == "1/2"

    def test_subadditivity(self, rng):
        for _ in range(50):
            m, n, p = (int(rng.integers(1, 5)) for _ in range(3))
            a = sampling.integer_matrix(rng, m, n)
            b = sampling.integer_matrix(rng, n, p)
            assert (a @ b).rank() <= min(a.rank(), b.rank())


class TestPredicates:
    def test_small_matrices_are_not_close_to_zero(self):
        # closeness is relative to the operands, with no floor of 1
        small = BqMatrix.identity(2) * 1e-12
        assert not small.allclose(BqMatrix.zeros(2, 2))


def _grid_matrix(n, kind, values):
    c = np.array(values[: 4 * n * n]) + 1j * np.array(values[4 * n * n :])
    c = c.reshape(4, n, n)
    if kind == "upper":
        c = np.triu(c)
    elif kind == "deficient":
        c[:, -1] = c[:, 0]  # repeated row: block rank at most 2n - 2
    return BqMatrix(c)


GRID_MATRICES = st.integers(1, 3).flatmap(
    lambda n: st.builds(
        _grid_matrix,
        st.just(n),
        st.sampled_from(["full", "upper", "deficient"]),
        st.lists(st.integers(-5, 5), min_size=8 * n * n, max_size=8 * n * n),
    )
)


def _is_triangular(a):
    try:
        triangular_central_det(a)
    except NotTriangularError:
        return False
    return True


class TestScaleFree:
    """Multiplying by 10**k changes only the scale of the outputs."""

    @settings(derandomize=True, deadline=None)
    @given(GRID_MATRICES, st.integers(-100, 100))
    @example(BqMatrix.diag([ZD, 1]), -100)
    @example(BqMatrix.identity(2), 100)
    def test_verdicts_do_not_depend_on_scale(self, a, k):
        c = 10.0**k
        ac = a * c
        assert ac.rank() == a.rank()
        assert _is_triangular(ac) == _is_triangular(a)
        for other in (a, a @ a):
            assert ac.allclose(other * c) == a.allclose(other)
        if a.rank().twice_rank == 2 * a.rows:
            inv = a.inverse()
            cond = np.linalg.cond(a.block_repr())
            assert (ac.inverse() * c).allclose(inv, 1e-14 * cond)
        else:
            with pytest.raises(NotInvertibleError):
                ac.inverse()


class TestHalfRank:
    def test_str_integer(self):
        assert str(HalfRank(4)) == "2"

    def test_str_half_integer(self):
        assert [str(HalfRank(k)) for k in (0, 1, 3)] == ["0", "1/2", "3/2"]

    def test_ordering(self):
        assert HalfRank(1) < HalfRank(2) < 2

    def test_equality_with_numbers(self):
        assert HalfRank(4) == 2
        assert HalfRank(3) == Fraction(3, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HalfRank(-1)

    @pytest.mark.parametrize("twice", [0, 1, 3, 4])
    def test_copies_keep_the_type(self, twice, monkeypatch):
        r = HalfRank(twice)
        pickles = [pickle.dumps(r, p) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        # Some Python versions pickle a Fraction as cls(str(self)).
        monkeypatch.setattr(Fraction, "__reduce__", lambda f: (type(f), (str(f),)))
        pickles.append(pickle.dumps(r))
        copies = [copy.copy(r), copy.deepcopy(r), *map(pickle.loads, pickles)]
        for c in copies:
            assert type(c) is HalfRank and c.twice_rank == twice and c == r
