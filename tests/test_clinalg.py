import dataclasses
import inspect
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biquat import clinalg, io
from biquat.errors import ConvergenceError, DimensionError
from conftest import (
    OVERFLOWING_SPECTRUM,
    gaussian_jordan_conjugate,
    merged_cluster_matrix,
    mixed_cluster_matrices,
    split_cluster_matrix,
    time_bound,
)

I2 = np.eye(2)
PAULI1 = np.array([[1j, 0], [0, -1j]])
PAULI2 = np.array([[0, -1], [1, 0]], dtype=complex)
PAULI3 = np.array([[0, -1j], [-1j, 0]])
NILP = np.array([[0, 1], [0, 0]], dtype=complex)


def random_cmatrix(rng, m, n, integer=False):
    if integer:
        return rng.integers(-5, 6, (m, n)) + 1j * rng.integers(-5, 6, (m, n))
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


class TestDet:
    def test_identity(self):
        assert clinalg.det(np.eye(3)) == 1

    def test_pauli(self):
        assert clinalg.det(PAULI1) == 1

    def test_singular(self):
        assert clinalg.det(np.ones((2, 2))) == 0

    def test_non_square(self):
        with pytest.raises(DimensionError):
            clinalg.det(np.ones((2, 3)))

    def test_empty(self):
        d = clinalg.det(np.zeros((0, 0)))
        assert type(d) is complex and d == 1

    def test_multiplicative(self, rng):
        for _ in range(50):
            a = random_cmatrix(rng, 4, 4, integer=True)
            b = random_cmatrix(rng, 4, 4, integer=True)
            lhs = clinalg.det(a @ b)
            rhs = clinalg.det(a) * clinalg.det(b)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_beyond_float_range_raises_without_warnings(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                clinalg.det(1e200 * np.eye(n))


class TestSvd:
    """Singular values only; no routine forms singular vectors."""

    def test_zero(self):
        np.testing.assert_array_equal(clinalg.singular_values(np.zeros((3, 2))), [0, 0])

    def test_identity(self):
        np.testing.assert_array_equal(clinalg.singular_values(I2), [1, 1])

    def test_diagonal(self):
        s = clinalg.singular_values(np.array([[0, 0], [0, 2]], dtype=complex))
        np.testing.assert_array_equal(s, [2, 0])

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty(self, shape):
        assert clinalg.singular_values(np.zeros(shape)).shape == (0,)
        assert clinalg.rank(np.zeros(shape)) == 0

    def test_reconstruction(self, rng):
        # a = u @ diag(s) @ vh built from chosen s gives back s, descending
        for m, n in [(3, 5), (20, 20), (7, 2)]:
            u, _ = np.linalg.qr(random_cmatrix(rng, m, m))
            v, _ = np.linalg.qr(random_cmatrix(rng, n, n))
            s = np.sort(rng.uniform(0.5, 4.0, min(m, n)))[::-1]
            smat = np.zeros((m, n))
            np.fill_diagonal(smat, s)
            got = clinalg.singular_values(u @ smat @ v.conj().T)
            np.testing.assert_allclose(got, s, rtol=1e-12)


class TestSchur:
    def test_reconstruction(self, rng):
        a = random_cmatrix(rng, 6, 6)
        t, q = clinalg.schur(a, vectors=True)
        np.testing.assert_array_equal(np.tril(t, -1), 0)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(6), atol=1e-14)
        assert np.linalg.norm(q @ t @ q.conj().T - a) <= 1e-14 * np.linalg.norm(a)

    def test_leading_columns_are_invariant(self, rng):
        a = random_cmatrix(rng, 5, 5, integer=True)
        t, q = clinalg.schur(a, vectors=True)
        y = q[:, :2]
        assert np.linalg.norm(a @ y - y @ t[:2, :2]) <= 1e-14 * np.linalg.norm(a)

    def test_without_vectors(self, rng):
        a = random_cmatrix(rng, 5, 5)
        t, q = clinalg.schur(a)
        assert q is None
        np.testing.assert_array_equal(np.tril(t, -1), 0)
        diag = np.diag(t)
        np.testing.assert_allclose(
            diag[np.lexsort((diag.imag, diag.real))], clinalg.eigvals(a), atol=1e-12
        )

    def test_non_square(self):
        with pytest.raises(DimensionError):
            clinalg.schur(np.ones((2, 3)))


class TestRank:
    def test_zero(self):
        assert clinalg.rank(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert clinalg.rank(np.eye(4)) == 4

    def test_deficient(self):
        assert clinalg.rank(np.array([[0, 0], [0, 2]])) == 1


class TestPinv:
    def test_zero(self):
        np.testing.assert_array_equal(clinalg.pinv(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_identity(self):
        np.testing.assert_allclose(clinalg.pinv(I2), I2)

    def test_diagonal(self):
        out = clinalg.pinv(np.array([[0, 0], [0, 2]], dtype=complex))
        np.testing.assert_allclose(out, [[0, 0], [0, 0.5]])

    def test_penrose_equations(self, rng):
        for _ in range(25):
            # rank-deficient by construction
            a = random_cmatrix(rng, 4, 2) @ random_cmatrix(rng, 2, 5)
            x = clinalg.pinv(a)
            scale = np.linalg.norm(a)
            assert np.linalg.norm(a @ x @ a - a) <= 1e-10 * scale
            assert np.linalg.norm(x @ a @ x - x) <= 1e-10 * scale
            assert np.linalg.norm((a @ x).conj().T - a @ x) <= 1e-10 * scale
            assert np.linalg.norm((x @ a).conj().T - x @ a) <= 1e-10 * scale


class TestEig:
    def test_diagonal(self):
        w, _ = clinalg.eig(PAULI1)
        np.testing.assert_allclose(w, [-1j, 1j])

    def test_identity(self):
        w, _ = clinalg.eig(np.eye(3))
        np.testing.assert_array_equal(w, [1, 1, 1])

    def test_rotation(self):
        # roots of lambda**2 + 1
        w, _ = clinalg.eig(PAULI2)
        np.testing.assert_allclose(sorted(w, key=lambda z: z.imag), [-1j, 1j], atol=1e-15)

    def test_residuals(self, rng):
        for _ in range(20):
            a = random_cmatrix(rng, 6, 6)
            w, v = clinalg.eig(a)
            for k in range(6):
                res = np.linalg.norm(a @ v[:, k] - w[k] * v[:, k])
                assert res <= 1e-9 * np.linalg.norm(a)

    def test_sorted_deterministically(self, rng):
        a = random_cmatrix(rng, 5, 5)
        w, _ = clinalg.eig(a)
        assert list(w) == sorted(w, key=lambda z: (z.real, z.imag))


class TestCharpoly:
    def test_identity(self):
        p = clinalg.charpoly(I2)
        np.testing.assert_array_equal(p.coef, [1, -2, 1])

    def test_pauli(self):
        p = clinalg.charpoly(PAULI1)
        np.testing.assert_array_equal(p.coef, [1, 0, 1])

    def test_zero(self):
        p = clinalg.charpoly(np.zeros((2, 2)))
        np.testing.assert_array_equal(p.coef, [0, 0, 1])

    def test_roots_are_eigenvalues(self, rng):
        for _ in range(20):
            a = random_cmatrix(rng, 6, 6, integer=True)
            p = clinalg.charpoly(a)
            scale = max(np.abs(p.coef)) * max(1.0, np.linalg.norm(a)) ** 6
            for lam in clinalg.eigvals(a):
                assert abs(p(lam)) <= 1e-8 * scale

    def test_beyond_float_range_raises_without_warnings(self):
        # the constant coefficient is 1e400, the block of the 1x1 matrix [[1e200]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                clinalg.charpoly(1e200 * np.eye(2))


@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_matrix_scale_is_scale_free(c):
    assert clinalg.matrix_scale(np.diag([1.0, 2.0]) * c) / c == pytest.approx(np.sqrt(5), rel=1e-15)


def test_matrix_scale_beyond_float_range_is_inf_without_warnings():
    # the modulus of the entry is inf already, so the rescaling reads its parts
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert clinalg.matrix_scale([[1.7e308 + 1.7e308j]]) == np.inf


@pytest.mark.parametrize("s", [1e-300, 1e-160, 1.0, 1e160, 1e300])
def test_norms_are_scale_free_along_an_axis(s):
    c = np.array([[3 + 4j, 1e-3], [12j, 0]])
    assert clinalg.norms(c * s, axis=0) / s == pytest.approx([13, 1e-3], rel=1e-15)
    assert clinalg.norms(c * s, weight=2) / s == pytest.approx(np.sqrt(2 * (169 + 1e-6)), rel=1e-15)


class TestJordanFingerprint:
    def test_identity(self):
        assert clinalg.jordan_fingerprint(I2).clusters == ((1 + 0j, (2,)),)

    def test_nilpotent_block(self):
        assert clinalg.jordan_fingerprint(NILP).clusters == ((0j, (1, 2)),)

    def test_distinct_diagonal(self):
        fp = clinalg.jordan_fingerprint(np.diag([3.0, 5.0])).clusters
        assert fp == ((3 + 0j, (1,)), (5 + 0j, (1,)))

    def test_match_on_conjugates(self, rng):
        a = random_cmatrix(rng, 4, 4, integer=True)
        x = random_cmatrix(rng, 4, 4, integer=True)
        while abs(np.linalg.det(x)) < 0.5:
            x = random_cmatrix(rng, 4, 4, integer=True)
        b = np.linalg.inv(x) @ a @ x
        fa = clinalg.jordan_fingerprint(a).clusters
        fb = clinalg.jordan_fingerprint(b).clusters
        gap = clinalg.CLUSTER_TOL * np.linalg.norm(a)
        assert clinalg.fingerprints_match(fa, fb, gap)

    @pytest.mark.parametrize("c", [0.1 + 0.2j, 0.3 + 0.7j, 1 / 3])
    @pytest.mark.parametrize("n", [3, 5, 6, 7])
    def test_scalar_multiple_of_identity(self, c, n):
        # the cluster mean rounds, so the shifted matrix is a tiny nonzero
        # diagonal; it must still count as zero (full kernel)
        [(lam, weyr)] = clinalg.jordan_fingerprint(c * np.eye(n)).clusters
        assert abs(lam - c) <= 1e-15 and weyr == (n,)

    @pytest.mark.parametrize("c", [1.0, 0.1, 100.0, 1e-65, 1e83])
    def test_jordan_block_at_any_scale(self, c):
        # eig splits the double eigenvalue, so the square of the shifted
        # matrix is rounding noise; it must still count as zero
        [(lam, weyr)] = clinalg.jordan_fingerprint(c * np.array([[1 + 2j, 2], [2, 1 - 2j]])).clusters
        assert abs(lam - c) <= 1e-15 * c and weyr == (1, 2)

    @pytest.mark.parametrize("d", [1.0, 1e-3])
    def test_nearby_eigenvalue_stays_out_of_the_cluster(self, d):
        # 3e-6 is its own cluster, but its square is below the cut for the
        # squared shift; only cluster 0's own Schur block may be powered
        a = np.array([[0, d, 0], [0, 0, 0], [0, 0, 3e-6]])
        fp = clinalg.jordan_fingerprint(a).clusters
        assert [weyr for _, weyr in fp] == [(1, 2), (1,)]

    @pytest.mark.parametrize("c", [1.0, 1e-310, 1e-300, 1e-120, 1e120, 1e200, 1e300])
    def test_size_three_block_powers_do_not_overflow(self, c):
        j = np.kron(np.eye(2), np.eye(3) + np.diag([1.0, 1.0], 1))  # two J3(1)
        [(lam, weyr)] = clinalg.jordan_fingerprint(c * j).clusters
        assert abs(lam - c) <= 1e-15 * c and weyr == (2, 4, 6)

    def test_mismatch_on_shift(self, rng):
        a = random_cmatrix(rng, 3, 3, integer=True)
        fa = clinalg.jordan_fingerprint(a).clusters
        fb = clinalg.jordan_fingerprint(a + np.eye(3)).clusters
        gap = clinalg.CLUSTER_TOL * np.linalg.norm(a)
        assert not clinalg.fingerprints_match(fa, fb, gap)

    # Weyr characteristics in fingerprint order, known by construction
    WEYR = {
        "generic": [(1,)] * 6,
        "structured": [(1, 2), (1,), (2, 3)],  # J2(-1), J1(3i), J2(2+i) + J1(2+i)
        "scalar identity": [(5,)],
        "nilpotent": [(2, 4, 5)],  # J3(0) + J2(0)
        "J3 * 1e120": [(2, 4, 6)],
        "J3 * 1e-120": [(2, 4, 6)],
    }

    @pytest.mark.parametrize("kind", list(WEYR))
    def test_weyr_known_by_construction(self, rng, kind):
        j3 = np.kron(np.eye(2), np.eye(3) + np.diag([1.0, 1.0], 1))
        if kind == "generic":
            a = random_cmatrix(rng, 6, 6)
        elif kind == "structured":
            j = np.diag([2 + 1j, 2 + 1j, 2 + 1j, -1, -1, 3j]).astype(complex)
            j[0, 1] = j[3, 4] = 1
            x = np.eye(6) + np.triu(random_cmatrix(rng, 6, 6, integer=True), 1)
            a = x @ j @ np.linalg.inv(x)
        elif kind == "scalar identity":
            a = (0.1 + 0.2j) * np.eye(5)
        elif kind == "nilpotent":
            a = np.diag([1.0, 1.0, 0.0, 1.0], 1).astype(complex)
        elif kind == "J3 * 1e120":
            a = j3 * 1e120
        else:
            a = j3 * 1e-120
        fp = clinalg.jordan_fingerprint(a).clusters
        assert [weyr for _, weyr in fp] == self.WEYR[kind]
        spectrum = clinalg.eigvals(a)
        for lam, _ in fp:
            assert np.min(np.abs(spectrum - lam)) <= 1e-6 * np.linalg.norm(a)

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        original = getattr(clinalg, name)

        def counted(*args, **kwargs):
            calls.append(kwargs.get("vectors", False))
            return original(*args, **kwargs)

        monkeypatch.setattr(clinalg, name, counted)
        return calls

    def test_one_eigvals_and_no_svd_for_simple_eigenvalues(self, monkeypatch, rng):
        a = random_cmatrix(rng, 6, 6)
        eigs = self._count(monkeypatch, "eigvals")
        svds = self._count(monkeypatch, "singular_values")
        schurs = self._count(monkeypatch, "schur")
        fp = clinalg.jordan_fingerprint(a).clusters
        assert len(eigs) == 1 and not svds and not schurs
        assert [weyr for _, weyr in fp] == [(1,)] * 6
        for lam, _ in fp:
            assert np.linalg.svd(a - lam * np.eye(6), compute_uv=False)[-1] <= 1e-12 * np.linalg.norm(a)

    def test_repeated_cluster(self, monkeypatch):
        # J2(3) + J1(3) + J1(5): nu = (2, 3) at 3, from one Schur form without vectors
        a = np.diag([3.0, 3.0, 3.0, 5.0]).astype(complex)
        a[0, 1] = 1.0
        eigs = self._count(monkeypatch, "eigvals")
        schurs = self._count(monkeypatch, "schur")
        (three, five) = clinalg.jordan_fingerprint(a).clusters
        assert len(eigs) == 1 and schurs == [False]
        assert three[1] == (2, 3) and five[1] == (1,)
        assert abs(three[0] - 3) <= 1e-14 and abs(five[0] - 5) <= 1e-14

    def test_one_schur_form_reordered_once(self, monkeypatch):
        # each repeated cluster is peeled off what the clusters before it
        # left: ztrsen reorders 2n rows once, then ever fewer
        from scipy.linalg import lapack

        sizes, ztrsen = [], lapack.ztrsen

        def recorded(select, t, *args, **kwargs):
            sizes.append(t.shape[0])
            return ztrsen(select, t, *args, **kwargs)

        monkeypatch.setattr(lapack, "ztrsen", recorded)
        x, _, _ = mixed_cluster_matrices(0)
        s = clinalg.jordan_fingerprint(x.block_repr())
        assert len(s.clusters) == 5 and sizes == [18, 14, 10, 8, 2]

    @pytest.mark.parametrize("blocks", [(3,), (3, 2)])
    def test_structures_cover_every_eigenvalue(self, blocks):
        # the blocks of a returned structure account for all 2n eigenvalues
        for seed in range(200):
            block = gaussian_jordan_conjugate(np.random.default_rng(seed), blocks).block_repr()
            try:
                s = clinalg.jordan_fingerprint(block)
            except ConvergenceError:
                continue
            assert sum(size * count for sizes in s.blocks for size, count in sizes) == len(block)

    def test_overflowing_spectrum_is_refused(self):
        # a finite block whose eigenvalues and Frobenius norm exceed the float
        # range: the gap would be inf and every cluster one
        block = io.loads(OVERFLOWING_SPECTRUM).block_repr()
        assert np.isfinite(block).all()
        with time_bound(10), pytest.raises(OverflowError):
            clinalg.jordan_fingerprint(block)
        with pytest.raises(OverflowError, match="eigenvalue"):
            clinalg.eigvals(block)

    def test_structure_is_a_frozen_value(self):
        # J2(3) + J1(3) + J1(5): equal matrices give equal, hashable values,
        # with each cluster's blocks decoded from its Weyr characteristic
        a = np.diag([3.0, 3.0, 3.0, 5.0]).astype(complex)
        a[0, 1] = 1.0
        s = clinalg.jordan_fingerprint(a)
        assert s == clinalg.jordan_fingerprint(a.copy()) and hash(s) == hash(clinalg.jordan_fingerprint(a))
        assert s.blocks == (((1, 1), (2, 1)), ((1, 1),))
        assert [dict(b) for b in s.blocks] == [clinalg.weyr_to_block_sizes(w) for _, w in s.clusters]
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.scale = 1.0

    def test_empty(self):
        assert clinalg.jordan_fingerprint(np.zeros((0, 0))) == clinalg.JordanStructure((), (), 0.0)

    def test_scale_is_the_frobenius_norm(self, rng):
        for a in (random_cmatrix(rng, 5, 5), np.diag([3.0, 3.0, 5.0]), np.zeros((0, 0))):
            assert clinalg.jordan_fingerprint(a).scale == clinalg.matrix_scale(a)

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (split_cluster_matrix, "first nullity of \\(0,\\) is 0"),
            (merged_cluster_matrix, "steps of \\(2, 6, 8\\) grow"),
            (lambda: gaussian_jordan_conjugate(np.random.default_rng(28), (3,)), "nullities \\(1,\\) stop short of 2"),
        ],
        ids=["split", "merged", "short"],
    )
    def test_unresolved_cluster_is_a_numerical_error(self, matrix, message):
        # nullities that are no Weyr characteristic or miss some of the
        # cluster's eigenvalues: an eigenvalue split past CLUSTER_TOL leaves
        # clusters of first nullity 0, separate eigenvalues merged into one
        # cluster give growing steps, and two J3 split into clusters of two
        # whose nullity stops at 1 would leave half their eigenvalues out
        with pytest.raises(ConvergenceError, match=message):
            clinalg.jordan_fingerprint(matrix().block_repr())


def union_find_clusters(w, gap):
    """Brute-force single linkage: every pair within ``gap`` is joined, the
    smaller root adopting the larger, so each root is its cluster's smallest
    index."""
    parent = list(range(len(w)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(w)):
        for j in range(i):
            if abs(w[i] - w[j]) <= gap:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(len(w)):
        groups.setdefault(find(i), []).append(i)
    return [groups[root] for root in sorted(groups)]


class TestClusterEigenvalues:
    @staticmethod
    def _inputs(rng):
        for _ in range(40):
            k = int(rng.integers(1, 40))
            yield rng.random(k) + 1j * rng.random(k), 0.08  # random, some chains
            yield rng.permutation(np.arange(k) * 0.5 + 0j), 0.5  # one chain, gaps exactly at the cut
            lattice = rng.integers(-2, 3, k) + 1j * rng.integers(-2, 3, k)
            yield lattice, 1.0  # lattice neighbours join, diagonal ones only through them

    def test_matches_union_find(self, rng):
        for w, gap in self._inputs(rng):
            got = [idx.tolist() for idx in clinalg.cluster_eigenvalues(w, gap)]
            assert got == union_find_clusters(w, gap)

    def test_sorted_input_gives_clusters_in_value_order(self, rng):
        for w, gap in self._inputs(rng):
            w = w[np.lexsort((w.imag, w.real))]
            firsts = [w[idx[0]] for idx in clinalg.cluster_eigenvalues(w, gap)]
            assert firsts == sorted(firsts, key=lambda z: (z.real, z.imag))

    def test_empty(self):
        assert clinalg.cluster_eigenvalues(np.zeros(0), 1.0) == []

    @pytest.mark.parametrize("k", [2, 3, 17, 40])
    def test_chain_spaced_at_the_gap_is_one_cluster(self, k):
        # index 0 at one end of the chain and index 1 at the other: label 0
        # travels one link a pass, so it needs k - 1 passes to reach index 1
        order = [0, *range(k - 1, 0, -1)]
        w = np.array(order) * 0.5 + 0j
        with time_bound(10):
            clusters = clinalg.cluster_eigenvalues(w, 0.5)
        assert [idx.tolist() for idx in clusters] == [list(range(k))]

    def test_non_finite_eigenvalues_end(self):
        # inf <= inf joins every pair while nan <= inf fails on the diagonal:
        # the labels used to swap forever
        for w in ([np.inf, -np.inf], [np.inf, -np.inf, 1.0, np.nan]):
            with time_bound(10), np.errstate(invalid="ignore"):
                clusters = clinalg.cluster_eigenvalues(np.array(w, dtype=complex), np.inf)
            assert sorted(i for idx in clusters for i in idx.tolist()) == list(range(len(w)))

    @settings(max_examples=300, deadline=None)
    @given(
        points=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=14),
        spacing=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    )
    @example(points=[(0, 0), (0, 0)], spacing=3.0)  # an exact tie among singletons
    @example(points=[(0, 0), (1, 0), (2, 0), (-1, 0)], spacing=1.0)  # a chain at the gap
    @example(points=[(0, 0), (1, 1)], spacing=1.0)  # a diagonal pair just past it
    def test_singletons_shortcut_agrees_with_single_linkage(self, points, spacing):
        # Lattice points ``spacing`` apart, with gap 1: at 2 and 3 nearly
        # every cluster is a singleton and the shortcut decides; at 1 the
        # neighbours lie exactly at the gap; at 0.5 they chain.
        w = np.array([complex(a, b) * spacing for a, b in points])
        got = [idx.tolist() for idx in clinalg.cluster_eigenvalues(w, 1.0)]
        assert got == union_find_clusters(w, 1.0)


class TestFingerprintsMatch:
    def test_finds_a_pairing_that_minimum_sum_assignment_misses(self):
        # the identity pairing has the least total distance, 0 + 1.9, but its
        # second pair is 1.9 apart; the swapped pairing has both at 0.99
        theta = np.arccos(-0.8416)
        fa = [(0j, (1,)), (0.99 * np.exp(1j * theta), (1,))]
        fb = [(0j, (1,)), (0.99 + 0j, (1,))]
        assert clinalg.fingerprints_match(fa, fb, 1.0)

    def test_pairs_only_equal_weyr_characteristics(self):
        fa = [(0j, (1, 2)), (0.5 + 0j, (1,))]
        fb = [(0.4 + 0j, (1, 2)), (0.1 + 0j, (1,))]
        assert clinalg.fingerprints_match(fa, fb, 0.45)
        assert not clinalg.fingerprints_match(fa, fb, 0.39)
        assert not clinalg.fingerprints_match(fa, fb[:1], 1.0)
        assert clinalg.fingerprints_match([], [], 0.0)

    def test_matches_brute_force_over_pairings(self, rng):
        for _ in range(300):
            k = int(rng.integers(1, 6))
            weyrs = [(1,), (1, 2), (2,)]
            fa = [(complex(*rng.random(2)), weyrs[rng.integers(3)]) for _ in range(k)]
            fb = [(complex(*rng.random(2)), weyrs[rng.integers(3)]) for _ in range(k)]
            gap = float(rng.random())
            expected = any(
                all(abs(fa[i][0] - fb[j][0]) <= gap and fa[i][1] == fb[j][1] for i, j in enumerate(perm))
                for perm in itertools.permutations(range(k))
            )
            assert clinalg.fingerprints_match(fa, fb, gap) == expected


class TestWeyrBlocks:
    @pytest.mark.parametrize(
        "weyr,expected",
        [
            ((2,), {1: 2}),
            ((1, 2), {2: 1}),
            ((2, 4), {2: 2}),
            ((2, 3, 4), {1: 1, 3: 1}),
            ((1, 2, 3), {3: 1}),
        ],
    )
    def test_conversion(self, weyr, expected):
        assert clinalg.weyr_to_block_sizes(weyr) == expected

    @pytest.mark.parametrize("weyr", [(2, 6, 8), (2, 8), (1, 3)])
    def test_growing_steps_are_rejected(self, weyr):
        # nullity steps of a Weyr characteristic never grow
        with pytest.raises(ConvergenceError):
            clinalg.weyr_to_block_sizes(weyr)

    @pytest.mark.parametrize("weyr", [(0,), (0, 1)])
    def test_zero_first_nullity_is_rejected(self, weyr):
        # every eigenvalue has an eigenvector
        with pytest.raises(ConvergenceError):
            clinalg.weyr_to_block_sizes(weyr)


def test_as_cmatrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        clinalg.as_cmatrix([[np.inf, 0], [0, 1]])
    with pytest.raises(DimensionError):
        clinalg.as_cmatrix([1, 2, 3])


def test_one_tolerance_policy():
    # DEFAULT_TOL and CLUSTER_TOL are the only thresholds: no public callable
    # takes a tolerance, except allclose, whose tolerance is part of its question
    import biquat

    callables = {}
    for name in biquat.__all__:
        obj = getattr(biquat, name)
        if inspect.ismodule(obj):
            for attr, fn in vars(obj).items():
                if inspect.isfunction(fn) and fn.__module__ == obj.__name__ and not attr.startswith("_"):
                    callables[f"{name}.{attr}"] = fn
        elif callable(obj):
            callables[name] = obj
    for cls in (biquat.Biquaternion, biquat.BqMatrix):
        for attr in vars(cls):
            if not attr.startswith("_") and callable(getattr(cls, attr)):
                callables[f"{cls.__name__}.{attr}"] = getattr(cls, attr)
    assert "clinalg.rank" in callables and "Biquaternion.canonical_form" in callables
    with_tol = []
    for name, fn in callables.items():
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):  # no introspectable signature
            continue
        if "tol" in params:
            with_tol.append(name)
    assert with_tol == ["BqMatrix.allclose"]
