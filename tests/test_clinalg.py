import numpy as np
import pytest

from biquat import clinalg
from biquat.errors import DimensionError

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

    def test_multiplicative(self, rng):
        for _ in range(50):
            a = random_cmatrix(rng, 4, 4, integer=True)
            b = random_cmatrix(rng, 4, 4, integer=True)
            lhs = clinalg.det(a @ b)
            rhs = clinalg.det(a) * clinalg.det(b)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


class TestSvd:
    def test_zero(self):
        _, s, _ = clinalg.svd(np.zeros((3, 2)))
        np.testing.assert_array_equal(s, [0, 0])

    def test_identity(self):
        _, s, _ = clinalg.svd(I2)
        np.testing.assert_array_equal(s, [1, 1])

    def test_diagonal(self):
        _, s, _ = clinalg.svd(np.array([[0, 0], [0, 2]], dtype=complex))
        np.testing.assert_array_equal(s, [2, 0])

    def test_reconstruction(self, rng):
        for m, n in [(3, 5), (20, 20), (7, 2)]:
            a = random_cmatrix(rng, m, n)
            u, s, vh = clinalg.svd(a)
            smat = np.zeros((m, n))
            np.fill_diagonal(smat, s)
            err = np.linalg.norm(u @ smat @ vh - a)
            assert err <= 1e-12 * np.linalg.norm(a)


class TestRank:
    def test_zero(self):
        assert clinalg.rank(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert clinalg.rank(np.eye(4)) == 4

    def test_deficient(self):
        assert clinalg.rank(np.array([[0, 0], [0, 2]])) == 1

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            clinalg.rank(I2, tol=0)


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


class TestJordanFingerprint:
    def test_identity(self):
        assert clinalg.jordan_fingerprint(I2) == [(1 + 0j, (2,))]

    def test_nilpotent_block(self):
        assert clinalg.jordan_fingerprint(NILP) == [(0j, (1, 2))]

    def test_distinct_diagonal(self):
        fp = clinalg.jordan_fingerprint(np.diag([3.0, 5.0]))
        assert fp == [(3 + 0j, (1,)), (5 + 0j, (1,))]

    def test_match_on_conjugates(self, rng):
        a = random_cmatrix(rng, 4, 4, integer=True)
        x = random_cmatrix(rng, 4, 4, integer=True)
        while abs(np.linalg.det(x)) < 0.5:
            x = random_cmatrix(rng, 4, 4, integer=True)
        b = np.linalg.inv(x) @ a @ x
        fa = clinalg.jordan_fingerprint(a)
        fb = clinalg.jordan_fingerprint(b)
        gap = clinalg.CLUSTER_TOL * np.linalg.norm(a)
        assert clinalg.fingerprints_match(fa, fb, gap)

    @pytest.mark.parametrize("c", [0.1 + 0.2j, 0.3 + 0.7j, 1 / 3])
    @pytest.mark.parametrize("n", [3, 5, 6, 7])
    def test_scalar_multiple_of_identity(self, c, n):
        # the cluster mean rounds, so the shifted matrix is a tiny nonzero
        # diagonal; it must still count as zero (full kernel)
        [(lam, weyr)] = clinalg.jordan_fingerprint(c * np.eye(n))
        assert abs(lam - c) <= 1e-15 and weyr == (n,)

    def test_mismatch_on_shift(self, rng):
        a = random_cmatrix(rng, 3, 3, integer=True)
        fa = clinalg.jordan_fingerprint(a)
        fb = clinalg.jordan_fingerprint(a + np.eye(3))
        gap = clinalg.CLUSTER_TOL * np.linalg.norm(a)
        assert not clinalg.fingerprints_match(fa, fb, gap)


class TestSpectralClusters:
    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        original = getattr(clinalg, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(clinalg, name, counted)
        return calls

    def test_one_eig_and_no_svd_for_simple_eigenvalues(self, monkeypatch, rng):
        a = random_cmatrix(rng, 6, 6)
        eigs = self._count(monkeypatch, "eig")
        svds = self._count(monkeypatch, "svd") + self._count(monkeypatch, "singular_values")
        clusters = clinalg.spectral_clusters(a)
        assert len(eigs) == 1 and not svds
        assert [c.weyr for c in clusters] == [(1,)] * 6
        for c in clusters:
            y = c.basis[:, 0]
            assert np.linalg.norm(a @ y - c.value * y) <= 1e-12 * np.linalg.norm(a)

    def test_repeated_cluster_kernel_basis(self, monkeypatch):
        # J2(3) + J1(3) + J1(5): nu = (2, 3) at 3, kernel spanned by e0, e2
        a = np.diag([3.0, 3.0, 3.0, 5.0]).astype(complex)
        a[0, 1] = 1.0
        eigs = self._count(monkeypatch, "eig")
        (three, five) = clinalg.spectral_clusters(a)
        assert len(eigs) == 1
        assert three.weyr == (2, 3) and five.weyr == (1,)
        basis = three.basis
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(a @ basis, 3 * basis, atol=1e-12)


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


def test_as_cmatrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        clinalg.as_cmatrix([[np.inf, 0], [0, 1]])
    with pytest.raises(DimensionError):
        clinalg.as_cmatrix([1, 2, 3])
