import numpy as np
import pytest

from biquat import BqMatrix, clinalg, sampling, similar, similar_to_complex, spectral
from conftest import gaussian_pair


class TestUnimodular:
    @pytest.mark.parametrize("n", [0, 1])
    def test_below_two_is_the_identity_and_draws_nothing(self, n):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert sampling.unimodular(rng, n) == (BqMatrix.identity(n), BqMatrix.identity(n))
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n", range(2, 10))
    def test_inverse_is_exact(self, n):
        # equal as numbers; a zero of the product may carry a minus sign
        for seed in range(50):
            p, p_inv = sampling.unimodular(np.random.default_rng(seed), n)
            assert p @ p_inv == BqMatrix.identity(n) == p_inv @ p


class TestKnownAnswer:
    def test_jordan_form(self):
        x, p, p_inv, j = sampling.known_answer(np.random.default_rng(0), [(3, 2), (3, 1), (-2 + 2j, 1)])
        expected = np.diag([3, 3, 3, -2 + 2j])
        expected[0, 1] = 1
        np.testing.assert_array_equal(j, expected)
        assert x == p @ BqMatrix.from_complex(j) @ p_inv and p_inv @ x @ p == BqMatrix.from_complex(j)

    def test_empty(self):
        x, p, p_inv, j = sampling.known_answer(np.random.default_rng(0), [])
        assert x.shape == p.shape == p_inv.shape == j.shape == (0, 0)

    @pytest.mark.parametrize("pattern", [(2,), (1, 1), (2, 1), (2, 2), (2, 1, 1)])
    def test_round_trip(self, pattern):
        # blocks up to size 2 at two Gaussian integers: the structure of X is
        # J's, doubled by the block representation, and the verdicts follow
        doubled = tuple(2 * sum(min(size, k) for size in pattern) for k in range(1, max(pattern) + 1))
        for seed in range(100):
            rng = np.random.default_rng(seed)
            pair = gaussian_pair(rng)
            x, p, p_inv, j = sampling.known_answer(rng, [(lam, size) for lam in pair for size in pattern])
            q, q_inv = sampling.unimodular(rng, len(j))
            s = spectral.jordan_structure(x)
            expected = [(complex(lam), doubled) for lam in pair]
            assert clinalg.fingerprints_match(s.clusters, expected, clinalg.CLUSTER_TOL * s.scale)
            assert similar(x, q @ x @ q_inv)
            assert similar_to_complex(x)[0]
            coupled = np.flatnonzero(np.diag(j, 1))
            if coupled.size:  # one Jordan block split in two: the same spectrum
                j[coupled[0], coupled[0] + 1] = 0
                assert not similar(x, p @ BqMatrix.from_complex(j) @ p_inv)
