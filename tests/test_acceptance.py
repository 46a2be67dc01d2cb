"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from biquat import (
    Biquaternion,
    BqMatrix,
    NotInvertibleError,
    block_diagonal,
    central_det,
    clinalg,
    derived_complex_eigenvalues,
    diagonalizable,
    frame_reconstruct,
    regular_right_eigenpair,
    repr_factor,
    right_eigenpairs,
    sampling,
    similar,
)
from biquat.cli import main as cli_main
from biquat.verify import (
    cayley_hamilton_residual,
    charpoly_coefficient_scale,
    scaling_exponent_probe,
    triangular_central_det,
)
from biquat.scalar import E1, E2, E3, ONE

MAX_PROBLEMS = 5


def _report(num: int, name: str, problems: list):
    status = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}")
    assert not problems, "; ".join(str(p) for p in problems[:MAX_PROBLEMS])


def _note(problems, condition, message):
    if not condition and len(problems) < MAX_PROBLEMS:
        problems.append(message)


def test_criterion_01_universal_factorization():
    rng = np.random.default_rng(101)
    problems = []
    start = time.monotonic()
    q1 = repr_factor(1)
    for k in range(1000):
        a = sampling.integer_biquaternion(rng)
        image = BqMatrix.from_complex(a.as_complex_matrix())
        lifted = q1 @ BqMatrix.diag([a, a]) @ q1
        _note(problems, lifted == image, f"scalar factorization not exact at trial {k}")
        rebuilt = frame_reconstruct(a.as_complex_matrix()).entry(0, 0)
        _note(problems, rebuilt == a, f"scalar reconstruction not exact at trial {k}")
    for k in range(200):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = sampling.integer_matrix(rng, m, n)
        lifted = repr_factor(m) @ block_diagonal(a, a) @ repr_factor(n)
        _note(
            problems,
            lifted == BqMatrix.from_complex(a.block_repr()),
            f"matrix factorization not exact at trial {k}",
        )
        _note(
            problems,
            frame_reconstruct(a.block_repr()) == a,
            f"matrix reconstruction not exact at trial {k}",
        )
        _note(
            problems,
            BqMatrix.from_block_repr(a.block_repr()) == a,
            f"block round trip not exact at trial {k}",
        )
    elapsed = time.monotonic() - start
    _note(problems, elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s")
    _report(1, "universal-factorization", problems)


def test_criterion_02_homomorphism_laws():
    rng = np.random.default_rng(102)
    problems = []
    for k in range(500):
        a = sampling.integer_matrix(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        c = sampling.integer_matrix(rng, a.cols, int(rng.integers(1, 5)))
        prod = a @ c
        exact_big = np.array_equal(prod.block_repr(), a.block_repr() @ c.block_repr())
        exact_small = np.array_equal(
            prod.interleaved_repr(), a.interleaved_repr() @ c.interleaved_repr()
        )
        s, t = sampling.integer_biquaternion(rng), sampling.integer_biquaternion(rng)
        exact_scalar = np.array_equal(
            (s * t).as_complex_matrix(), s.as_complex_matrix() @ t.as_complex_matrix()
        )
        _note(problems, exact_big and exact_small and exact_scalar,
              f"integer homomorphism not exact at trial {k}")
    for k in range(500):
        a = sampling.unit_matrix(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        c = sampling.unit_matrix(rng, a.cols, int(rng.integers(1, 5)))
        lhs = (a @ c).block_repr()
        rhs = a.block_repr() @ c.block_repr()
        scale = max(np.linalg.norm(rhs), 1e-300)
        _note(problems, np.linalg.norm(lhs - rhs) <= 1e-12 * scale,
              f"float homomorphism beyond 1e-12 at trial {k}")
    _report(2, "representation-homomorphism", problems)


def test_criterion_03_determinant_is_weak_norm():
    rng = np.random.default_rng(103)
    problems = []
    for k in range(1000):
        a = sampling.integer_biquaternion(rng)
        _note(
            problems,
            clinalg.det(a.as_complex_matrix()) == a.weak_norm(),
            f"det/weak-norm mismatch at trial {k}",
        )
    _report(3, "representation-determinant", problems)


def test_criterion_04_moore_penrose():
    rng = np.random.default_rng(104)
    problems = []
    for k in range(200):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        if k % 3 == 0 and min(m, n) >= 2:
            a = sampling.rank_deficient_matrix(rng, m, n)
        elif k % 3 == 1:
            a = sampling.unit_matrix(rng, m, n)
        else:
            a = sampling.integer_matrix(rng, m, n)
        x = a.pinv()
        scale = max(a.norm(), 1e-300)
        worst = max(
            (a @ x @ a - a).norm(),
            (x @ a @ x - x).norm(),
            ((a @ x).hconj() - a @ x).norm(),
            ((x @ a).hconj() - x @ a).norm(),
        )
        _note(problems, worst <= 1e-10 * scale, f"Penrose residual {worst:.2e} at trial {k}")
        gap = np.max(np.abs(x.block_repr() - clinalg.pinv(a.block_repr())))
        _note(problems, gap <= 1e-10 * max(1.0, scale),
              f"representation of pinv off by {gap:.2e} at trial {k}")
    zd = Biquaternion(1, 1j)
    x = BqMatrix.from_entries([[zd]]).pinv().entry(0, 0)
    expected = Biquaternion(0.25, 0.25j)
    gap = max(abs(p - q) for p, q in zip(x.components, expected.components))
    _note(problems, gap <= 1e-12, f"pinv(1+i e1) off by {gap:.2e}")
    _report(4, "moore-penrose", problems)


def test_criterion_05_right_eigenpairs():
    rng = np.random.default_rng(105)
    problems = []
    for k in range(100):
        n = int(rng.integers(1, 7))
        a = sampling.unit_matrix(rng, n, n)
        pairs = right_eigenpairs(a)
        scale = max(a.norm(), 1e-300)
        worst = max(p.residual for p in pairs)
        _note(problems, worst <= 1e-9 * scale,
              f"eigenpair residual {worst:.2e} at trial {k}")
        spectrum = clinalg.eigvals(a.block_repr())
        returned = np.array([p.value for p in pairs])
        _note(problems, len(pairs) == 2 * n, f"expected 2n pairs at trial {k}")
        # a bijection of the two multisets pairing each within 1e-8 exists
        # exactly when the assignment of least cost over "gap > 1e-8" is 0
        far = np.abs(returned[:, None] - spectrum[None, :]) > 1e-8
        rows, cols = linear_sum_assignment(far)
        unpaired = int(far[rows, cols].sum())
        _note(problems, unpaired == 0,
              f"{unpaired} eigenvalues unpaired within 1e-8 at trial {k}")
    _report(5, "right-eigenpairs", problems)


def _criterion_6_samples():
    rng = np.random.default_rng(106)
    samples = [BqMatrix.from_entries([[Biquaternion(0, 0, -0.5, 0.5j)]])]
    for _ in range(100):
        n = int(rng.integers(1, 5))
        samples.append(sampling.unit_matrix(rng, n, n))
    return samples


def test_criterion_06_regular_eigenpair():
    problems = []
    for k, a in enumerate(_criterion_6_samples()):
        try:
            pair = regular_right_eigenpair(a)
        except Exception as exc:  # existence is the claim under test
            _note(problems, False, f"no regular pair at trial {k}: {exc}")
            continue
        scale = max(a.norm(), 1e-300)
        _note(problems, pair.residual <= 1e-9 * scale,
              f"regular residual {pair.residual:.2e} at trial {k}")
        _note(problems, pair.vector.rank().twice_rank == 2,
              f"eigenvector rank != 1 at trial {k}")
    _report(6, "regular-right-eigenpair", problems)


def test_criterion_07_derived_eigenvalues_roundtrip():
    problems = []
    for k, a in enumerate(_criterion_6_samples()):
        pair = regular_right_eigenpair(a)
        derived = derived_complex_eigenvalues(a, pair)
        spectrum = clinalg.eigvals(a.block_repr())
        for d in derived:
            gap = min(abs(d - w) for w in spectrum)
            _note(problems, gap <= 1e-8,
                  f"derived value misses spectrum by {gap:.2e} at trial {k}")
    _report(7, "derived-eigenvalues", problems)


def test_criterion_08_similarity():
    rng = np.random.default_rng(108)
    problems = []
    for k in range(100):
        n = int(rng.integers(1, 5))
        a = sampling.integer_matrix(rng, n, n)
        x = sampling.invertible_integer_matrix(rng, n)
        _note(problems, similar(a, x.inverse() @ a @ x),
              f"conjugate pair misclassified at trial {k}")
    for k in range(100):
        n = int(rng.integers(1, 5))
        a = sampling.integer_matrix(rng, n, n)
        # shifting the spectrum guarantees a different fingerprint
        _note(problems, not similar(a, a + BqMatrix.identity(n)),
              f"shifted pair misclassified at trial {k}")
    _report(8, "similarity", problems)


def test_criterion_09_diagonalizability():
    rng = np.random.default_rng(109)
    problems = []
    for k in range(50):
        n = int(rng.integers(1, 5))
        d = BqMatrix.diag([sampling.integer_biquaternion(rng) for _ in range(n)])
        p = sampling.invertible_integer_matrix(rng, n)
        _note(problems, diagonalizable(p.inverse() @ d @ p),
              f"diagonal construction reported non-diagonalizable at trial {k}")
    # preimage of an interleaved representation with a size-3 Jordan block
    m = np.diag([2.0, 2.0, 2.0, 5.0]).astype(complex)
    m[0, 1] = m[1, 2] = 1.0
    a = BqMatrix.from_interleaved_repr(m)
    _note(problems, not diagonalizable(a), "size-3 Jordan block reported diagonalizable")
    _report(9, "diagonalizability", problems)


def test_criterion_10_central_determinant_laws():
    rng = np.random.default_rng(110)
    problems = []

    def rel_ok(lhs, rhs):
        return abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    for k in range(200):
        n = int(rng.integers(1, 5))
        a = sampling.integer_matrix(rng, n, n)
        b = sampling.integer_matrix(rng, n, n)
        c = sampling.integer_components(rng, (n, n))
        lam = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        _note(problems, rel_ok(central_det(BqMatrix.from_complex(c)), clinalg.det(c) ** 2),
              f"(a) complex embedding at trial {k}")
        _note(problems, rel_ok(central_det(a @ b), central_det(a) * central_det(b)),
              f"(c) multiplicativity at trial {k}")
        _note(problems, rel_ok(central_det(lam * a), lam ** (2 * n) * central_det(a)),
              f"(d) complex scalar at trial {k}")
        _note(problems, rel_ok(central_det(a.hconj()), central_det(a).conjugate()),
              f"(g) Hermitian conjugate at trial {k}")
        tri = sampling.integer_components(rng, (4, n, n))
        il, jl = np.tril_indices(n, k=-1)
        tri[:, il, jl] = 0
        t = BqMatrix(tri)
        _note(problems, rel_ok(triangular_central_det(t), central_det(t)),
              f"(h) triangular at trial {k}")
        n2 = int(rng.integers(1, 4))
        a2 = sampling.integer_matrix(rng, n2, n2)
        cc = block_diagonal(a, a2).components.copy()
        cc[:, :n, n:] = sampling.integer_components(rng, (4, n, n2))
        _note(problems,
              rel_ok(central_det(BqMatrix(cc)), central_det(a) * central_det(a2)),
              f"(i) block triangular at trial {k}")
        x = sampling.invertible_integer_matrix(rng, n)
        _note(problems, rel_ok(central_det(x.inverse() @ a @ x), central_det(a)),
              f"(j) similarity invariance at trial {k}")
        inv = sampling.invertible_integer_matrix(rng, n)
        _note(problems, rel_ok(central_det(inv.inverse()), 1.0 / central_det(inv)),
              f"(f) inverse at trial {k}")
        nonzero = abs(central_det(a)) > 1e-8
        try:
            a.inverse()
            invertible = True
        except NotInvertibleError:
            invertible = False
        _note(problems, nonzero == invertible, f"(b) invertibility at trial {k}")
    _report(10, "central-determinant-laws", problems)


def test_criterion_11_scaling_exponent_probe():
    rng = np.random.default_rng(111)
    problems = []
    measured = set()
    for k in range(50):
        n = int(rng.integers(1, 5))
        a = sampling.invertible_integer_matrix(rng, n)
        mu = sampling.invertible_integer_scalar(rng)
        exponent = scaling_exponent_probe(a, mu)
        measured.add("n" if exponent == n else "2n")
        _note(problems, exponent == n,
              f"measured exponent {exponent} != n = {n} at trial {k}")
    _note(problems, measured == {"n"}, f"inconsistent measurements: {measured}")
    print(f"  (criterion 11) measured scaling exponent: n, across 50 trials")
    _report(11, "scaling-exponent-probe", problems)


def test_criterion_12_cayley_hamilton():
    rng = np.random.default_rng(112)
    problems = []
    for k in range(100):
        n = int(rng.integers(1, 5))
        a = sampling.integer_matrix(rng, n, n)
        res = cayley_hamilton_residual(a)
        scale = charpoly_coefficient_scale(a)
        _note(problems, res <= 1e-8 * scale,
              f"Cayley-Hamilton residual {res:.2e} vs scale {scale:.2e} at trial {k}")
    _report(12, "cayley-hamilton", problems)


def test_criterion_13_half_integer_rank():
    rng = np.random.default_rng(113)
    problems = []
    r = BqMatrix.from_entries([[Biquaternion(1, 1j)]]).rank()
    _note(problems, r.twice_rank == 1 and str(r) == "1/2",
          f"rank of zero divisor is {r}, expected 1/2")
    for k in range(200):
        m, n, p = (int(rng.integers(1, 5)) for _ in range(3))
        a = sampling.integer_matrix(rng, m, n)
        b = sampling.integer_matrix(rng, n, p)
        ok = (a @ b).rank() <= min(a.rank(), b.rank())
        _note(problems, ok, f"subadditivity violated at trial {k}")
    _report(13, "half-integer-rank", problems)


def test_criterion_14_cli_determinism(capsys):
    problems = []
    start = time.monotonic()
    code1 = cli_main(["verify", "--seed", "42"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["verify", "--seed", "42"])
    out2 = capsys.readouterr().out
    elapsed = time.monotonic() - start
    _note(problems, code1 == 0 and code2 == 0, f"verify exit codes {code1}, {code2}")
    _note(problems, out1 == out2, "verify reports differ between runs")
    _note(problems, "result: PASS" in out1, "verify report is not passing")
    _note(problems, elapsed < 60.0, f"two verify runs took {elapsed:.1f}s (>60s budget)")
    _report(14, "cli-determinism", problems)
