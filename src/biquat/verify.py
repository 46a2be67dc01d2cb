"""Randomized end-to-end verification of the package's algebraic laws.

Each law from the scalar algebra, the matrix representations, the spectral
theory, and the central determinant is exercised on freshly sampled inputs:
integer-grid components for laws that must hold exactly in double precision,
unit-disk components for tolerance-based laws.  Failures are report entries,
never exceptions, and the report is byte-for-byte deterministic for a fixed
seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import clinalg, sampling
from .determinant import central_charpoly, central_det
from .errors import BiquatError, NotInvertibleError, NotTriangularError
from .matrix import (
    BqMatrix,
    block_diagonal,
    frame_reconstruct,
    recon_frame,
    repr_factor,
    shuffle_permutations,
)
from .scalar import Biquaternion
from .spectral import (
    adjoint_vector,
    derived_complex_eigenvalues,
    diagonalizable,
    regular_right_eigenpair,
    right_eigenpairs,
    similar,
)

EXACT = 0.0
# Largest relative error at which scaling_exponent_probe accepts an exponent.
_EXPONENT_TOL = 1e-6


@dataclass(frozen=True)
class LawResult:
    name: str
    samples: int
    max_residual: float
    tolerance: float  # 0.0 means the law must hold exactly
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    trials: int
    size: int
    laws: tuple[LawResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(law.passed for law in self.laws)

    def render(self) -> str:
        lines = [
            "biquat verification suite",
            f"seed={self.seed}  trials={self.trials}  size={self.size}",
            "",
        ]
        for law in self.laws:
            tol = "exact" if law.tolerance == EXACT else f"{law.tolerance:.0e}"
            line = (
                f"[{'PASS' if law.passed else 'FAIL'}] "
                f"{law.name:<36} samples={law.samples:<5d} "
                f"max-residual={law.max_residual:.3e}  tol={tol}"
            )
            if law.note:
                line += f"  ({law.note})"
            lines.append(line)
        passed = sum(law.passed for law in self.laws)
        lines.append("")
        lines.append(f"{passed}/{len(self.laws)} laws passed")
        lines.append(f"result: {'PASS' if self.all_passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _diff(x, y) -> float:
    # The largest entrywise distance of two arrays, scalars or matrices.
    x, y = (np.asarray(getattr(v, "components", v)) for v in (x, y))
    return float(np.max(np.abs(x - y)))


def _penrose_residual(a: BqMatrix, x: BqMatrix) -> float:
    scale = max(a.norm(), 1e-300)
    r = max(
        (a @ x @ a - a).norm(),
        (x @ a @ x - x).norm(),
        ((a @ x).hconj() - a @ x).norm(),
        ((x @ a).hconj() - x @ a).norm(),
    )
    return r / scale


def charpoly_coefficient_scale(a: BqMatrix) -> float:
    """Natural magnitude of a polynomial evaluation at A:
    ``sum_k |c_k| * |A|**k``; the yardstick for Cayley-Hamilton residuals."""
    coeffs = central_charpoly(a).coef
    s = a.norm()
    return float(sum(abs(c) * max(s, 1.0) ** k for k, c in enumerate(coeffs)))


def cayley_hamilton_residual(a: BqMatrix) -> float:
    """Norm of the central characteristic polynomial evaluated at A.

    Evaluation runs in biquaternion matrix arithmetic by Horner's scheme
    (complex coefficients act centrally), costing 2n matrix products.  The
    result is 0 in exact arithmetic; the float residual stays below about
    1e-8 times :func:`charpoly_coefficient_scale` for well-conditioned
    matrices.
    """
    n = a._require_square()
    coeffs = central_charpoly(a).coef
    acc = BqMatrix.identity(n) * complex(coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc @ a + BqMatrix.identity(n) * complex(c)
    return acc.norm()


def triangular_central_det(a: BqMatrix) -> complex:
    """Central determinant of a triangular matrix: the product of the weak
    norms of its diagonal entries.

    Raises:
        NotTriangularError: if the matrix is neither upper nor lower
            triangular within ``clinalg.DEFAULT_TOL`` times its norm.
    """
    n = a._require_square()
    c = a.components
    scale = clinalg.DEFAULT_TOL * a.norm()
    is_upper = bool(np.all(np.abs(np.tril(c, -1)) <= scale))
    is_lower = bool(np.all(np.abs(np.triu(c, 1)) <= scale))
    if not (is_upper or is_lower):
        raise NotTriangularError("matrix is not triangular within tolerance")
    out = 1 + 0j
    for k in range(n):
        out *= a.entry(k, k).weak_norm()
    return out


def scaling_exponent_probe(a: BqMatrix, mu: Biquaternion) -> int:
    """Measure k in ``central_det(mu * A) == weak_norm(mu)**k * central_det(A)``.

    Tries the two candidate exponents n and 2n and returns the better match
    (the smaller one on ties, which occur when ``|weak_norm(mu)| == 1``).
    The derivation predicts n; the probe exists so the shipped law is the
    measured one, not a claimed one.

    Raises:
        ValueError: for degenerate probes (singular A or zero-divisor mu),
            or when neither exponent matches within a relative error of 1e-6.
    """
    n = a._require_square()
    det_a = central_det(a)
    nw = mu.weak_norm()
    if abs(det_a) <= 1e-300 or abs(nw) <= 1e-300:
        raise ValueError("degenerate probe: singular matrix or zero-divisor scalar")
    ratio = central_det(mu * a) / det_a
    best_k, best_err = None, np.inf
    for k in (n, 2 * n):
        target = nw**k
        err = abs(ratio - target) / max(abs(target), 1e-300)
        if err < best_err - 1e-15:
            best_k, best_err = k, err
    if best_err > _EXPONENT_TOL:
        raise ValueError(
            f"measured ratio {ratio!r} matches neither candidate exponent "
            f"(best relative error {best_err:.3e})"
        )
    return best_k


def verify_suite(seed: int = 42, trials: int = 50, size: int = 3) -> VerifyReport:
    """Run every law and collect a deterministic report.

    ``size`` bounds matrix dimensions; scalar laws run ``10 * trials``
    samples since they are cheap and carry the exactness burden.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if size < 1:
        raise ValueError("size must be >= 1")
    rng = np.random.default_rng(seed)
    laws: list[LawResult] = []

    def run(name: str, tolerance: float, one_trial, count: int):
        worst, note = 0.0, ""
        try:
            for _ in range(count):
                worst = max(worst, float(one_trial(rng)))
        except (BiquatError, ArithmeticError, ValueError) as exc:
            worst, note = float("inf"), f"raised {type(exc).__name__}: {exc}"
        laws.append(LawResult(name, count, worst, tolerance, worst <= tolerance, note))

    def dims(rng):
        return int(rng.integers(1, size + 1))

    # ---- scalar algebra ----------------------------------------------------

    def conjugation_laws(rng):
        a = sampling.integer_biquaternion(rng)
        b = sampling.integer_biquaternion(rng)
        n = a.weak_norm()
        return max(
            _diff(a.dual().dual(), a),
            _diff(a.cconj().cconj(), a),
            _diff(a.hconj().hconj(), a),
            _diff((a + b).dual(), a.dual() + b.dual()),
            _diff((a + b).cconj(), a.cconj() + b.cconj()),
            _diff((a + b).hconj(), a.hconj() + b.hconj()),
            _diff((a * b).dual(), b.dual() * a.dual()),
            _diff((a * b).cconj(), a.cconj() * b.cconj()),
            _diff((a * b).hconj(), b.hconj() * a.hconj()),
            _diff(a * a.dual(), Biquaternion(n)),
            _diff(a.dual() * a, Biquaternion(n)),
            abs(a.dual().weak_norm() - n),
        )

    run("scalar.conjugation-laws", EXACT, conjugation_laws, 10 * trials)

    def scalar_homomorphism(rng):
        a = sampling.integer_biquaternion(rng)
        b = sampling.integer_biquaternion(rng)
        lam = complex(int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
        pa, pb = a.as_complex_matrix(), b.as_complex_matrix()
        return max(
            _diff((a + b).as_complex_matrix(), pa + pb),
            _diff((a * b).as_complex_matrix(), pa @ pb),
            _diff((lam * a).as_complex_matrix(), lam * pa),
            _diff((a * lam).as_complex_matrix(), lam * pa),
        )

    run("scalar.representation-homomorphism", EXACT, scalar_homomorphism, 10 * trials)

    def scalar_det_law(rng):
        a = sampling.integer_biquaternion(rng)
        return abs(clinalg.det(a.as_complex_matrix()) - a.weak_norm())

    run("scalar.representation-determinant", EXACT, scalar_det_law, 10 * trials)

    def scalar_roundtrip(rng):
        a = sampling.integer_biquaternion(rng)
        m = sampling.integer_components(rng, (2, 2))
        return max(
            _diff(Biquaternion.from_complex_matrix(a.as_complex_matrix()), a),
            _diff(Biquaternion.from_complex_matrix(m).as_complex_matrix(), m),
        )

    run("scalar.representation-roundtrip", EXACT, scalar_roundtrip, 10 * trials)

    def scalar_hermitian_repr(rng):
        a = sampling.integer_biquaternion(rng)
        return _diff(a.hconj().as_complex_matrix(), a.as_complex_matrix().conj().T)

    run("scalar.representation-hermitian", EXACT, scalar_hermitian_repr, 10 * trials)

    def scalar_frame_reconstruction(rng):
        a = sampling.integer_biquaternion(rng)
        rebuilt = frame_reconstruct(a.as_complex_matrix())
        return _diff(rebuilt.entry(0, 0), a)

    run("scalar.frame-reconstruction", EXACT, scalar_frame_reconstruction, 10 * trials)

    def scalar_factorization(rng):
        a = sampling.integer_biquaternion(rng)
        q = repr_factor(1)
        lifted = q @ BqMatrix.diag([a, a]) @ q
        return _diff(lifted, BqMatrix.from_complex(a.as_complex_matrix()))

    run("scalar.universal-factorization", EXACT, scalar_factorization, 10 * trials)

    def scalar_penrose(rng):
        a = sampling.unit_biquaternion(rng)
        if rng.integers(3) == 0:  # force a zero divisor: n(zd * a) = 0
            a = Biquaternion(1, 1j) * a
        mat = BqMatrix.from_entries([[a]])
        return _penrose_residual(mat, BqMatrix.from_entries([[a.pinv()]]))

    run("scalar.pseudoinverse-penrose", 1e-10, scalar_penrose, trials)

    def scalar_canonical(rng):
        a = sampling.unit_biquaternion(rng)
        form, _ = a.canonical_form()
        p = a.similarity_witness()
        conj = p.inverse() * a * p
        fa = clinalg.jordan_fingerprint(a.as_complex_matrix()).clusters
        fb = clinalg.jordan_fingerprint(form.as_complex_matrix()).clusters
        gap = clinalg.CLUSTER_TOL * max(1.0, a.norm())
        if not clinalg.fingerprints_match(fa, fb, gap):
            return 1.0
        return _diff(conj, form) / (1.0 + a.norm())

    run("scalar.canonical-similarity", 1e-9, scalar_canonical, trials)

    # ---- matrix representations ----------------------------------------------

    def matrix_factorization(rng):
        m, n = dims(rng), dims(rng)
        a = sampling.integer_matrix(rng, m, n)
        lifted = repr_factor(m) @ block_diagonal(a, a) @ repr_factor(n)
        return _diff(lifted, BqMatrix.from_complex(a.block_repr()))

    run("matrix.universal-factorization", EXACT, matrix_factorization, trials)

    def factor_unitary(rng):
        t = dims(rng)
        q = repr_factor(t)
        ident = BqMatrix.identity(2 * t)
        return max(_diff(q @ q, ident), _diff(q @ q.hconj(), ident))

    run("matrix.factor-unitary", EXACT, factor_unitary, trials)

    def matrix_homomorphism(rng):
        m, n, p = dims(rng), dims(rng), dims(rng)
        a = sampling.integer_matrix(rng, m, n)
        b = sampling.integer_matrix(rng, m, n)
        c = sampling.integer_matrix(rng, n, p)
        lam = complex(int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
        return max(
            _diff((a + b).block_repr(), a.block_repr() + b.block_repr()),
            _diff((a @ c).block_repr(), a.block_repr() @ c.block_repr()),
            _diff((a @ c).interleaved_repr(), a.interleaved_repr() @ c.interleaved_repr()),
            _diff((lam * a).block_repr(), lam * a.block_repr()),
            _diff((a * lam).block_repr(), lam * a.block_repr()),
        )

    run("matrix.representation-homomorphism", EXACT, matrix_homomorphism, trials)

    def matrix_roundtrip(rng):
        m, n = dims(rng), dims(rng)
        a = sampling.integer_matrix(rng, m, n)
        raw = sampling.integer_components(rng, (2 * m, 2 * n))
        return max(
            _diff(BqMatrix.from_block_repr(a.block_repr()), a),
            _diff(BqMatrix.from_block_repr(raw).block_repr(), raw),
            _diff(BqMatrix.from_interleaved_repr(a.interleaved_repr()), a),
        )

    run("matrix.representation-roundtrip", EXACT, matrix_roundtrip, trials)

    def matrix_hermitian_repr(rng):
        a = sampling.integer_matrix(rng, dims(rng), dims(rng))
        return _diff(a.hconj().block_repr(), a.block_repr().conj().T)

    run("matrix.representation-hermitian", EXACT, matrix_hermitian_repr, trials)

    def permutation_equivalence(rng):
        m, n = dims(rng), dims(rng)
        a = sampling.integer_matrix(rng, m, n)
        g, h = shuffle_permutations(m, n)
        return _diff(g @ a.block_repr() @ h, a.interleaved_repr())

    run("matrix.permutation-equivalence", EXACT, permutation_equivalence, trials)

    def frame_commutation(rng):
        m, n = dims(rng), dims(rng)
        a = sampling.integer_matrix(rng, m, n)
        em, en = recon_frame(m), recon_frame(n)
        rep = BqMatrix.from_complex(a.block_repr())
        return _diff(rep @ (en.hconj() @ en), (em.hconj() @ em) @ rep)

    run("matrix.frame-commutation", EXACT, frame_commutation, trials)

    def frame_reconstruction(rng):
        m, n = dims(rng), dims(rng)
        a = sampling.integer_matrix(rng, m, n)
        e = recon_frame(m)
        return max(
            _diff(frame_reconstruct(a.block_repr()), a),
            _diff(e @ e.hconj(), BqMatrix.identity(m) * 4),
        )

    run("matrix.frame-reconstruction", EXACT, frame_reconstruction, trials)

    def matrix_penrose(rng):
        m, n = dims(rng), dims(rng)
        if rng.integers(2) == 0 and min(m, n) >= 2:
            a = sampling.rank_deficient_matrix(rng, m, n)
        else:
            a = sampling.unit_matrix(rng, m, n)
        x = a.pinv()
        rep_gap = _diff(x.block_repr(), clinalg.pinv(a.block_repr())) / max(
            a.norm(), 1e-300
        )
        return max(_penrose_residual(a, x), rep_gap)

    run("matrix.pseudoinverse-penrose", 1e-10, matrix_penrose, trials)

    def rank_subadditivity(rng):
        m, n, p = dims(rng), dims(rng), dims(rng)
        a = (
            sampling.rank_deficient_matrix(rng, m, n)
            if min(m, n) >= 2 and rng.integers(2) == 0
            else sampling.integer_matrix(rng, m, n)
        )
        b = sampling.integer_matrix(rng, n, p)
        bound = min(a.rank().twice_rank, b.rank().twice_rank)
        return max(0, (a @ b).rank().twice_rank - bound)

    run("matrix.rank-subadditivity", EXACT, rank_subadditivity, trials)

    # ---- spectral theory ---------------------------------------------------------

    def adjoint_identities(rng):
        m, n = dims(rng), dims(rng)
        a = sampling.integer_matrix(rng, m, n)
        x = sampling.integer_matrix(rng, n, 1)
        lam = complex(int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
        return max(
            _diff(adjoint_vector(a @ x), a.block_repr() @ adjoint_vector(x)),
            _diff(adjoint_vector(x * lam), adjoint_vector(x) * lam),
        )

    run("spectral.adjoint-identities", EXACT, adjoint_identities, trials)

    def eigenpair_residuals(rng):
        n = dims(rng)
        a = sampling.unit_matrix(rng, n, n)
        scale = max(a.norm(), 1e-300)
        pairs = right_eigenpairs(a)
        spectrum = clinalg.eigvals(a.block_repr())
        gap = max(
            min(abs(complex(p.value) - w) for w in spectrum) for p in pairs
        )
        return max(max(p.residual for p in pairs) / scale, gap / scale)

    run("spectral.eigenpair-residuals", 1e-9, eigenpair_residuals, trials)

    def regular_pair_law(rng):
        n = dims(rng)
        a = sampling.unit_matrix(rng, n, n)
        pair = regular_right_eigenpair(a)
        if pair.vector.rank().twice_rank != 2:
            return 1.0
        return pair.residual / max(a.norm(), 1e-300)

    run("spectral.regular-eigenpair", 1e-9, regular_pair_law, trials)

    def derived_eigenvalue_law(rng):
        n = dims(rng)
        a = sampling.unit_matrix(rng, n, n)
        pair = regular_right_eigenpair(a)
        derived = derived_complex_eigenvalues(a, pair)
        spectrum = clinalg.eigvals(a.block_repr())
        worst = max(min(abs(d - w) for w in spectrum) for d in derived)
        return worst / max(1.0, a.norm())

    run("spectral.derived-eigenvalues", 1e-8, derived_eigenvalue_law, trials)

    def similarity_detection(rng):
        n = dims(rng)
        a = sampling.integer_matrix(rng, n, n)
        x = sampling.invertible_integer_matrix(rng, n)
        conj = x.inverse() @ a @ x
        shifted = a + BqMatrix.identity(n)  # spectrum shifts: never similar
        bad = 0
        bad += 0 if similar(a, conj) else 1
        bad += 0 if similar(conj, a) else 1
        bad += 0 if similar(a, a) else 1
        bad += 1 if similar(a, shifted) else 0
        if n >= 2:  # one trace, two Jordan structures: lam*I + E01 against lam*I, each
            # conjugated by I + N, N = z*E10, so N @ N == 0 and (I + N)^-1 == I - N exactly
            scalar = BqMatrix.identity(n) * complex(a.components[0, 0, 0])
            step, nil = np.zeros((n, n)), np.zeros((4, n, n), dtype=complex)
            step[0, 1], nil[:, 1, 0] = 1.0, x.components[:, 0, 1]
            p, p_inv = BqMatrix.identity(n) + BqMatrix(nil), BqMatrix.identity(n) - BqMatrix(nil)
            bad += 1 if similar(p @ (scalar + BqMatrix.from_complex(step)) @ p_inv, p @ scalar @ p_inv) else 0
        return bad

    run("spectral.similarity-detection", EXACT, similarity_detection, trials)

    def similarity_transitive(rng):
        n = dims(rng)
        a = sampling.integer_matrix(rng, n, n)
        x = sampling.invertible_integer_matrix(rng, n)
        y = sampling.invertible_integer_matrix(rng, n)
        b = x.inverse() @ a @ x
        c = y.inverse() @ b @ y
        return 0 if (similar(a, b) and similar(b, c) and similar(a, c)) else 1

    run("spectral.similarity-transitive", EXACT, similarity_transitive, trials)

    def diagonalizable_construction(rng):
        n = dims(rng)
        d = BqMatrix.diag([sampling.integer_biquaternion(rng) for _ in range(n)])
        p = sampling.invertible_integer_matrix(rng, n)
        return 0 if diagonalizable(p.inverse() @ d @ p) else 1

    run("spectral.diagonalizable-construction", EXACT, diagonalizable_construction, trials)

    # ---- central determinant ----------------------------------------------------

    def det_multiplicative(rng):
        n = dims(rng)
        a = sampling.integer_matrix(rng, n, n)
        b = sampling.integer_matrix(rng, n, n)
        lhs = central_det(a @ b)
        rhs = central_det(a) * central_det(b)
        return abs(lhs - rhs) / max(abs(rhs), 1.0)

    run("det.multiplicativity", 1e-10, det_multiplicative, trials)

    def det_invertibility(rng):
        n = dims(rng)
        a = (
            sampling.rank_deficient_matrix(rng, n, n)
            if n >= 2 and rng.integers(2) == 0
            else sampling.integer_matrix(rng, n, n)
        )
        nonzero = abs(central_det(a)) > 1e-8
        try:
            a.inverse()
            invertible = True
        except NotInvertibleError:
            invertible = False
        return 0 if nonzero == invertible else 1

    run("det.invertibility", EXACT, det_invertibility, trials)

    def det_complex_embedding(rng):
        n = dims(rng)
        c = sampling.integer_components(rng, (n, n))
        lhs = central_det(BqMatrix.from_complex(c))
        rhs = clinalg.det(c) ** 2
        return abs(lhs - rhs) / max(abs(rhs), 1.0)

    run("det.complex-embedding", 1e-10, det_complex_embedding, trials)

    def det_complex_scalar(rng):
        n = dims(rng)
        a = sampling.integer_matrix(rng, n, n)
        lam = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        lhs = central_det(lam * a)
        rhs = lam ** (2 * n) * central_det(a)
        return abs(lhs - rhs) / max(abs(rhs), 1.0)

    run("det.complex-scalar", 1e-12, det_complex_scalar, trials)

    def det_inverse_law(rng):
        n = dims(rng)
        a = sampling.invertible_integer_matrix(rng, n)
        lhs = central_det(a.inverse())
        rhs = 1.0 / central_det(a)
        return abs(lhs - rhs) / max(abs(rhs), 1e-300)

    run("det.inverse", 1e-10, det_inverse_law, trials)

    def det_hermitian_law(rng):
        n = dims(rng)
        a = sampling.integer_matrix(rng, n, n)
        lhs = central_det(a.hconj())
        rhs = central_det(a).conjugate()
        return abs(lhs - rhs) / max(abs(rhs), 1.0)

    run("det.hermitian-conjugate", 1e-10, det_hermitian_law, trials)

    def det_triangular_law(rng):
        n = dims(rng)
        c = sampling.integer_components(rng, (4, n, n))
        il, jl = np.tril_indices(n, k=-1)
        c[:, il, jl] = 0
        a = BqMatrix(c)
        lhs = triangular_central_det(a)
        rhs = central_det(a)
        return abs(lhs - rhs) / max(abs(rhs), 1.0)

    run("det.triangular", 1e-10, det_triangular_law, trials)

    def det_block_triangular(rng):
        n1, n2 = dims(rng), dims(rng)
        a1 = sampling.integer_matrix(rng, n1, n1)
        a2 = sampling.integer_matrix(rng, n2, n2)
        c = block_diagonal(a1, a2).components.copy()
        c[:, :n1, n1:] = sampling.integer_components(rng, (4, n1, n2))
        a = BqMatrix(c)
        lhs = central_det(a)
        rhs = central_det(a1) * central_det(a2)
        return abs(lhs - rhs) / max(abs(rhs), 1.0)

    run("det.block-triangular", 1e-10, det_block_triangular, trials)

    def det_similarity_invariance(rng):
        n = dims(rng)
        a = sampling.integer_matrix(rng, n, n)
        x = sampling.invertible_integer_matrix(rng, n)
        lhs = central_det(x.inverse() @ a @ x)
        rhs = central_det(a)
        return abs(lhs - rhs) / max(abs(rhs), 1.0)

    run("det.similarity-invariance", 1e-10, det_similarity_invariance, trials)

    measured: set[str] = set()

    def det_scaling_probe(rng):
        n = dims(rng)
        a = sampling.invertible_integer_matrix(rng, n)
        mu = sampling.invertible_integer_scalar(rng)
        k = scaling_exponent_probe(a, mu)
        measured.add("n" if k == n else "2n")
        return 0 if k == n else 1

    run("det.scaling-exponent", EXACT, det_scaling_probe, trials)
    if not laws[-1].note:
        laws[-1] = dataclasses.replace(
            laws[-1], note="measured exponent " + ",".join(sorted(measured))
        )

    def cayley_hamilton_law(rng):
        n = dims(rng)
        a = sampling.integer_matrix(rng, n, n)
        return cayley_hamilton_residual(a) / charpoly_coefficient_scale(a)

    run("det.cayley-hamilton", 1e-8, cayley_hamilton_law, trials)

    def charpoly_at_eigenvalues(rng):
        n = dims(rng)
        a = sampling.integer_matrix(rng, n, n)
        p = central_charpoly(a)
        scale = max(charpoly_coefficient_scale(a), 1e-300)
        w = clinalg.eigvals(a.block_repr())
        return max(abs(p(lam)) for lam in w) / scale

    run("det.charpoly-roots", 1e-8, charpoly_at_eigenvalues, trials)

    return VerifyReport(seed, trials, size, tuple(laws))
