"""The four workloads: how each builds its inputs, what one operation does,
and how its outputs are checked.

Every operation of a workload has the same make-up and the same matrix size.
A workload holds a pool of ``POOL`` inputs and a run attempts whole rounds
over the pool.  ``op`` calls the program and returns its outputs; ``check``
converts them to numpy arrays and hands them to :mod:`checks`.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np

# Calls go through the package namespace, where the traced run's wrappers
# are visible.
import biquat
import checks
import inputs
from biquat import BqMatrix

HERE = Path(__file__).resolve().parent


def _pairs_arrays(pairs):
    values = np.array([p.value for p in pairs], dtype=complex)
    vectors = np.concatenate([p.vector.components for p in pairs], axis=2)
    residuals = np.array([p.residual for p in pairs])
    return values, vectors, residuals


class Dense:
    """One unit-disk ``n = 128`` input (256 x 256 block) through ``A @ B``,
    ``inverse``, ``pinv`` and ``rank`` of a rank-deficient companion with
    odd twice-rank, ``central_det`` and ``right_eigenpairs``."""

    N = 128
    POOL = 4

    def __init__(self, seed: int):
        rng = inputs.rng_for("dense", seed)
        self.raw = [inputs.dense_input(rng, self.N) for _ in range(self.POOL)]
        self.mats = [(BqMatrix(r.a), BqMatrix(r.b), BqMatrix(r.c)) for r in self.raw]

    def prepare_checks(self):
        self.spectra = [np.linalg.eigvals(checks.block(r.a)) for r in self.raw]

    def op(self, k):
        a, b, c = self.mats[k]
        return a @ b, a.inverse(), c.pinv(), c.rank(), biquat.central_det(a), biquat.right_eigenpairs(a)

    def check(self, k, out):
        raw = self.raw[k]
        ab, a_inv, c_pinv, rank, det, pairs = out
        checks.check_product(raw.a, raw.b, ab.components)
        checks.check_inverse(raw.a, a_inv.components)
        checks.check_pinv(raw.c, c_pinv.components)
        checks.check_rank(rank.twice_rank, raw.twice_rank)
        checks.check_det_slogdet(raw.a, det)
        checks.check_eigenpairs(raw.a, *_pairs_arrays(pairs), self.spectra[k], tol=1e-10)


def _similarity_calls(x: BqMatrix, conjugate: BqMatrix, other: BqMatrix):
    return (
        biquat.similar(x, conjugate),
        biquat.similar(x, other),
        biquat.diagonalizable(x),
        biquat.similar_to_complex(x),
        biquat.regular_right_eigenpair(x),
    )


def _check_similarity(case: inputs.Case, spectrum, out):
    same, differ, diag, (to_complex, witness), pair = out
    checks.check_verdict("similar(X, Q X Q^-1)", same, True)
    checks.check_verdict("similar(X, X')", differ, False)
    checks.check_verdict("diagonalizable(X)", diag, True)
    checks.check_verdict("similar_to_complex(X)", to_complex, case.similar_to_complex)
    if case.jordan is not None:
        checks.check_jordan_witness(witness, case.jordan)
    checks.check_regular_pair(
        case.x, pair.value.components, pair.vector.components, pair.residual, spectrum, tol=1e-8
    )


class Spectral:
    """At ``n = 32``, one generic and one structured input each through
    ``similar(X, Q X Q^-1)``, ``similar(X, X')``, ``diagonalizable``,
    ``similar_to_complex`` and ``regular_right_eigenpair``."""

    N = 32
    POOL = 2

    def __init__(self, seed: int):
        rng = inputs.rng_for("spectral", seed)
        self.cases = [
            (inputs.generic_case(rng, self.N), inputs.structured_case(rng, self.N))
            for _ in range(self.POOL)
        ]
        self.mats = [
            tuple((BqMatrix(c.x), BqMatrix(c.conjugate), BqMatrix(c.other)) for c in pair)
            for pair in self.cases
        ]

    def prepare_checks(self):
        self.spectra = [
            tuple(
                c.spectrum if c.spectrum is not None else np.linalg.eigvals(checks.block(c.x))
                for c in pair
            )
            for pair in self.cases
        ]

    def op(self, k):
        return [_similarity_calls(*mats) for mats in self.mats[k]]

    def check(self, k, out):
        for case, spectrum, calls in zip(self.cases[k], self.spectra[k], out):
            _check_similarity(case, spectrum, calls)


class Cli:
    """One fresh ``biquat inv`` process on an ``n = 64`` document read from
    stdin; the inverse document on stdout is checked."""

    N = 64
    POOL = 2
    PLAIN = [sys.executable, "-m", "biquat.cli", "inv", "-"]
    TRACED = [sys.executable, str(HERE / "clichild.py"), "inv", "-"]

    def __init__(self, seed: int):
        rng = inputs.rng_for("cli", seed)
        self.raw = [inputs.unit_disk(rng, (4, self.N, self.N)) for _ in range(self.POOL)]
        self.docs = [inputs.document(a) for a in self.raw]
        self.traced = False

    def prepare_checks(self):
        pass

    def op(self, k):
        proc = subprocess.run(
            self.TRACED if self.traced else self.PLAIN,
            input=self.docs[k],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"biquat inv exited {proc.returncode}: {proc.stderr[-500:]}")
        return proc.stdout, proc.stderr

    def check(self, k, out):
        checks.check_inverse(self.raw[k], inputs.parse_document(out[0]))


class Small:
    """A batch of ``n = 4`` inputs and their entries through every verb of
    the CLI but ``verify`` (representations, inverse, pinv, rank, det,
    charpoly, eigenpairs, regular eigenpair, canonical form, similarity,
    diagonalizability, similarity to a complex matrix), plus scalar ``*``,
    ``inverse`` and ``canonical_form`` on every entry."""

    N = 4
    BATCH = 8  # half complex type, half quaternionic
    POOL = 2

    def __init__(self, seed: int):
        rng = inputs.rng_for("small", seed)
        self.batches = [
            [inputs.small_case(rng, self.N, quaternionic=bool(i % 2)) for i in range(self.BATCH)]
            for _ in range(self.POOL)
        ]
        self.mats = [
            [(BqMatrix(c.x), BqMatrix(c.conjugate), BqMatrix(c.other)) for c in batch]
            for batch in self.batches
        ]
        # Exact weak norms: which entries the program is asked to invert.
        self.invertible = [
            [
                [bool(np.sum(c.x[:, i, j] ** 2) != 0) for i in range(self.N) for j in range(self.N)]
                for c in batch
            ]
            for batch in self.batches
        ]

    def prepare_checks(self):
        pass

    def op(self, k):
        out = []
        for (x, conjugate, other), invertible in zip(self.mats[k], self.invertible[k]):
            entries = [x.entry(i, j) for i in range(self.N) for j in range(self.N)]
            out.append(
                (
                    x.block_repr(),
                    x.interleaved_repr(),
                    x.inverse(),
                    x.pinv(),
                    x.rank(),
                    biquat.central_det(x),
                    biquat.central_charpoly(x).coef,
                    biquat.right_eigenpairs(x),
                    x[0:1, 0:1].entry(0, 0).canonical_form(),
                    _similarity_calls(x, conjugate, other),
                    [e * f for e, f in zip(entries, entries[1:] + entries[:1])],
                    [e.inverse() if ok else None for e, ok in zip(entries, invertible)],
                    [e.canonical_form() for e in entries],
                )
            )
        return out

    def check(self, k, out):
        for case, result in zip(self.batches[k], out):
            rep, inter, inv, pinv, rank, det, coef, pairs, canon, calls, prods, invs, forms = result
            x = case.x
            if not (np.array_equal(rep, checks.block(x)) and np.array_equal(inter, checks.interleaved(x))):
                raise checks.CheckError("complex representation differs from the paper's formula")
            checks.check_inverse(x, inv.components)
            checks.check_pinv(x, pinv.components)
            checks.check_rank(rank.twice_rank, 2 * self.N)
            checks.check_det_known(det, case.spectrum)
            checks.check_charpoly_exact(coef, case.spectrum)
            checks.check_eigenpairs(x, *_pairs_arrays(pairs), case.spectrum, tol=1e-10)
            checks.check_canonical(x[:, 0, 0], canon[1].value, canon[0].components)
            _check_similarity(case, case.spectrum, calls)
            entries = [x[:, i, j] for i in range(self.N) for j in range(self.N)]
            for e, f, ef in zip(entries, entries[1:] + entries[:1], prods):
                checks.check_scalar_product(e, f, ef.components)
            for e, e_inv in zip(entries, invs):
                if e_inv is not None:
                    checks.check_scalar_inverse(e, e_inv.components)
            for e, (form, case_) in zip(entries, forms):
                checks.check_canonical(e, case_.value, form.components)


WORKLOADS = {"dense": Dense, "spectral": Spectral, "cli": Cli, "small": Small}
