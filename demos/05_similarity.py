#!/usr/bin/env python3
# Similarity over the biquaternions reduces to similarity of block
# representations over the complex numbers (equal Jordan fingerprints).

import numpy as np

from biquat import (
    E1,
    E2,
    BqMatrix,
    clinalg,
    diagonalizable,
    sampling,
    similar,
    similar_to_complex,
)

rng = np.random.default_rng(11)

print("e1 and e2 are similar scalars (both block images have spectrum {i, -i}):")
print("  similar([e1], [e2]) =",
      similar(BqMatrix.from_entries([[E1]]), BqMatrix.from_entries([[E2]])))

# A known answer: A = P from_complex(J) P^-1 for a prescribed Jordan form J,
# with P a Gaussian-integer matrix whose inverse is exact, so A is exact too.
A, _, _, J = sampling.known_answer(rng, [(2 + 1j, 2), (2 + 1j, 1), (-1, 1)])
Q, Q_inv = sampling.unimodular(rng, 4)
print("\nA with J = J2(2+i) + J1(2+i) + J1(-1):\n", J)
print("A vs its conjugate Q A Q^-1:", similar(A, Q @ A @ Q_inv))
print("A vs A + I (shifted spectrum):", similar(A, A + BqMatrix.identity(4)))

# The block representation doubles every Jordan block of J, so its
# cumulative nullities at 2+i are (4, 6): four blocks, two of size 2.
print("\nJordan fingerprint of the block representation of A:")
for lam, weyr in clinalg.jordan_fingerprint(A.block_repr()).clusters:
    print(f"  eigenvalue {lam:+.4f}: Weyr sequence {weyr}")

print("\n-- diagonalizability over the algebra -----------------------------")
D = BqMatrix.diag([sampling.integer_biquaternion(rng) for _ in range(3)])
P = sampling.invertible_integer_matrix(rng, 3)
print("conjugated diagonal matrix:", diagonalizable(P.inverse() @ D @ P))

# A size-3 Jordan block in the interleaved representation is an obstruction:
# 2x2 entry images can only absorb blocks of size up to 2.
M = np.diag([2.0, 2.0, 2.0, 5.0]).astype(complex)
M[0, 1] = M[1, 2] = 1.0
J3 = BqMatrix.from_interleaved_repr(M)
print("preimage of a size-3 Jordan block:", diagonalizable(J3))

print("\n-- similarity to a complex matrix ---------------------------------")
# happens exactly when the block representation's Jordan structure is doubled
C = BqMatrix.from_complex(sampling.integer_components(rng, (2, 2)))
ok, J = similar_to_complex(C)
print("embedded complex matrix:", ok)
print("  Jordan-form witness:\n", J)

ok, _ = similar_to_complex(BqMatrix.from_entries([[E1]]))
print("[e1] (spectrum {i, -i} is not doubled):", ok)

ok, J = similar_to_complex(BqMatrix.diag([E1, -E1]))
print("diag(e1, -e1) (doubled spectrum):", ok, " with witness diag", np.diag(J))
