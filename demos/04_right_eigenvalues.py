#!/usr/bin/env python3
"""Right eigenvalues of biquaternion matrices.

The eigenvalue equation is A X = X lambda with the eigenvalue on the RIGHT
(the algebra is noncommutative, so sides matter).  Complex right eigenvalues
are exactly the eigenvalues of the block representation; on top of those,
every matrix has a "regular" right eigenpair whose eigenvalue is a full
biquaternion and whose eigenvector has rank 1.
"""

import numpy as np

from biquat import (
    E1,
    Biquaternion,
    BqMatrix,
    clinalg,
    derived_complex_eigenvalues,
    regular_right_eigenpair,
    right_eigenpairs,
    sampling,
)

print("== A = [e1]: complex right eigenpairs =============================")
A = BqMatrix.from_entries([[E1]])
for p in right_eigenpairs(A):
    print(f"  lambda = {p.value:+.3f}   X = {p.vector.entry(0, 0)}   "
          f"residual = {p.residual:.1e}")

print("\n== its regular right eigenpair =====================================")
pair = regular_right_eigenpair(A)
print("  lambda =", pair.value)
print("  X      =", pair.vector.entry(0, 0))
print("  eigenvector rank:", pair.vector.rank())
print("  derived complex eigenvalues:", derived_complex_eigenvalues(A, pair))

print("\n== the totally defective 1x1 case ==================================")
# block image [[0, 1], [0, 0]]: one eigenvalue, one eigenvector; the two
# leading Schur vectors still span an invariant subspace, and the regular
# pair is read from them as for any other matrix
D = BqMatrix.from_entries([[Biquaternion(0, 0, -0.5, 0.5j)]])
pair = regular_right_eigenpair(D)
print("  lambda =", pair.value)
print("  residual =", f"{pair.residual:.1e}", "  rank =", str(pair.vector.rank()))
print("  derived:", derived_complex_eigenvalues(D, pair))

print("\n== a random 4x4 ===================================================")
rng = np.random.default_rng(3)
M = sampling.unit_matrix(rng, 4, 4)
pairs = right_eigenpairs(M)
print(f"  {len(pairs)} complex right eigenpairs, worst residual "
      f"{max(p.residual for p in pairs):.2e} at |A| = {M.norm():.2f}")
reg = regular_right_eigenpair(M)
print(f"  regular eigenvalue: {reg.value}")
derived = derived_complex_eigenvalues(M, reg)
spectrum = clinalg.eigvals(M.block_repr())
gaps = [min(abs(d - w) for w in spectrum) for d in derived]
print(f"  derived values sit in the block spectrum within {max(gaps):.2e}")
