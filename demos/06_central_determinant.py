#!/usr/bin/env python3
"""The central determinant: det of the block representation.

It is multiplicative, detects invertibility, doubles the ordinary
determinant on embedded complex matrices, and reduces to products of weak
norms on triangular matrices.  The scaling law under quaternion scalars is
measured empirically rather than asserted: the exponent is n.  The
triangular product, the Cayley-Hamilton residual and the exponent probe are
the law helpers of ``biquat.verify``, which checks these theorems.
"""

import numpy as np

from biquat import (
    E1,
    E2,
    Biquaternion,
    BqMatrix,
    central_charpoly,
    central_det,
    sampling,
)
from biquat.verify import (
    cayley_hamilton_residual,
    charpoly_coefficient_scale,
    scaling_exponent_probe,
    triangular_central_det,
)

rng = np.random.default_rng(21)

print("basic values:")
print("  |I3|_c      =", central_det(BqMatrix.identity(3)))
print("  |[e1]|_c    =", central_det(BqMatrix.from_entries([[E1]])),
      " (equals the weak norm of e1 at size 1)")

C = sampling.integer_components(rng, (3, 3))
print("  |embed(C)|_c == det(C)^2:",
      abs(central_det(BqMatrix.from_complex(C)) - np.linalg.det(C) ** 2) < 1e-6)

A = sampling.integer_matrix(rng, 3, 3)
B = sampling.integer_matrix(rng, 3, 3)
lhs, rhs = central_det(A @ B), central_det(A) * central_det(B)
print(f"  multiplicativity gap: {abs(lhs - rhs) / abs(rhs):.2e} (relative)")

print("\ntriangular matrices: product of diagonal weak norms")
T = BqMatrix.diag([E1, E2, Biquaternion(1, 1j)])
print("  diag(e1, e2, 1+i e1):", triangular_central_det(T),
      " (the zero divisor on the diagonal kills it)")

print("\ncentral characteristic polynomial (degree 2n) and Cayley-Hamilton:")
p = central_charpoly(BqMatrix.from_entries([[E1]]))
print("  p(lambda) for [e1]:", p.coef, " i.e. lambda^2 + 1, and e1^2 + 1 = 0")
res = cayley_hamilton_residual(A)
print(f"  p_A(A) residual for a random 3x3: {res:.2e} "
      f"(coefficient scale {charpoly_coefficient_scale(A):.2e})")

print("\nscaling law, measured not assumed:")
for n in (1, 2, 3):
    M = sampling.invertible_integer_matrix(rng, n)
    mu = sampling.invertible_integer_scalar(rng)
    k = scaling_exponent_probe(M, mu)
    print(f"  n = {n}: |mu A|_c / |A|_c = weak_norm(mu)^k with measured k = {k}")
print("  (consistent with the complex case: weak_norm(lam) = lam^2 gives lam^(2n))")
