"""biquat: matrix theory over the complex quaternion (biquaternion) algebra.

Every question about biquaternion scalars and matrices -- inversion,
pseudoinversion, rank, right eigenvalues, similarity, determinants -- is
lowered to dense complex linear algebra through faithful complex
representations and lifted back.
"""

from . import clinalg, io
from .determinant import central_charpoly, central_det
from .errors import (
    BiquatError,
    ConvergenceError,
    DegenerateWitnessError,
    DimensionError,
    InvalidPairError,
    NotInvertibleError,
)
from .matrix import (
    BqMatrix,
    HalfRank,
    block_diagonal,
    frame_reconstruct,
    recon_frame,
    repr_factor,
    shuffle_permutations,
)
from .scalar import (
    E1,
    E2,
    E3,
    ONE,
    Biquaternion,
    CanonicalCase,
    ScalarFlags,
    format_biquaternion,
    parse_biquaternion,
)
from .spectral import (
    EigenPair,
    RegularEigenPair,
    adjoint_vector,
    derived_complex_eigenvalues,
    diagonalizable,
    regular_right_eigenpair,
    right_eigenpairs,
    similar,
    similar_to_complex,
)

__version__ = "0.1.0"

__all__ = [
    "Biquaternion",
    "BqMatrix",
    "HalfRank",
    "EigenPair",
    "RegularEigenPair",
    "CanonicalCase",
    "ScalarFlags",
    "ONE",
    "E1",
    "E2",
    "E3",
    "BiquatError",
    "DimensionError",
    "NotInvertibleError",
    "DegenerateWitnessError",
    "InvalidPairError",
    "ConvergenceError",
    "adjoint_vector",
    "block_diagonal",
    "central_charpoly",
    "central_det",
    "clinalg",
    "derived_complex_eigenvalues",
    "diagonalizable",
    "format_biquaternion",
    "frame_reconstruct",
    "io",
    "parse_biquaternion",
    "recon_frame",
    "regular_right_eigenpair",
    "repr_factor",
    "right_eigenpairs",
    "shuffle_permutations",
    "similar",
    "similar_to_complex",
]
