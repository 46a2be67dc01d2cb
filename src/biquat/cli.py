"""Command-line interface.

Matrices travel as JSON matrix documents (see :mod:`biquat.io`) read from a
file argument or stdin (``-``).  Complex numbers are printed as ``re+imi``
with 17 significant digits, enough for a bit-exact double round trip.

Exit codes: 0 success, 1 input parse error, 2 dimension error, 3 numerical
failure (singular input, non-convergence, overflow, failed verification).

Every verb decides with the library's fixed thresholds: the rank rule
``clinalg.DEFAULT_TOL`` and the eigenvalue cluster rule ``clinalg.CLUSTER_TOL``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io
from .determinant import central_charpoly, central_det
from .errors import BiquatError, DimensionError
from .matrix import BqMatrix
from .scalar import format_biquaternion, format_complex, parse_biquaternion
from .spectral import (
    _diagonalizable,
    _similar,
    _similar_to_complex,
    regular_right_eigenpair,
    right_eigenpairs,
)
from .verify import verify_suite

DIGITS = 17


def _print_cmatrix(m: np.ndarray) -> None:
    for row in m:
        print(" ".join(format_complex(z, DIGITS) for z in row))


def _load(path: str) -> BqMatrix:
    if path == "-":
        return io.loads(sys.stdin.read())
    return io.load_matrix(path)


def _emit(a: BqMatrix) -> None:
    print(io.dumps(a))


def cmd_repr(args) -> int:
    a = _load(args.matrix)
    _print_cmatrix(a.interleaved_repr() if args.small else a.block_repr())
    return 0


def cmd_inv(args) -> int:
    _emit(_load(args.matrix).inverse())
    return 0


def cmd_pinv(args) -> int:
    _emit(_load(args.matrix).pinv())
    return 0


def cmd_rank(args) -> int:
    print(_load(args.matrix).rank())
    return 0


def cmd_det(args) -> int:
    print(format_complex(central_det(_load(args.matrix)), DIGITS))
    return 0


def cmd_charpoly(args) -> int:
    p = central_charpoly(_load(args.matrix))
    for k, c in enumerate(p.coef):
        print(f"lambda^{k}: {format_complex(complex(c), DIGITS)}")
    return 0


def cmd_eig(args) -> int:
    pairs = right_eigenpairs(_load(args.matrix))
    for pair in pairs:
        print(f"lambda = {format_complex(pair.value, DIGITS)}  residual = {pair.residual:.3e}")
        if args.vectors:
            for i in range(pair.vector.rows):
                print(f"  x[{i}] = {format_biquaternion(pair.vector.entry(i, 0), DIGITS)}")
    return 0


def cmd_regular_eig(args) -> int:
    pair = regular_right_eigenpair(_load(args.matrix))
    print(f"lambda = {format_biquaternion(pair.value, DIGITS)}")
    print(f"residual = {pair.residual:.3e}")
    print(f"vector rank = {pair.vector.rank()}")
    for i in range(pair.vector.rows):
        print(f"x[{i}] = {format_biquaternion(pair.vector.entry(i, 0), DIGITS)}")
    return 0


def cmd_canonical(args) -> int:
    if args.text is not None:
        a = parse_biquaternion(args.text)
    else:
        mat = _load(args.matrix)
        if mat.shape != (1, 1):
            raise DimensionError(f"canonical form needs a 1x1 input, got {mat.shape}")
        a = mat.entry(0, 0)
    form, case = a.canonical_form()
    print(f"case: {case.value}")
    print(f"form: {format_biquaternion(form, DIGITS)}")
    return 0


def _print_fingerprint(label: str, fp) -> None:
    # Jordan structure is decided by tolerance clustering; printing it lets
    # users audit borderline verdicts near multiple eigenvalues.
    print(f"fingerprint {label}:")
    for lam, weyr in fp:
        print(f"  eigenvalue {format_complex(lam, DIGITS)}  weyr {','.join(map(str, weyr))}")


def cmd_similar(args) -> int:
    verdict, fa, fb = _similar(_load(args.matrix_a), _load(args.matrix_b))
    print("similar" if verdict else "not similar")
    _print_fingerprint("A", fa)
    _print_fingerprint("B", fb)
    return 0


def cmd_diagonalizable(args) -> int:
    verdict, fp = _diagonalizable(_load(args.matrix))
    print("diagonalizable" if verdict else "not diagonalizable")
    _print_fingerprint("block representation", fp)
    return 0


def cmd_similar_to_complex(args) -> int:
    verdict, j, fp = _similar_to_complex(_load(args.matrix))
    if not verdict:
        print("not similar to a complex matrix")
    else:
        print("similar to a complex matrix; Jordan-form witness:")
        _print_cmatrix(j)
    _print_fingerprint("block representation", fp)
    return 0


def cmd_verify(args) -> int:
    report = verify_suite(seed=args.seed, trials=args.trials, size=args.size)
    sys.stdout.write(report.render())
    return 0 if report.all_passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biquat",
        description="Matrix computations over the complex quaternion algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "matrix", nargs="?", default="-",
            help="matrix document file, or - for stdin (default)",
        )
        p.set_defaults(func=func)
        return p

    p = add("repr", cmd_repr, "print a complex representation")
    p.add_argument("--small", action="store_true",
                   help="entrywise (interleaved) representation instead of the block one")
    add("inv", cmd_inv, "invert a square matrix")
    add("pinv", cmd_pinv, "Moore-Penrose pseudoinverse")
    add("rank", cmd_rank, "half-integer rank")
    add("det", cmd_det, "central determinant")
    add("charpoly", cmd_charpoly, "central characteristic polynomial coefficients")
    p = add("eig", cmd_eig, "complex right eigenpairs")
    p.add_argument("--vectors", action="store_true", help="also print eigenvectors")
    add("regular-eig", cmd_regular_eig, "one regular right eigenpair")
    p = add("canonical", cmd_canonical, "similarity canonical form of a 1x1 matrix")
    p.add_argument("--text", help="parse the element from its text form instead of a document")
    p = sub.add_parser("similar", help="decide similarity of two square matrices")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.set_defaults(func=cmd_similar)
    add("diagonalizable", cmd_diagonalizable, "diagonalizability over the algebra")
    add("similar-to-complex", cmd_similar_to_complex,
        "similarity to a complex matrix, with Jordan-form witness")
    p = sub.add_parser("verify", help="run the randomized law verification suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--size", type=int, default=3)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DimensionError as exc:
        print(f"error: dimension: {args.command}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: parse: {args.command}: {exc}", file=sys.stderr)
        return 1
    except (BiquatError, ArithmeticError) as exc:
        print(f"error: numerical: {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
