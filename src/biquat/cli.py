"""Command-line interface.

Matrices travel as JSON matrix documents (see :mod:`biquat.io`) read from a
file argument or stdin (``-``).  Complex numbers are printed as ``re+imi``
with 17 significant digits, enough for a bit-exact double round trip.

Exit codes: 0 success, 1 input error (a document that cannot be read or
parsed), 2 dimension error, 3 numerical failure (singular input,
non-convergence, overflow, failed verification), 4 output error (standard
output cannot be written, as on a full device).  Overflow includes a value
that a finite document leads out of the float range: a block representation
cell, an eigenvalue or the matrix scale of the Jordan structure, a Schur
form or an answer.  A closed standard output (the reader stopped early, as
``head`` does) ends the command quietly with 141, the status of a process
that a closed pipe ends; what the reader took is unchanged.

Every verb decides with the library's fixed thresholds: the rank rule
``clinalg.DEFAULT_TOL`` and the eigenvalue cluster rule ``clinalg.CLUSTER_TOL``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import io
from .determinant import central_charpoly, central_det
from .errors import BiquatError, DimensionError
from .matrix import BqMatrix
from .scalar import format_biquaternion, format_complex, parse_biquaternion
from .spectral import (
    diagonalizable,
    jordan_structure,
    regular_right_eigenpair,
    right_eigenpairs,
    similar,
    similar_to_complex,
)

DIGITS = 17
OUTPUT_ERROR = 4
CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a process a closed pipe ended


def _print_cmatrix(m: np.ndarray) -> None:
    for row in m:
        print(" ".join(format_complex(z, DIGITS) for z in row))


def _load(path: str) -> BqMatrix:
    # Only reading the input is an input error; an OSError elsewhere is not.
    try:
        if path == "-":
            return io.loads(sys.stdin.read())
        return io.load_matrix(path)
    except OSError as exc:
        raise ValueError(str(exc)) from exc


def cmd_repr(args) -> int:
    a = _load(args.matrix)
    _print_cmatrix(a.interleaved_repr() if args.small else a.block_repr())
    return 0


def cmd_inv(args) -> int:
    print(io.dumps(_load(args.matrix).inverse()))
    return 0


def cmd_pinv(args) -> int:
    print(io.dumps(_load(args.matrix).pinv()))
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


def _print_fingerprint(label: str, a: BqMatrix) -> None:
    # Printing the tolerance-based structure lets users audit borderline verdicts;
    # it was read before the verdict, so jordan_structure returns that value.
    print(f"fingerprint {label}:")
    for lam, weyr in jordan_structure(a).clusters:
        print(f"  eigenvalue {format_complex(lam, DIGITS)}  weyr {','.join(map(str, weyr))}")


def cmd_similar(args) -> int:
    a, b = _load(args.matrix_a), _load(args.matrix_b)
    # Fingerprints first: a refused operand ends the command before any output.
    jordan_structure(a), jordan_structure(b)
    print("similar" if similar(a, b) else "not similar")
    _print_fingerprint("A", a)
    _print_fingerprint("B", b)
    return 0


def cmd_diagonalizable(args) -> int:
    a = _load(args.matrix)
    print("diagonalizable" if diagonalizable(a) else "not diagonalizable")
    _print_fingerprint("block representation", a)
    return 0


def cmd_similar_to_complex(args) -> int:
    a = _load(args.matrix)
    verdict, j = similar_to_complex(a)
    if not verdict:
        print("not similar to a complex matrix")
    else:
        print("similar to a complex matrix; Jordan-form witness:")
        _print_cmatrix(j)
    _print_fingerprint("block representation", a)
    return 0


def cmd_verify(args) -> int:
    from .verify import verify_suite  # loaded only by this verb
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
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except OSError as exc:  # writing: _load turns a failed read into ValueError
        # Point stdout at the null device, so that the flush at exit cannot
        # fail again and print a traceback.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError, AttributeError):  # a stdout without a descriptor
            pass
        if isinstance(exc, BrokenPipeError):
            return CLOSED_STDOUT
        print(f"error: output: {args.command}: {exc}", file=sys.stderr)
        return OUTPUT_ERROR
    except DimensionError as exc:
        print(f"error: dimension: {args.command}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: parse: {args.command}: {exc}", file=sys.stderr)
        return 1
    except (BiquatError, ArithmeticError) as exc:
        print(f"error: numerical: {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
