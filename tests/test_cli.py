import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biquat
from biquat import E1, E2, Biquaternion, BqMatrix, clinalg, io, sampling, spectral
from biquat.cli import CLOSED_STDOUT, DIGITS, OUTPUT_ERROR, main
from biquat.scalar import format_biquaternion, format_complex
from conftest import OVERFLOWING_SPECTRUM, merged_cluster_matrix, split_cluster_matrix, time_bound


@pytest.fixture
def write_doc(tmp_path):
    counter = [0]

    def _write(matrix: BqMatrix) -> str:
        counter[0] += 1
        path = tmp_path / f"m{counter[0]}.json"
        path.write_text(io.dumps(matrix) + "\n")
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def single(entry) -> BqMatrix:
    return BqMatrix.from_entries([[entry]])


class TestRepr:
    def test_block_of_basis_scalar(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "repr", write_doc(single(E1)))
        assert code == 0
        assert out.splitlines() == ["0+1i 0+0i", "0+0i 0-1i"]

    def test_small_flag(self, capsys, write_doc):
        path = write_doc(BqMatrix.from_entries([[E1, E2]]))
        code, out, _ = run_cli(capsys, "repr", "--small", path)
        assert code == 0
        assert out.splitlines() == ["0+1i 0+0i 0+0i -1+0i", "0+0i 0-1i 1+0i 0+0i"]

    def test_stdin(self, capsys, monkeypatch):
        import io as _stdio

        monkeypatch.setattr(
            "sys.stdin", _stdio.StringIO(io.dumps(BqMatrix.identity(1)))
        )
        code, out, _ = run_cli(capsys, "repr")
        assert code == 0
        assert out.splitlines() == ["1+0i 0+0i", "0+0i 1+0i"]


class TestNumericCommands:
    def test_rank_half_integer(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "rank", write_doc(single(Biquaternion(1, 1j))))
        assert code == 0
        assert out.strip() == "1/2"

    def test_det(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "det", write_doc(single(E1)))
        assert code == 0
        assert out.strip() == "1+0i"

    def test_charpoly(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "charpoly", write_doc(single(E1)))
        assert code == 0
        assert out.splitlines() == ["lambda^0: 1+0i", "lambda^1: 0+0i", "lambda^2: 1+0i"]

    def test_inv_roundtrip(self, capsys, write_doc, rng):
        a = sampling.invertible_integer_matrix(rng, 2)
        code, out, _ = run_cli(capsys, "inv", write_doc(a))
        assert code == 0
        inv = io.loads(out)
        assert (a @ inv).allclose(BqMatrix.identity(2), tol=1e-9)

    def test_pinv_output_parses(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "pinv", write_doc(single(Biquaternion(1, 1j))))
        assert code == 0
        x = io.loads(out)
        assert abs(x.entry(0, 0).a0 - 0.25) < 1e-12

    def test_eig(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "eig", "--vectors", write_doc(single(E1)))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("lambda = 0-1i")

    def test_regular_eig(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "regular-eig", write_doc(single(E1)))
        assert code == 0
        assert "vector rank = 1" in out

    def test_regular_eig_of_a_1x1_is_its_entry(self, capsys, tmp_path):
        # X = [1] spans the whole block space: no Schur form, whose eigenvalues
        # +-1.7e308 here once overflowed the lift, and a residual of exactly 0
        entries = [[[0, 1e-310], [0, -0.0], [-1, 0], [-1.7e308, 0]]]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"rows": 1, "cols": 1, "entries": entries}))
        code, out, err = run_cli(capsys, "regular-eig", str(path))
        entry = Biquaternion(*(complex(*c) for c in entries[0]))
        assert code == 0 and not err
        assert out.splitlines() == [
            f"lambda = {format_biquaternion(entry, DIGITS)}",
            "residual = 0.000e+00",
            "vector rank = 1",
            f"x[0] = {format_biquaternion(Biquaternion(1), DIGITS)}",
        ]

    def test_canonical_document(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "canonical", write_doc(single(E2)))
        assert code == 0
        assert "case: generic" in out

    def test_canonical_text(self, capsys):
        text = "(0+0i) + (0+0i)e1 + (1+0i)e2 + (0+1i)e3"
        code, out, _ = run_cli(capsys, "canonical", "--text", text)
        assert code == 0
        assert "case: null" in out

    def test_similar(self, capsys, write_doc):
        pa = write_doc(single(E1))
        pb = write_doc(single(E2))
        code, out, _ = run_cli(capsys, "similar", pa, pb)
        assert code == 0
        assert out.splitlines()[0] == "similar"
        assert "fingerprint A:" in out and "weyr" in out

    def test_not_similar(self, capsys, write_doc):
        pa = write_doc(single(E1))
        pb = write_doc(single(Biquaternion(7)))
        code, out, _ = run_cli(capsys, "similar", pa, pb)
        assert code == 0
        assert out.splitlines()[0] == "not similar"

    def test_diagonalizable(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "diagonalizable", write_doc(BqMatrix.identity(2)))
        assert code == 0
        assert out.splitlines()[0] == "diagonalizable"
        assert "fingerprint" in out

    def test_similar_to_complex(self, capsys, write_doc):
        code, out, _ = run_cli(
            capsys, "similar-to-complex", write_doc(BqMatrix.diag([E1, -E1]))
        )
        assert code == 0
        assert out.startswith("similar to a complex matrix")


class TestSimilarityVerbs:
    @pytest.mark.parametrize(
        "verb, matrices, fingerprints",
        [
            ("similar", [BqMatrix.diag([E1, -E1]), BqMatrix.diag([E1, E1])], 2),
            ("similar", [BqMatrix.diag([E1, -E1])] * 2, 1),
            ("diagonalizable", [BqMatrix.diag([E1, -E1])], 1),
            ("similar-to-complex", [BqMatrix.diag([E1, -E1])], 1),
        ],
        ids=["similar-2", "similar-1", "diagonalizable-1", "similar-to-complex-1"],
    )
    def test_one_fingerprint_per_matrix(self, capsys, write_doc, monkeypatch, verb, matrices, fingerprints):
        # the verdict and the printed fingerprints come from one computation
        # per distinct matrix: equal documents share it
        computed = []
        fingerprint = clinalg.jordan_fingerprint

        def counted_fingerprint(*args, **kwargs):
            computed.append(fingerprint(*args, **kwargs))
            return computed[-1]

        monkeypatch.setattr(clinalg, "jordan_fingerprint", counted_fingerprint)
        paths = [write_doc(m) for m in matrices]
        code, out, _ = run_cli(capsys, verb, *paths)
        assert code == 0 and "fingerprint" in out
        assert len(computed) == fingerprints
        # the printout is the structure each operand's verdict read
        read = computed if len(computed) == len(matrices) else computed * len(matrices)
        expected = [
            f"  eigenvalue {format_complex(lam, DIGITS)}  weyr {','.join(map(str, weyr))}"
            for structure in read
            for lam, weyr in structure.clusters
        ]
        assert [line for line in out.splitlines() if line.startswith("  eigenvalue")] == expected


    @pytest.mark.parametrize(
        "verb, expected",
        [
            ("similar", "similar\nfingerprint A:\nfingerprint B:\n"),
            ("diagonalizable", "diagonalizable\nfingerprint block representation:\n"),
            ("similar-to-complex", "similar to a complex matrix; Jordan-form witness:\nfingerprint block representation:\n"),
            ("rank", "0\n"),
            ("det", "1+0i\n"),
        ],
    )
    def test_empty_document(self, capsys, write_doc, verb, expected):
        paths = [write_doc(BqMatrix.zeros(0, 0))] * (2 if verb == "similar" else 1)
        assert run_cli(capsys, verb, *paths) == (0, expected, "")


class TestExitCodes:
    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run_cli(capsys, "rank", str(bad))
        assert code == 1
        assert "parse" in err

    @pytest.mark.parametrize(
        "text, named",
        [
            pytest.param(text, named, id=text)
            for text, named in [
                ('{"rows": 1, "cols": 1, "entries": [5]}', "entry (0, 0)"),
                ('{"rows": 1, "cols": 1, "entries": [[[null, 0], [0, 0], [0, 0], [0, 0]]]}', "entry (0, 0)"),
                ('{"rows": 1.9, "cols": 1, "entries": [[[1, 0], [0, 1], [0, 0], [0, 0]]]}', "matrix document dimensions"),
                ('{"rows": true, "cols": 1, "entries": [[[1, 0], [0, 1], [0, 0], [0, 0]]]}', "matrix document dimensions"),
                ('{"rows": "1", "cols": 1, "entries": [[[1, 0], [0, 1], [0, 0], [0, 0]]]}', "matrix document dimensions"),
            ]
        ],
    )
    def test_malformed_document_is_a_parse_error(self, capsys, monkeypatch, text, named):
        import io as _stdio

        monkeypatch.setattr("sys.stdin", _stdio.StringIO(text))
        code, _, err = run_cli(capsys, "inv", "-")
        assert code == 1
        assert err.startswith(f"error: parse: inv: {named}")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "rank", "/nonexistent/file.json")
        assert code == 1

    def test_dimension_error(self, capsys, write_doc, rng):
        path = write_doc(sampling.integer_matrix(rng, 2, 3))
        code, _, err = run_cli(capsys, "inv", path)
        assert code == 2
        assert "dimension" in err

    def test_numerical_error(self, capsys, write_doc):
        path = write_doc(single(Biquaternion(1, 1j)))
        code, _, err = run_cli(capsys, "inv", path)
        assert code == 3
        assert "numerical" in err

    def test_overflow_is_numerical(self, capsys):
        # tau = sqrt(2) * 1.5e308 is beyond the largest double.
        text = "(0+0i) + (1.5e308+0i)e1 + (1.5e308+0i)e2 + (0+0i)e3"
        code, _, err = run_cli(capsys, "canonical", "--text", text)
        assert code == 3
        assert err.startswith("error: numerical:")

    def test_inverse_beyond_float_range_is_numerical(self, capsys, write_doc):
        # 1 / 1e-310 exceeds the largest double; the input itself is fine.
        path = write_doc(single(Biquaternion(1e-310)))
        code, _, err = run_cli(capsys, "inv", path)
        assert code == 3
        assert err.startswith("error: numerical: inv:")

    def test_pinv_beyond_float_range_is_numerical(self, capsys, write_doc):
        path = write_doc(single(Biquaternion(1e-310)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "pinv", path)
        assert code == 3
        assert err.startswith("error: numerical: pinv:")
        assert not caught  # no numpy RuntimeWarning either

    def test_det_beyond_float_range_is_numerical(self, capsys, write_doc):
        # the block determinant 1e400 exceeds the largest double
        path = write_doc(single(Biquaternion(1e200)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "det", path)
        assert code == 3
        assert err.startswith("error: numerical: det:")
        assert not caught  # no numpy RuntimeWarning either

    @pytest.mark.parametrize(
        "verb, matrix",
        [
            ("charpoly", single(Biquaternion(1e200))),
        ],
    )
    def test_intermediate_overflow_is_numerical(self, capsys, write_doc, verb, matrix):
        path = write_doc(matrix)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, verb, path)
        assert code == 3
        assert err.startswith(f"error: numerical: {verb}:") and len(err.splitlines()) == 1
        assert not caught  # no numpy RuntimeWarning either

    def test_size_three_block_beyond_1e154_is_answered(self, capsys, write_doc):
        # the powers of its cluster block once overflowed (exit 3)
        path = write_doc(BqMatrix.from_complex(np.eye(3) + np.diag([1.0, 1.0], 1)) * 1e160)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "diagonalizable", path)
        assert code == 0 and not err
        assert out.splitlines()[0] == "not diagonalizable"
        assert not caught  # no numpy RuntimeWarning either

    def test_unresolved_jordan_structure_is_numerical(self, capsys, write_doc):
        code, _, err = run_cli(capsys, "similar-to-complex", write_doc(merged_cluster_matrix()))
        assert code == 3
        assert err.startswith("error: numerical: similar-to-complex:")

    @pytest.mark.parametrize("verb, documents", [("similar", 2), ("diagonalizable", 1)])
    def test_split_cluster_is_numerical(self, capsys, write_doc, verb, documents):
        paths = [write_doc(split_cluster_matrix()) for _ in range(documents)]
        code, out, err = run_cli(capsys, verb, *paths)
        assert code == 3 and not out
        assert err.startswith(f"error: numerical: {verb}: first nullity")

    def test_refused_operand_prints_nothing_whatever_the_traces(self, capsys, write_doc):
        # the traces alone say "not similar", but the fingerprint of the
        # first operand is refused, so the command prints no verdict
        x = split_cluster_matrix()
        code, out, err = run_cli(capsys, "similar", write_doc(x), write_doc(x + BqMatrix.identity(8)))
        assert code == 3 and not out
        assert err.startswith("error: numerical: similar: first nullity")

    @pytest.mark.parametrize("verb, documents", [("diagonalizable", 1), ("similar", 2)])
    def test_overflowing_spectrum_is_numerical(self, capsys, tmp_path, verb, documents):
        path = tmp_path / "spectrum.json"
        path.write_text(OVERFLOWING_SPECTRUM)
        with time_bound(20):
            code, out, err = run_cli(capsys, verb, *[str(path)] * documents)
        assert code == 3 and not out
        assert err.startswith(f"error: numerical: {verb}:") and "float range" in err

    @pytest.mark.parametrize("verb", ["rank", "repr", "repr --small", "inv", "eig"])
    def test_overflowing_block_is_numerical(self, capsys, tmp_path, verb):
        # a zero divisor with a0 = 1e308, a1 = 1e308 i: the document parses,
        # but the block cell a0 - i*a1 = 2e308 does not exist; the
        # interleaved layout is the shuffled block one, so it names that
        path = tmp_path / "zero-divisor.json"
        path.write_text('{"rows": 1, "cols": 1, "entries": [[[1e308, 0], [0, 1e308], [0, 0], [0, 0]]]}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *verb.split(), str(path))
        assert code == 3 and not out
        command = verb.split()[0]
        assert err == f"error: numerical: {command}: the block representation exceeds the float range\n"
        assert not caught  # no numpy RuntimeWarning either

    @pytest.mark.parametrize("verb, driver", [("rank", "svd"), ("pinv", "pinv"), ("inv", "inv")])
    def test_lapack_failure_is_numerical(self, capsys, tmp_path, monkeypatch, verb, driver):
        # LinAlgError is a ValueError, but a driver that fails on a valid
        # invertible document is a numerical failure, not a parse error
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError(f"{driver} did not converge")

        path = tmp_path / "invertible.json"  # 1 + e1, weak norm 2
        path.write_text('{"rows": 1, "cols": 1, "entries": [[[1, 0], [1, 0], [0, 0], [0, 0]]]}')
        monkeypatch.setattr(np.linalg, driver, fail)
        code, out, err = run_cli(capsys, verb, str(path))
        assert code == 3 and not out
        assert err.startswith(f"error: numerical: {verb}:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "verb, entries, what",
        [
            # block eigenvalues +-1.7e308: the complex pairs' residuals overflow,
            # while the regular pair is the entry itself (TestNumericCommands)
            ("eig", [[[0, 1e-310], [0, -0.0], [-1, 0], [-1.7e308, 0]]], "an eigenpair residual"),
            # A @ X overflows in the residual of the pair
            ("eig", [[[1e154, -1.7e308], [0, 0], [0, 0], [0, 0]]], "an eigenpair residual"),
            (
                "regular-eig",
                [
                    [[0, 0]] * 4,
                    [[0, 0], [0, 0], [1e200, 1e200], [0, 0]],
                    [[0, 0], [0, 0], [0, 0], [1e154, 1.7e308]],
                    [[0, 0], [0, 1.7e308], [0, 0], [0, 0]],
                ],
                "an eigenpair residual",
            ),
        ],
    )
    def test_eigenpair_beyond_float_range_is_numerical(self, capsys, tmp_path, verb, entries, what):
        n = 1 if len(entries) == 1 else 2
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"rows": n, "cols": n, "entries": entries}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, verb, str(path))
        assert code == 3 and not out
        assert err == f"error: numerical: {verb}: {what} exceeds the float range\n"
        assert not caught  # no numpy RuntimeWarning either

    def test_io_error_outside_loading_is_not_a_parse_error(self, capsys, write_doc, monkeypatch):
        class Stalled:
            def write(self, text):
                raise TimeoutError("output stalled")

            def flush(self):
                pass

        path = write_doc(single(E1))
        monkeypatch.setattr("sys.stdout", Stalled())
        assert main(["rank", path]) == OUTPUT_ERROR
        assert capsys.readouterr().err == "error: output: rank: output stalled\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_output_device_is_an_output_error(self, write_doc):
        # the write fails with ENOSPC: one line on stderr, nothing at exit
        src = os.path.dirname(os.path.dirname(biquat.__file__))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "biquat.cli", "inv", write_doc(single(E1))],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": src},
            )
        assert proc.returncode == OUTPUT_ERROR
        assert proc.stderr.startswith("error: output: inv: ") and proc.stderr.count("\n") == 1


# Components of the totality documents: both ends of the float range, the
# squares that just fit or just overflow (1e154, 1e155), subnormals.
EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 3.0, 1e200, -1e200, 1e-200, 1e154, 1e155, 1e-310, 5e-324, 1.7e308, -1.7e308]
# Every verb that reads a document, with its flags; verify reads none.
DOCUMENT_VERBS = [
    ["repr"], ["repr", "--small"], ["inv"], ["pinv"], ["rank"], ["det"], ["charpoly"],
    ["eig", "--vectors"], ["regular-eig"], ["canonical"], ["similar"], ["diagonalizable"],
    ["similar-to-complex"],
]
SHAPES = [(1, 1), (1, 1), (2, 2), (2, 2), (3, 3), (3, 3), (1, 2), (3, 2)]


@st.composite
def edge_entries(draw):
    """Four ``[re, im]`` pairs: a zero entry, a zero divisor ``x + i*x*e1`` or
    parts from EDGE_VALUES, with zeros mixed in."""
    kind = draw(st.sampled_from(["zero", "zero divisor", "parts", "parts"]))
    if kind == "zero":
        return [[0.0, 0.0]] * 4
    if kind == "zero divisor":
        x = draw(st.sampled_from(EDGE_VALUES))
        return [[x, 0.0], [0.0, x], [0.0, 0.0], [0.0, 0.0]]
    part = st.one_of(st.just(0.0), st.sampled_from(EDGE_VALUES))
    return [[draw(part), draw(part)] for _ in range(4)]


def edge_document(draw, rows: int, cols: int) -> str:
    entries = [draw(edge_entries()) for _ in range(rows * cols)]
    return json.dumps({"rows": rows, "cols": cols, "entries": entries})


class TestTotality:
    """Every verb on valid documents whose components span the float range
    ends in a documented exit code, prints nothing non-finite on success, one
    ``error:`` line on failure, and no numpy RuntimeWarning."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_verb_is_total(self, tmp_path_factory, data):
        verb = data.draw(st.sampled_from(DOCUMENT_VERBS))
        rows, cols = (1, 1) if verb == ["canonical"] else data.draw(st.sampled_from(SHAPES))
        folder = tmp_path_factory.mktemp("edge")
        paths = []
        for k in range(2 if verb == ["similar"] else 1):
            path = folder / f"m{k}.json"
            path.write_text(edge_document(data.draw, rows, cols))
            paths.append(str(path))
        spectral.jordan_structure.cache_clear()
        out, err = StringIO(), StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            with time_bound(20):
                code = main([*verb, *paths])
        out, err = out.getvalue(), err.getvalue()
        assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code in (0, 2, 3), err
        if code == 0:
            assert "nan" not in out.lower() and "inf" not in out.lower(), out
            assert not err
        else:
            assert err.startswith("error:") and len(err.splitlines()) == 1, err


class TestClosedStdout:
    @staticmethod
    def first_line_then_close(*argv):
        src = os.path.dirname(os.path.dirname(biquat.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "biquat.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        return first.decode(), proc.wait(timeout=60), err

    def test_reader_stopping_early_ends_quietly(self, write_doc, rng):
        # the block of a 40 x 40 matrix prints about 200 kB, more than a pipe
        # holds, so the write after the first line meets the closed pipe
        first, code, err = self.first_line_then_close("repr", write_doc(sampling.unit_matrix(rng, 40, 40)))
        assert first and code == CLOSED_STDOUT
        assert err == ""

    def test_similar_read_by_head(self, write_doc):
        path = write_doc(single(Biquaternion(1, 1j)))
        first, code, err = self.first_line_then_close("similar", path, path)
        assert first == "similar\n" and code in (0, CLOSED_STDOUT)
        assert "parse" not in err and err == ""


class TestStartup:
    def test_import_leaves_out_scipy_optimize(self):
        # no verb needs scipy.optimize, so none should pay for importing it
        src = os.path.dirname(os.path.dirname(biquat.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, biquat; print('scipy.optimize' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "False"

    def test_similarity_verdicts_leave_out_scipy_optimize(self):
        # pairing clusters is a matching search of its own, not scipy's assignment
        src = os.path.dirname(os.path.dirname(biquat.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import sys, biquat\n"
            "from biquat import BqMatrix\n"
            "simple, jordan = BqMatrix.from_complex([[1, 2], [0, 3]]), BqMatrix.from_complex([[1, 1], [0, 1]])\n"
            "assert biquat.similar(simple, BqMatrix.from_complex([[3, 0], [0, 1]]))\n"
            "assert biquat.similar(jordan, jordan)\n"
            "print('scipy.optimize' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "False"

    def test_import_leaves_out_scipy(self):
        # scipy serves Schur forms only, loaded on first use: neither the
        # import nor a similarity verdict nor a regular eigenpair on a simple
        # block spectrum loads it
        src = os.path.dirname(os.path.dirname(biquat.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import sys, biquat\n"
            "from biquat import E1, BqMatrix\n"
            "loaded = lambda: any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
            "print(loaded())\n"
            "a = BqMatrix.diag([E1, 1 + 2 * E1])\n"
            "assert biquat.similar(a, BqMatrix.diag([1 + 2 * E1, E1]))\n"
            "print(loaded())\n"
            "assert biquat.regular_right_eigenpair(a).residual <= 1e-14\n"
            "print(loaded())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.split() == ["False", "False", "False"]

    def test_cli_import_leaves_out_verify(self):
        # only the verify verb loads the law suite and its input generators,
        # and it still runs
        src = os.path.dirname(os.path.dirname(biquat.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import sys\n"
            "import biquat.cli\n"
            "print('biquat.verify' in sys.modules, 'biquat.sampling' in sys.modules,"
            " any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
            "sys.exit(biquat.cli.main(['verify', '--trials', '2', '--size', '2']))"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "False False False"
        assert "result: PASS" in proc.stdout.splitlines()

    def test_import_leaves_out_the_self_check(self):
        # the law suite and its input generators load only when asked for
        src = os.path.dirname(os.path.dirname(biquat.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, biquat; print('biquat.verify' in sys.modules, 'biquat.sampling' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "False False"


class TestVerifyCommand:
    def test_deterministic_and_passing(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "--seed", "7", "--trials", "3", "--size", "2")
        code2, out2, _ = run_cli(capsys, "verify", "--seed", "7", "--trials", "3", "--size", "2")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "result: PASS" in out1

    def test_failed_laws_exit_3_with_the_report(self, capsys, monkeypatch):
        det = clinalg.det
        monkeypatch.setattr(clinalg, "det", lambda m: det(m).conjugate())
        code, out, err = run_cli(capsys, "verify", "--trials", "5")
        assert code == 3 and err == ""
        assert "result: FAIL" in out.splitlines()
        assert any(line.startswith("[FAIL] det.") for line in out.splitlines())
