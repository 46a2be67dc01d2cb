import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import biquat
from biquat import E1, E2, Biquaternion, BqMatrix, clinalg, io, sampling
from biquat.cli import main
from conftest import merged_cluster_matrix, split_cluster_matrix


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
    @pytest.mark.parametrize("verb, documents", [("similar", 2), ("diagonalizable", 1), ("similar-to-complex", 1)])
    def test_one_fingerprint_per_matrix(self, capsys, write_doc, monkeypatch, verb, documents):
        # the verdict and the printed fingerprints come from one computation
        fingerprints = []
        fingerprint = clinalg.jordan_fingerprint

        def counted_fingerprint(*args, **kwargs):
            fingerprints.append(args)
            return fingerprint(*args, **kwargs)

        monkeypatch.setattr(clinalg, "jordan_fingerprint", counted_fingerprint)
        paths = [write_doc(BqMatrix.diag([E1, -E1])) for _ in range(documents)]
        code, out, _ = run_cli(capsys, verb, *paths)
        assert code == 0 and "fingerprint" in out
        assert len(fingerprints) == documents


class TestExitCodes:
    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run_cli(capsys, "rank", str(bad))
        assert code == 1
        assert "parse" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"rows": 1, "cols": 1, "entries": [5]}',
            '{"rows": 1, "cols": 1, "entries": [[[null, 0], [0, 0], [0, 0], [0, 0]]]}',
        ],
    )
    def test_malformed_document_is_a_parse_error(self, capsys, monkeypatch, text):
        import io as _stdio

        monkeypatch.setattr("sys.stdin", _stdio.StringIO(text))
        code, _, err = run_cli(capsys, "inv", "-")
        assert code == 1
        assert err.startswith("error: parse: inv: entry (0, 0)")

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
            ("diagonalizable", BqMatrix.from_complex(np.eye(3) + np.diag([1.0, 1.0], 1)) * 1e160),
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


class TestStartup:
    def test_import_leaves_out_scipy_optimize(self):
        # only the similarity verb needs scipy.optimize; the others should
        # not pay for importing it
        src = os.path.dirname(os.path.dirname(biquat.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, biquat; print('scipy.optimize' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "False"

    def test_import_leaves_out_scipy(self):
        # scipy serves Schur forms and cluster pairing, loaded on first use
        src = os.path.dirname(os.path.dirname(biquat.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, biquat; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "False"


class TestVerifyCommand:
    def test_deterministic_and_passing(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "--seed", "7", "--trials", "3", "--size", "2")
        code2, out2, _ = run_cli(capsys, "verify", "--seed", "7", "--trials", "3", "--size", "2")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "result: PASS" in out1
