import json
import re

import numpy as np
import pytest

from biquat import BqMatrix, io, sampling


class TestRoundTrip:
    def test_bit_exact(self, rng):
        for _ in range(20):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            a = sampling.unit_matrix(rng, m, n)
            back = io.loads(io.dumps(a))
            assert back == a  # exact componentwise equality

    def test_awkward_values_survive(self):
        a = BqMatrix([[[1e-300]], [[-0.0]], [[1 / 3]], [[1.7976931348623157e308 / 1e10]]])
        assert io.loads(io.dumps(a)) == a

    def test_file_roundtrip(self, rng, tmp_path):
        a = sampling.integer_matrix(rng, 2, 3)
        path = tmp_path / "m.json"
        path.write_text(io.dumps(a) + "\n")
        assert io.load_matrix(str(path)) == a

    def test_document_shape(self, rng):
        a = sampling.integer_matrix(rng, 2, 3)
        doc = io.to_document(a)
        assert doc["rows"] == 2 and doc["cols"] == 3
        assert len(doc["entries"]) == 6
        assert all(len(e) == 4 for e in doc["entries"])
        assert all(len(pair) == 2 for e in doc["entries"] for pair in e)


class TestDumpsMatchesJson:
    """``dumps`` fills a template; its text is that of the ``json`` module."""

    def test_awkward_values(self):
        awkward = [1e-300, -0.0, 1 / 3, 1.7976931348623157e308, 5e-324, -1e22, 0.1, 2.0**53]
        rng = np.random.default_rng(5)
        c = rng.choice(awkward, (4, 3, 2)) + 1j * rng.choice(awkward, (4, 3, 2))
        a = BqMatrix(c * rng.choice([1, -1], (4, 3, 2)))
        assert io.dumps(a) == json.dumps(io.to_document(a), indent=1)
        assert io.loads(io.dumps(a)) == a

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (2, 0)])
    def test_empty_shapes(self, shape):
        a = BqMatrix.zeros(*shape)
        assert io.dumps(a) == json.dumps(io.to_document(a), indent=1)
        assert io.loads(io.dumps(a)).shape == shape

    def test_entries_match_the_per_entry_loop(self, rng):
        a = sampling.unit_matrix(rng, 3, 4)
        expected = [
            [[c.real, c.imag] for c in a.entry(i, j).components]
            for i in range(a.rows)
            for j in range(a.cols)
        ]
        assert io.to_document(a)["entries"] == expected

    def test_random_shapes(self, rng):
        for _ in range(20):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            a = sampling.unit_matrix(rng, m, n)
            assert io.dumps(a) == json.dumps(io.to_document(a), indent=1)


class TestValidation:
    def test_bad_json(self):
        with pytest.raises(ValueError):
            io.loads("{not json")

    def test_missing_fields(self):
        with pytest.raises(ValueError):
            io.from_document({"rows": 1})

    def test_wrong_entry_count(self):
        with pytest.raises(ValueError):
            io.from_document({"rows": 2, "cols": 2, "entries": [[[0, 0]] * 4]})

    def test_malformed_entry(self):
        with pytest.raises(ValueError):
            io.from_document(
                {"rows": 1, "cols": 1, "entries": [[[0, 0], [0, 0], [0, 0]]]}
            )

    def test_row_major_order(self):
        doc = {
            "rows": 1,
            "cols": 2,
            "entries": [
                [[1, 0], [0, 0], [0, 0], [0, 0]],
                [[2, 0], [0, 0], [0, 0], [0, 0]],
            ],
        }
        a = io.from_document(doc)
        assert a.entry(0, 0).a0 == 1 and a.entry(0, 1).a0 == 2

    def test_json_is_plain(self, rng):
        a = sampling.integer_matrix(rng, 1, 1)
        parsed = json.loads(io.dumps(a))
        assert set(parsed) == {"rows", "cols", "entries"}

    @pytest.mark.parametrize(
        "entries, named",
        [
            ([5], "entry (0, 0) is not four [re, im] pairs"),
            ([[[0, 0]] * 4, [[0, 0]] * 3], "entry (0, 1) is not four [re, im] pairs"),
            ([[[0, 0]] * 4, [[0, 0], [0, [1]], [0, 0], [0, 0]]], "entry (0, 1) is not four [re, im] pairs"),
            ([[[0, 0]] * 4, [[0, 0], [0, {}], [0, 0], [0, 0]]], "entry (0, 1) is not four [re, im] pairs"),
            ([[[0, 0]] * 4, [[0, 0], [0, None], [0, 0], [0, 0]]], "entry (0, 1) has a component that is not a finite number"),
        ],
    )
    def test_bad_entry_is_named(self, entries, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            io.from_document({"rows": 1, "cols": len(entries), "entries": entries})

    @pytest.mark.parametrize("rows", [1.9, True, "1"])
    def test_dimensions_are_json_integers(self, rows):
        entries = [[[1, 0], [0, 1], [0, 0], [0, 0]]]
        with pytest.raises(ValueError, match="dimensions are not integers"):
            io.loads(json.dumps({"rows": rows, "cols": 1, "entries": entries}))

    def test_entries_not_a_list(self):
        with pytest.raises(ValueError):
            io.from_document({"rows": 1, "cols": 1, "entries": 5})
