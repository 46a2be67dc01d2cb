"""Canonical text file format for biquaternion matrices.

A matrix document is JSON with three fields::

    {
      "rows": m,
      "cols": n,
      "entries": [[[re, im], [re, im], [re, im], [re, im]], ...]
    }

``entries`` is row-major, one 4-tuple of complex components per entry, each
complex number a two-element ``[re, im]`` list of decimal floats.  Floats
are written with ``repr``-style shortest round-trip decimals, so any value
representable in double precision survives a save/load cycle bit-exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .matrix import BqMatrix

# One entry of ``json.dumps(to_document(a), indent=1)``: four [re, im] pairs
# at the nesting depth of the ``entries`` list.
_ENTRY = "  [\n" + ",\n".join(["   [\n    %s,\n    %s\n   ]"] * 4) + "\n  ]"


def _entry_array(a: BqMatrix) -> np.ndarray:
    """Row-major ``(rows*cols, 4, 2)`` float array of ``[re, im]`` pairs."""
    z = a.components.reshape(4, -1).T
    return np.stack([z.real, z.imag], axis=-1)


def to_document(a: BqMatrix) -> dict:
    return {"rows": a.rows, "cols": a.cols, "entries": _entry_array(a).tolist()}


def _bad_entry(entries, cols: int) -> str:
    # The slow path names the first entry that is not four finite pairs.
    for k, raw in enumerate(entries):
        try:
            pairs = np.asarray(raw, dtype=float)
        except (TypeError, ValueError):
            pairs = None
        if pairs is None or pairs.shape != (4, 2):
            return f"entry {divmod(k, cols)} is not four [re, im] pairs"
        if not np.all(np.isfinite(pairs)):
            return f"entry {divmod(k, cols)} has a component that is not a finite number"
    return "matrix document entries are not a list of four [re, im] pairs"


def from_document(doc: dict) -> BqMatrix:
    try:
        rows, cols = doc["rows"], doc["cols"]
        entries = doc["entries"]
        count = len(entries)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix document: {exc}") from exc
    if type(rows) is not int or type(cols) is not int:  # JSON integers: not 1.9, "1" or true
        raise ValueError(f"matrix document dimensions are not integers: {rows!r}, {cols!r}")
    if rows < 0 or cols < 0:
        raise ValueError("matrix document has negative dimensions")
    if count != rows * cols:
        raise ValueError(f"matrix document has {count} entries, expected {rows * cols}")
    if count == 0:
        return BqMatrix.zeros(rows, cols)
    try:
        raw = np.asarray(entries, dtype=float)
    except (TypeError, ValueError):
        raw = None
    if raw is None or raw.shape != (count, 4, 2) or not np.all(np.isfinite(raw)):
        raise ValueError(_bad_entry(entries, cols))
    return BqMatrix((raw[..., 0] + 1j * raw[..., 1]).T.reshape(4, rows, cols))


def dumps(a: BqMatrix) -> str:
    """The text of ``json.dumps(to_document(a), indent=1)``, byte for byte,
    filled from one template with ``float.__repr__`` as ``json`` does."""
    flat = _entry_array(a).ravel().tolist()
    body = ",\n".join([_ENTRY] * (len(flat) // 8)) % tuple(map(float.__repr__, flat))
    entries = f"[\n{body}\n ]" if flat else "[]"
    return f'{{\n "rows": {a.rows},\n "cols": {a.cols},\n "entries": {entries}\n}}'


def loads(text: str) -> BqMatrix:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in matrix document: {exc}") from exc
    return from_document(doc)


def load_matrix(path: str) -> BqMatrix:
    with open(path) as handle:
        return loads(handle.read())
