"""The tracer wraps biquat from outside, records nested spans and restores
every function it replaced; the per-layer metrics follow from the spans.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import biquat  # noqa: E402
from spans import PER_LAYER, Tracer, layer_metrics  # noqa: E402


def test_install_traces_nested_calls_and_uninstall_restores():
    before = (biquat.similar, biquat.clinalg.rank, biquat.BqMatrix.__matmul__, biquat.spectral.clinalg)
    a = biquat.BqMatrix(np.arange(16, dtype=complex).reshape(4, 2, 2))
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("op"):
            biquat.similar(a, a)
            a @ a
    finally:
        tracer.uninstall()
    assert (biquat.similar, biquat.clinalg.rank, biquat.BqMatrix.__matmul__, biquat.spectral.clinalg) == before
    names = [s[0] for s in tracer.spans]
    assert names[0] == "op" and "spectral.similar" in names and "matrix.BqMatrix.__matmul__" in names
    by_name = {s[0]: i for i, s in enumerate(tracer.spans)}
    fingerprint = tracer.spans[by_name["clinalg.jordan_fingerprint"]]
    assert tracer.spans[fingerprint[3]][0] == "spectral.similar"  # parent link
    assert all(start <= end for _, start, end, _, _ in tracer.spans)


def test_layer_metrics_self_time_and_counts():
    spans = [
        ["op", 0.0, 1.0, -1, 0],
        ["spectral.similar", 0.1, 0.9, 0, 0],
        ["clinalg.jordan_fingerprint", 0.2, 0.6, 1, 0],
        ["clinalg.cluster_eigenvalues", 0.2, 0.3, 2, 4],
        ["clinalg.singular_values", 0.3, 0.5, 2, 0],
        ["clinalg.singular_values", 0.6, 0.7, 1, 0],
        ["scalar.Biquaternion.__init__", 0.7, 0.8, 1, 0],
    ]
    m = layer_metrics(spans, untraced_ms=100.0, traced_ms=110.0)
    assert set(m) == set(PER_LAYER)
    assert m["clinalg.svd_calls"] == 2 and m["clinalg.clusters"] == 4
    assert m["clinalg.svd_per_cluster"] == 0.25  # only the SVD inside the cluster loop
    assert np.isclose(m["op.untraced_ms"], 200.0)
    assert np.isclose(m["spectral.self_ms"], 200.0)  # 0.8 s minus 0.4 + 0.1 + 0.1 in children
    assert np.isclose(m["spectral.similarity_ms"], 800.0)
    assert m["scalar.created"] == 1 and np.isclose(m["scalar.ms"], 100.0)
    assert np.isclose(m["trace.overhead_pct"], 10.0)
