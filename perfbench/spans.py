"""Span tracer for the traced run, wrapped around biquat from outside.

:meth:`Tracer.install` replaces the public functions of each traced module
(and the public and arithmetic methods of ``BqMatrix`` and ``Biquaternion``)
with wrappers that record one span per call: ``[name, start, end, parent,
value]``, with ``parent`` the index of the enclosing span or -1.  Names are
``module.function`` or ``module.Class.method``; the module is the layer.
Names bound elsewhere by ``from .module import name`` are re-bound too, so a
call is traced whichever module makes it.  ``value`` carries a count for the
spans that measure one: clusters returned by ``cluster_eigenvalues`` and
characters read or written by ``io.loads``/``io.dumps``.

Spans stay in memory; :func:`layer_metrics` derives counts, busy and self
times from them, and the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from contextlib import contextmanager

LAYERS = ("matrix", "clinalg", "spectral", "determinant", "io", "scalar", "cli")
# Private names traced too: the per-cluster loop of the spectral module and
# the constructors and operators, which carry the Python glue.
EXTRA = {
    "spectral": {"_eigen_clusters"},
    "BqMatrix": {"__init__", "__getitem__", "__add__", "__sub__", "__neg__", "__matmul__", "__mul__", "__rmul__"},
    "Biquaternion": {
        "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__truediv__",
    },
}
CLASSES = {"matrix": ("BqMatrix",), "scalar": ("Biquaternion",)}
MEASURE = {
    "clinalg.cluster_eigenvalues": lambda args, result: len(result),
    "io.loads": lambda args, result: len(args[0]),
    "io.dumps": lambda args, result: len(result),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1], 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by another process under span ``parent``."""
        offset = len(self.spans)
        for name, start, end, up, value in spans:
            self.spans.append([name, start, end, parent if up < 0 else up + offset, value])

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure = MEASURE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1], 0]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    rec[4] = measure(args, result)
                return result
            finally:
                stack.pop()
                rec[2] = clock()

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, package: str = "biquat") -> None:
        """Wrap the traced modules of ``package``, which must be imported."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    if not attr.startswith("_") or attr in EXTRA.get(layer, ()):
                        wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
                        self._patch(mod, attr, wrapped[obj])
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_") and attr not in EXTRA[cls_name]:
                        continue
                    name = f"{layer}.{cls_name}.{attr}"
                    if isinstance(raw, classmethod):
                        self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                    elif isinstance(raw, staticmethod):
                        self._patch(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
                    elif isinstance(raw, types.FunctionType):
                        self._patch(cls, attr, self.wrap(name, raw))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped and vars(mod)[attr] is obj:
                    self._patch(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


SVD = {"clinalg.svd", "clinalg.singular_values"}
CLUSTER_LOOPS = {"clinalg.jordan_fingerprint", "spectral._eigen_clusters"}
# span name -> (metric counting its calls, metric adding its duration)
SPAN_METRICS = {
    **dict.fromkeys(SVD, ("clinalg.svd_calls", "clinalg.svd_ms")),
    **dict.fromkeys(["clinalg.eig", "clinalg.eigvals"], ("clinalg.eig_calls", "clinalg.eig_ms")),
    "clinalg.jordan_fingerprint": (None, "clinalg.jordan_fingerprint_ms"),
    "clinalg.det": (None, "clinalg.det_ms"),
    "determinant.central_det": (None, "determinant.central_det_ms"),
    "clinalg.charpoly": (None, "clinalg.charpoly_ms"),
    "determinant.central_charpoly": (None, "determinant.central_charpoly_ms"),
    **dict.fromkeys(
        ["matrix.BqMatrix.block_repr", "matrix.BqMatrix.interleaved_repr"],
        ("matrix.lower_calls", "matrix.lower_ms"),
    ),
    **dict.fromkeys(
        ["matrix.BqMatrix.from_block_repr", "matrix.BqMatrix.from_interleaved_repr"],
        ("matrix.lift_calls", "matrix.lift_ms"),
    ),
    **dict.fromkeys(
        ["matrix.BqMatrix.__matmul__", "matrix.BqMatrix.__mul__", "matrix.BqMatrix.__rmul__"],
        ("matrix.matmul_calls", "matrix.matmul_ms"),
    ),
    "matrix.BqMatrix.__init__": ("matrix.created", None),
    "scalar.Biquaternion.__init__": ("scalar.created", None),
    "spectral.regular_right_eigenpair": (None, "spectral.regular_right_eigenpair_ms"),
    **dict.fromkeys(
        ["spectral.similar", "spectral.diagonalizable", "spectral.similar_to_complex"],
        (None, "spectral.similarity_ms"),
    ),
    "io.loads": (None, "io.loads_ms"),
    "io.dumps": (None, "io.dumps_ms"),
    "cli.main": (None, "cli.main_ms"),
    "cli.import": ("imports", "cli.import_ms"),
}
# span name -> metric adding the span's measured value
VALUE_METRICS = {"clinalg.cluster_eigenvalues": "clinalg.clusters", "io.loads": "io.bytes", "io.dumps": "io.bytes"}
# layer -> metric adding the self time of its spans
SELF_METRICS = {"op": "op.untraced_ms", "matrix": "matrix.self_ms", "spectral": "spectral.self_ms"}

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "clinalg.svd_calls": ("count", "lower"),
    "clinalg.svd_ms": ("ms", "lower"),
    "clinalg.clusters": ("count", "lower"),
    "clinalg.svd_per_cluster": ("ratio", "lower"),
    "clinalg.jordan_fingerprint_ms": ("ms", "lower"),
    "clinalg.eig_calls": ("count", "lower"),
    "clinalg.eig_ms": ("ms", "lower"),
    "clinalg.det_ms": ("ms", "lower"),
    "determinant.central_det_ms": ("ms", "lower"),
    "clinalg.charpoly_ms": ("ms", "lower"),
    "determinant.central_charpoly_ms": ("ms", "lower"),
    "matrix.lower_calls": ("count", "lower"),
    "matrix.lower_ms": ("ms", "lower"),
    "matrix.lift_calls": ("count", "lower"),
    "matrix.lift_ms": ("ms", "lower"),
    "matrix.matmul_calls": ("count", "lower"),
    "matrix.matmul_ms": ("ms", "lower"),
    "matrix.created": ("count", "lower"),
    "matrix.self_ms": ("ms", "lower"),
    "spectral.right_eigenpairs_self_ms": ("ms", "lower"),
    "spectral.regular_right_eigenpair_ms": ("ms", "lower"),
    "spectral.similarity_ms": ("ms", "lower"),
    "spectral.self_ms": ("ms", "lower"),
    "io.loads_ms": ("ms", "lower"),
    "io.dumps_ms": ("ms", "lower"),
    "io.bytes": ("count", "lower"),
    "scalar.created": ("count", "lower"),
    "scalar.ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.main_ms": ("ms", "lower"),
    "op.untraced_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def layer_metrics(spans: list[list], untraced_ms: float, traced_ms: float) -> dict[str, float]:
    """Per-layer metrics, each normalised per traced operation (a span named
    ``op``), except ``cli.import_ms``, which is per process.

    A span's self time is its duration minus that of its children.  A
    layer's busy time counts only its outermost spans (those whose parent is
    in another layer), so nested calls are not counted twice.
    ``trace.overhead_pct`` compares the median traced and untraced
    operation times, with the untraced one as base.
    """
    count = len(spans)
    duration = [end - start for _, start, end, _, _ in spans]
    layer = [name.split(".", 1)[0] for name, *_ in spans]
    self_time = duration[:]
    in_loop = [False] * count
    for i, (name, _, _, parent, _) in enumerate(spans):
        in_loop[i] = name in CLUSTER_LOOPS
        if parent >= 0:
            self_time[parent] -= duration[i]
            in_loop[i] = in_loop[i] or in_loop[parent]

    ops = sum(1 for name, *_ in spans if name == "op")
    total: dict[str, float] = {}

    def add(key: str | None, amount: float) -> None:
        if key is not None:
            total[key] = total.get(key, 0.0) + amount

    for i, (name, _, _, parent, value) in enumerate(spans):
        calls, busy = SPAN_METRICS.get(name, (None, None))
        add(calls, 1)
        add(busy, duration[i] * 1e3)
        add(VALUE_METRICS.get(name), value)
        add(SELF_METRICS.get(layer[i]), self_time[i] * 1e3)
        if name in SVD and in_loop[i]:
            add("svd_in_cluster_loops", 1)
        if name == "spectral.right_eigenpairs":
            add("spectral.right_eigenpairs_self_ms", self_time[i] * 1e3)
        if layer[i] == "scalar" and (parent < 0 or layer[parent] != "scalar"):
            add("scalar.ms", duration[i] * 1e3)

    out = {key: total.get(key, 0.0) / max(ops, 1) for key in PER_LAYER}
    clusters = total.get("clinalg.clusters", 0.0)
    out["clinalg.svd_per_cluster"] = total.get("svd_in_cluster_loops", 0.0) / clusters if clusters else 0.0
    out["cli.import_ms"] = total.get("cli.import_ms", 0.0) / max(total.get("imports", 0.0), 1)
    out["trace.overhead_pct"] = 100.0 * (traced_ms - untraced_ms) / untraced_ms
    return out
