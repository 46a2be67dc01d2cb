"""The measured process: one workload on one seed.

    worker.py --workload NAME --seed N --probe
    worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR

Both forms import biquat, build the workload's inputs and run one warm-up
operation, and take a ``time.monotonic()`` stamp: the parent times set-up
from its own stamp taken before it started this process.  ``--probe`` then
prints the stamp and exits.  Otherwise the worker runs whole rounds over the
input pool until ``--seconds`` have passed, checks every output, and prints
one JSON line that includes the stamp.

A run lasts at least ``MIN_OPS`` operations, so that ``latency_tail_ms``
has 10 samples beyond the median even when one operation takes over a
second.  With ``--trace 1`` every ``TRACE_EVERY``-th round is traced and the
others are not, so both see the same machine state; every traced operation
is an ``op`` span, the spans are written to
``DIR/trace-<workload>-seed<N>.json`` and the per-layer metrics are computed
from them.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ERRORS_KEPT = 5
MIN_OPS = 20
TRACE_EVERY = 4  # more traced rounds only grow the span list


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import biquat  # noqa: F401  (timed: the import chain is part of set-up)

    import_end = time.perf_counter()
    import checks
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.op(0)
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}), flush=True)
        return 0

    wl.prepare_checks()
    tracer = spans.Tracer()
    if args.workload != "cli":  # there, each operation imports in its own process
        tracer.spans.append(["cli.import", start, import_end, -1, 0])
    samples = {False: [], True: []}  # traced? -> op times in ms
    attempted = failed = wrong = 0
    errors: list[str] = []
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    min_rounds = TRACE_EVERY if args.trace else 1
    while rounds < min_rounds or attempted < MIN_OPS or time.perf_counter() < deadline:
        traced = bool(args.trace and rounds % TRACE_EVERY == TRACE_EVERY - 1)
        if args.workload == "cli":  # the layers run in the child: trace it there
            wl.traced = traced
        elif traced:
            tracer.install()
        for k in range(wl.POOL):
            attempted += 1
            op_span = tracer.open("op") if traced else None
            t0 = time.perf_counter()
            try:
                out = wl.op(k)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                errors.append(f"op {k} raised {type(exc).__name__}: {exc}")
                continue
            finally:
                if traced:
                    tracer.close(op_span)
            samples[traced].append((time.perf_counter() - t0) * 1e3)
            if traced and args.workload == "cli":
                tracer.adopt(json.loads(out[1]), op_span)
            try:
                wl.check(k, out)
            except checks.CheckError as exc:
                wrong += 1
                errors.append(f"op {k} failed its check: {exc}")
        tracer.uninstall()
        rounds += 1

    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result = {
        "ready": ready,
        "samples_ms": samples[False],
        "attempted": attempted,
        "failed": failed,
        "correct": wrong == 0,
        "errors": errors[:ERRORS_KEPT],
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    if args.trace:
        untraced = statistics.median(samples[False])
        traced = statistics.median(samples[True])
        result["per_layer"] = spans.layer_metrics(tracer.spans, untraced, traced)
        args.out.mkdir(parents=True, exist_ok=True)
        names = sorted({s[0] for s in tracer.spans})
        index = {name: i for i, name in enumerate(names)}
        trace = {
            "workload": args.workload,
            "seed": args.seed,
            "fields": ["name", "start_s", "end_s", "parent", "value"],
            "names": names,
            "spans": [[index[s[0]], *s[1:]] for s in tracer.spans],
        }
        (args.out / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
