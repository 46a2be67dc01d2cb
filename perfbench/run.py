"""Benchmark of biquat: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop: one operation at a time from one process, no helper
threads): ``dense``, ``spectral``, ``cli`` and ``small``; see README.md.
Every process this starts gets one BLAS/OpenMP thread and ``src`` on its
import path, so the package is measured from the source tree.

With ``--trace 0`` the run times set-up in fresh interpreters: after one
untimed warm-up process, ``SETUP_PROBES`` probes and the measuring worker
itself, whose median is ``setup_s``.  The worker then measures the
workload for ``--seconds`` and the run reports the end-to-end metrics.  With ``--trace 1`` it reports the per-layer
metrics of a run whose rounds alternate untraced and traced.  Either way
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
say what was measured, and ``perfbench/out/`` keeps the run's output and
any trace.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("dense", "spectral", "cli", "small")
SETUP_PROBES = 2
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
PROBE_TIMEOUT_S = 60
WORKER_GRACE_S = 120
TAIL_BEYOND = 10


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("BIQUAT_TOL", None)  # measure the default tolerance
    return env


def worker_cmd(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra]


def setup_probes(workload: str, seed: int, env) -> list[float]:
    """Seconds from starting a fresh interpreter to the end of its warm-up
    operation, per probe.  A first process that only imports biquat warms
    the file cache (and the bytecode cache of a fresh checkout) and is not
    timed."""
    subprocess.run([sys.executable, "-c", "import biquat"], env=env, cwd=ROOT, check=True,
                   capture_output=True, timeout=PROBE_TIMEOUT_S)
    times = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        proc = subprocess.run(
            worker_cmd(workload, seed, "--probe"),
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["ready"] - started)
    return times


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ``TAIL_BEYOND`` samples
    above it (nearest-rank), capped at 99, and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = max(50, min(99, math.floor(100 * (n - TAIL_BEYOND) / n)))
    return pct, ordered[max(0, math.ceil(pct / 100 * n) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "biquat" / "__init__.py").is_file():
        print(f"error: no biquat package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        setup = [] if args.trace else setup_probes(args.workload, args.seed, env)
        started = time.monotonic()
        proc = subprocess.run(
            worker_cmd(args.workload, args.seed, "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", str(OUT)),
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=args.seconds + WORKER_GRACE_S,
        )
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
        return 1
    run = json.loads(proc.stdout.splitlines()[-1])
    for err in run["errors"]:
        print(f"{args.workload}: {err}", file=sys.stderr)

    samples = run["samples_ms"]
    if args.trace:
        metrics = {
            name: {"value": run["per_layer"][name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
        print(f"{args.workload}: traced run, {run['attempted']} operations, one round in four "
              f"traced; spans in {OUT.name}/trace-{args.workload}-seed{args.seed}.json")
    else:
        pct, tail_ms = tail(samples)
        metrics = {
            "setup_s": {"value": statistics.median([*setup, run["ready"] - started]), "unit": "s"},
            "ops_per_s": {"value": 1e3 * len(samples) / sum(samples), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(samples), "unit": "ms"},
            "latency_tail_ms": {"value": tail_ms, "unit": "ms"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
        print(f"{args.workload}: {len(samples)} operations timed; latency_tail_ms is p{pct} "
              f"with {len(samples) - math.ceil(pct / 100 * len(samples))} of {len(samples)} samples beyond it; "
              f"setup_s is the median of {SETUP_PROBES + 1} fresh processes")
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
