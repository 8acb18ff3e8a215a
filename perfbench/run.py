"""Benchmark of cuspkit, driven from outside like a researcher using its API and CLI.

Run from the repository root::

    python3 perfbench/run.py --workload profile --seed 1 --seconds 35 --trace 0

One process, one thread, a closed loop with a single client: each operation
is timed on its own and starts when the one before has returned.  Workloads
(``profile``, ``synthesis``, ``invariants``) are described in
``workloads.py``; every operation's output is checked against a closed-form
reference from ``references.py``.

``--trace 0`` measures for ``--seconds`` seconds (whole blocks, at least
MIN_OPS operations) and reports the end-to-end metrics.  Times are wall
times rescaled to a reference host speed by ``calibration.py``: a fixed
kernel (KERNELS) runs before every operation, and the ``mixed`` kernel
after every set-up; each time is multiplied by REF_KERNEL_S over the median
kernel time of its block or set-up.  This cancels most of the drift of a
shared host's speed; the raw figures are in the details line.

* ``setup_s``: median over SETUP_REPEATS fresh imports of cuspkit, each
  followed by building the first block of seeded inputs and one warm-up call
  of each operation kind;
* ``ops_per_s``: operations per second of operation time;
* ``latency_p50_ms``, ``latency_p90_ms``: per-operation time;
* ``peak_rss_mb``: peak resident memory of the process after the timed loop;
* ``failed_frac``: failed / attempted.  An operation fails if it raises, if
  it misses its reference, or, for an out-of-domain probe, if it does not
  raise ``ValueError``.  Probes and a known defect make this nonzero today.

``--trace 1`` runs the first TRACE_BLOCKS blocks of the seed twice, untraced
and then traced, and reports the per-layer metrics of ``tracer.py``; the
counts repeat exactly for a seed.  Its ``attempted`` and ``failed`` cover
both passes.

Both modes run ``cuspkit.verification.run_all()`` once, after the measured
part.  The last line of standard output is the result object; the line
before it holds details (versions, CPU count, per-kind tallies, verify
errors, absent trace targets).  ``correct`` is false when an operation
misses its reference for a reason no known defect explains (see
``workloads.py``); known defects count in ``failed`` only.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import FAIL, PASS, WORKLOADS  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 9
SETUP_KERNELS = 25  # kernel calls after each set-up, for its speed factor
# The calibration kernel of each workload: profile is vectorized numpy over
# whole grids, the others are interpreter loops over small vectors and jets.
KERNELS = {"profile": calibration.vectorized, "synthesis": calibration.mixed,
           "invariants": calibration.mixed}
MIN_OPS = 100
TRACE_BLOCKS = {"profile": 1, "synthesis": 2, "invariants": 20}


def load_cuspkit():
    """Import cuspkit afresh from this checkout's ``src`` directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "cuspkit" or n.startswith("cuspkit.")]:
        del sys.modules[name]
    ck = importlib.import_module("cuspkit")
    importlib.import_module("cuspkit.cli")
    if Path(ck.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"cuspkit was imported from {ck.__file__}, not from {SRC}")
    return ck


def set_up(workload: str, seed: int):
    """Import, build the first block and warm up, SETUP_REPEATS times.

    Returns the raw times and the times rescaled by the kernel calls that
    follow each set-up.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ck = load_cuspkit()
        wl = WORKLOADS[workload](seed)
        first = wl.block(0)
        wl.warm_up(ck)
        raw.append(time.perf_counter() - t0)
        kernel_s = statistics.median(
            calibration.time_kernel(calibration.mixed) for _ in range(SETUP_KERNELS)
        )
        scaled.append(raw[-1] * calibration.REF_KERNEL_S / kernel_s)
    return ck, wl, first, raw, scaled


class Tally:
    """Attempts, outcomes and exception types per operation kind."""

    def __init__(self):
        self.by_kind = defaultdict(Counter)
        self.attempted = 0
        self.failed = 0  # FAIL or DEFECT
        self.wrong = 0  # FAIL only: the program is incorrect

    def execute(self, op, ck) -> float:
        out, exc = None, None
        t0 = time.perf_counter()
        try:
            out = op.call(ck)
        except Exception as e:  # an operation that raises is a failure, not a crash
            exc = e
        elapsed = time.perf_counter() - t0
        kind = self.by_kind[op.kind]
        try:
            outcome = op.check(out, exc)
        except Exception as e:  # malformed output: the check itself could not run
            outcome = FAIL
            kind[f"check raised {type(e).__name__}"] += 1
        kind["attempted"] += 1
        kind[outcome] += 1
        if exc is not None:
            kind[f"raised {type(exc).__name__}"] += 1
        self.attempted += 1
        self.failed += outcome != PASS
        self.wrong += outcome == FAIL
        return elapsed


def timed_loop(ck, wl, first, seconds: float, min_ops: int, tally: Tally,
               kernel) -> tuple[list, list, list, int]:
    """Run whole blocks; return raw and rescaled latencies, kernel times and block count."""
    raw, scaled, kernels = [], [], []
    ops, index = first, 0
    start = time.perf_counter()
    while True:
        gc.collect()
        block_raw, block_kernels = [], []
        for op in ops:
            block_kernels.append(calibration.time_kernel(kernel))
            block_raw.append(tally.execute(op, ck))
        factor = calibration.REF_KERNEL_S / statistics.median(block_kernels)
        raw += block_raw
        scaled += [t * factor for t in block_raw]
        kernels += block_kernels
        index += 1
        if time.perf_counter() - start >= seconds and len(raw) >= min_ops:
            return raw, scaled, kernels, index
        ops = wl.block(index)


def timing_metrics(latencies: list) -> dict:
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[8], "ms"),
    }


def traced_passes(ck, wl, first, blocks: int, tally: Tally) -> tuple[tr.Tracer, float]:
    """Run the same blocks untraced, then traced; return the tracer and the overhead."""
    ops = first + [op for b in range(1, blocks) for op in wl.block(b)]
    gc.collect()
    t0 = time.perf_counter()
    for op in ops:
        tally.execute(op, ck)
    untraced = time.perf_counter() - t0
    tracer = tr.Tracer()
    tracer.install()
    try:
        gc.collect()
        t0 = time.perf_counter()
        for op in ops:
            tracer.begin("op." + op.kind)
            try:
                tally.execute(op, ck)
            finally:
                tracer.end()
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return tracer, traced / untraced - 1.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        min_ops: int = MIN_OPS, trace_blocks: int | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result, details)."""
    ck, wl, first, setup_raw, setup_scaled = set_up(workload, seed)
    tally = Tally()
    details = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads_pinned": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "setup_s_raw": setup_raw,
        "setup_s_rescaled": setup_scaled,
    }
    if trace:
        blocks = trace_blocks or TRACE_BLOCKS[workload]
        tracer, overhead = traced_passes(ck, wl, first, blocks, tally)
        details.update(blocks=blocks, spans=len(tracer.spans), absent=tracer.absent)
    else:
        raw, latencies, kernels, blocks = timed_loop(ck, wl, first, seconds, min_ops, tally, KERNELS[workload])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        details.update(
            blocks=blocks,
            operations=len(latencies),
            kernel_s_median=statistics.median(kernels),
            raw={k: v for k, (v, _) in timing_metrics(raw).items()},
        )

    t0 = time.perf_counter()
    report = ck.verification.run_all()
    verify_s = time.perf_counter() - t0
    details["verification"] = {
        "passed": report["passed"],
        "errors": {c["name"]: c["error"] for c in report["checks"]},
    }
    details["operations_by_kind"] = {k: dict(v) for k, v in sorted(tally.by_kind.items())}

    if trace:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in tr.layer_metrics(tracer, report, verify_s, overhead).items()
        }
    else:
        values = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            **timing_metrics(latencies),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "failed_frac": (tally.failed / tally.attempted, "ratio"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_cuspkit()
    except ImportError as exc:
        print(f"perfbench: cannot import cuspkit from {SRC}: {exc}", file=sys.stderr)
        return 2
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
