"""The workload process that bench/run.py starts in a fresh interpreter.

    python3 bench/child.py --workload NAME --seed N --seconds S --trace 0|1
                           --size full|tiny --workers W [--setup-only]

It imports coslam from the checkout's `src/`, builds the workload's inputs
from the seed and prints `ready`; that is the end of set-up.  With
--setup-only it stops there.  Otherwise it runs passes over the op list
until the next pass would end after S seconds, then checks the outputs and
prints one JSON line of raw results.  Without tracing it runs at least
MIN_PASSES passes, so that wall_s is a median even when one pass takes a
third of the budget; with tracing it alternates untraced and traced passes,
at least one of each.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3


def _blas_info():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "coslam" / "__init__.py").is_file():
        sys.exit(f"coslam sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, args.workers)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    walls = {False: [], True: []}
    latencies = []
    first = None
    digests = None
    differs = None  # per op: later passes whose output differs from the first
    report_bytes = 0
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        t0 = time.perf_counter()
        with tracer.installed() if traced else nullcontext():
            results = wl.run_pass(tracer if traced else None)
        wall = time.perf_counter() - t0
        walls[traced].append(wall)
        if not traced:
            latencies.extend(dt for dt, _, _ in results)
        pass_digests = [hashlib.sha256(data).digest() for _, data, _ in results]
        if first is None:
            first = results
            digests = pass_digests
            differs = [0] * len(results)
            report_bytes = sum(len(data) for _, data, _ in results)
        else:
            # Reports are a pure function of the inputs: an op whose output
            # differs from the first pass fails in that pass.
            for k, (a, b) in enumerate(zip(digests, pass_digests)):
                differs[k] += a != b
        passes = len(walls[False]) + len(walls[True])
        enough = walls[True] if tracer is not None else passes >= MIN_PASSES
        if enough and time.perf_counter() - t_start + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outputs = [out for _, _, out in first]
    reasons, values = wl.check(outputs)
    result = {
        "walls": walls[False],
        "traced_walls": walls[True],
        "latencies": latencies,
        "ops_per_pass": len(wl.ops),
        "attempted": passes * len(wl.ops),
        "failed": workloads.count_failed(reasons, differs, passes),
        "failures": sorted({r for r in reasons if r is not None})[:5],
        "values_per_pass": values,
        "peak_rss_mb": peak_rss_mb,
        "fingerprint": hashlib.sha256(b"".join(data for _, data, _ in first)).hexdigest(),
        "machine": _blas_info(),
    }
    if tracer is not None:
        layers = tracer.layer_metrics(len(walls[True]))
        layers["cli.report_bytes"] = (report_bytes if wl.cli else 0, "bytes")
        result["layers"] = layers
        out_dir = Path.cwd() / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"{args.workload}-seed{args.seed}.npz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
