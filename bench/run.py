"""coslam benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload verify-default --seed 1 --seconds 20 --trace 0

Workloads: verify-default, closed-form-scan, quadrature-oracles (see
bench/README.md).  Run from the root of a checkout; the program is imported
from `src/`.  Each workload runs in its own fresh interpreter
(bench/child.py) with one BLAS thread; set-up is timed from spawning that
interpreter until it has imported coslam and built its inputs, over several
fresh interpreters.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The lines before it list every metric with its
unit and sample count, the machine, the output fingerprint and any failure.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify-default", "closed-form-scan", "quadrature-oracles")
SETUP_RUNS = 5  # fresh interpreters timed for setup_s; the last one runs the workload
CHILD_TIMEOUT_S = 170


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("COSLAM_WORKERS", None)
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args, workers, setup_only):
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workers", str(workers)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"workload process failed (exit {proc.returncode})")
    return setup_s, rest


def _metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(raw, setup):
    walls = raw["walls"]
    lat_ms = [1e3 * x for x in raw["latencies"]]
    wall = statistics.median(walls)
    return {
        "setup_s": _metric(statistics.median(setup), "s", len(setup)),
        "wall_s": _metric(wall, "s", len(walls)),
        "op_p50_ms": _metric(statistics.median(lat_ms), "ms", len(lat_ms)),
        "op_p95_ms": _metric(statistics.quantiles(lat_ms, n=20, method="inclusive")[-1],
                             "ms", len(lat_ms)),
        "values_per_s": _metric(raw["values_per_pass"] / wall, "1/s", len(walls)),
        "peak_rss_mb": _metric(raw["peak_rss_mb"], "MB", 1),
    }


def per_layer(raw):
    metrics = {name: _metric(value, unit, len(raw["traced_walls"]))
               for name, (value, unit) in raw["layers"].items()}
    untraced = statistics.median(raw["walls"])
    traced = statistics.median(raw["traced_walls"])
    metrics["trace.untraced_wall_s"] = _metric(untraced, "s", len(raw["walls"]))
    metrics["trace.traced_wall_s"] = _metric(traced, "s", len(raw["traced_walls"]))
    metrics["trace.overhead"] = _metric(traced / untraced, "ratio", len(raw["traced_walls"]))
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few ops per workload, for the smoke test")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (ROOT / "src" / "coslam" / "__init__.py").is_file():
        print(f"error: coslam sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = os.cpu_count() or 1
    workers = min(2, nproc)
    setup = []
    try:
        for i in range(SETUP_RUNS):
            setup_s, out = _spawn(args, workers, setup_only=i < SETUP_RUNS - 1)
            setup.append(setup_s)
        raw = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = per_layer(raw) if args.trace else end_to_end(raw, setup)
    machine = {
        "nproc": nproc,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        **raw["machine"],
        "workload": args.workload,
        "seed": args.seed,
        "workers": workers,
        "size": args.size,
    }
    fail_ratio = raw["failed"] / raw["attempted"]
    for name, m in metrics.items():
        print(f"{args.workload:20s} {name:52s} {m['value']:16.6g} {m['unit']:12s} n={m['samples']}")
    print(f"{args.workload:20s} {'fail_ratio':52s} {fail_ratio:16.6g} {'ratio':12s} "
          f"n={raw['attempted']} (failed {raw['failed']})")
    for reason in raw["failures"]:
        print(f"FAILED: {reason}")
    print(json.dumps({"machine": machine, "fingerprint": raw["fingerprint"],
                      "passes": len(raw["walls"]) + len(raw["traced_walls"]),
                      "ops_per_pass": raw["ops_per_pass"], "fail_ratio": fail_ratio,
                      "setup_samples_s": setup}))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
