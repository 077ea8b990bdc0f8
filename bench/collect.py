"""Run the benchmark over many seeds and summarise the spread of each metric.

    python3 bench/collect.py --seeds 1-10 [--workloads verify-default,...]
                             [--sets 2] [--trace-seed 0] [--out FILE]

For every workload and seed it runs `bench/run.py` with tracing off, as
BENCHMARK.json's command does; with --sets 2 it repeats the whole sweep.
Per set and end-to-end metric it reports the median and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, and checks it against the metric's bound in
BENCHMARK.json: the spread (setup_s excepted) must stay within the bound
and each later set's median may not be worse than the first set's by more
than the bound.  With --trace-seed it also makes one traced run per
workload.  Results, fingerprints and the machine go to --out as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    details, result = json.loads(out[-2]), json.loads(out[-1])
    return {"seed": seed, **result, "fingerprint": details["fingerprint"],
            "passes": details["passes"], "machine": details["machine"]}


def _summary(runs):
    out = {}
    for spec in SPEC["end_to_end"]:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[spec["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                             "bound": spec["bound"]}
    return out


def _worse(spec, first, later):
    change = (later - first) / first
    return change if spec["better"] == "lower" else -change


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    report = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            runs = [_run(workload, seed, 0) for seed in _seeds(args.seeds)]
            sets.append({"runs": runs, "summary": _summary(runs)})
        entry = {"sets": sets}
        for k, s in enumerate(sets):
            for spec in SPEC["end_to_end"]:
                m = s["summary"][spec["name"]]
                flag = ""
                if spec["name"] != "setup_s" and m["spread"] > spec["bound"]:
                    flag, ok = "  SPREAD ABOVE BOUND", False
                if k:
                    worse = _worse(spec, sets[0]["summary"][spec["name"]]["median"], m["median"])
                    if worse > spec["bound"]:
                        flag, ok = flag + "  MEDIAN WORSE THAN SET 1 BY MORE THAN BOUND", False
                print(f"{workload:20s} set {k + 1} {spec['name']:14s} median {m['median']:12.6g} "
                      f"spread {m['spread']:7.4f} (bound {spec['bound']}){flag}")
        fingerprints = [{r["seed"]: r["fingerprint"] for r in s["runs"]} for s in sets]
        entry["fingerprints_agree"] = all(f == fingerprints[0] for f in fingerprints)
        entry["failed"] = sum(r["failed"] for s in sets for r in s["runs"])
        entry["attempted"] = sum(r["attempted"] for s in sets for r in s["runs"])
        ok = ok and entry["fingerprints_agree"]
        print(f"{workload:20s} fingerprints agree across sets: {entry['fingerprints_agree']}; "
              f"failed {entry['failed']} of {entry['attempted']} ops")
        if args.trace_seed is not None:
            entry["traced"] = _run(workload, args.trace_seed, 1)
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
