"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402


def _bench(root, workload, trace):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {s["name"]: s["unit"] for s in specs}
    printed = {tuple(line.split()[1:4:2]) for line in lines[:-2]}
    for s in specs:
        assert (s["name"], s["unit"]) in printed
    assert ("fail_ratio", "ratio") in printed
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _first_pass(cls):
    wl = cls(0, "tiny", 2)
    outputs = [out for _, _, out in wl.run_pass()]
    assert not any(wl.check(outputs)[0]), "the unmodified outputs must pass"
    return wl, outputs


def _fail_ratio(wl, reasons, passes=3):
    failed = workloads.count_failed(reasons, [0] * len(reasons), passes)
    return failed / (passes * len(wl.ops))


def test_wrong_verify_row_is_counted():
    wl, outputs = _first_pass(workloads.VerifyDefault)
    status, text, err = outputs[0]
    report = json.loads(text)
    row = report["suites"][3]
    row["measured"] = 10.0 * row["tolerance"]  # still claims passed
    outputs[0] = (status, json.dumps(report), err)
    assert _fail_ratio(wl, wl.check(outputs)[0]) == 1 / len(wl.ops)


def test_wrong_closed_form_value_is_counted(monkeypatch):
    monkeypatch.setattr(workloads, "_MP_SAMPLE", 10 ** 9)  # check every cell
    wl, outputs = _first_pass(workloads.ClosedFormScan)
    k = next(i for i, op in enumerate(wl.ops) if op["fmt"] == "json" and op["cmd"] == "cp")
    status, text, err = outputs[k]
    report = json.loads(text)
    cell = next(row["cp"] for row in report["rows"] if row["cp"]["tag"] == "finite")
    cell["re"] *= 1.0 + 1e-9
    outputs[k] = (status, json.dumps(report), err)
    assert _fail_ratio(wl, wl.check(outputs)[0]) == 1 / len(wl.ops)


def test_wrong_oracle_value_is_counted():
    wl, outputs = _first_pass(workloads.QuadratureOracles)
    k = next(i for i, op in enumerate(wl.ops) if op["kind"] == "funk-hecke")
    outputs[k] = outputs[k] * (1.0 + 1e-6)
    assert _fail_ratio(wl, wl.check(outputs)[0]) == 1 / len(wl.ops)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "closed-form-scan", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
