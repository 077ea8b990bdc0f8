import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from coslam.cli import main
from coslam.spectral import FieldTag, GrassmannSignature, c_p, eta, omega


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def load_schema():
    with resources.files("coslam").joinpath("schemas/report-v1.json").open() as fh:
        return json.load(fh)


SCHEMA = load_schema()


def check(report):
    jsonschema.validate(report, SCHEMA)


class TestSpectrum:
    def test_zero_row_equals_c_function(self, capsys):
        status, out, _ = run_cli(
            capsys, "spectrum", "--field", "R", "--n", "2", "--p", "1",
            "--lambda", "3.5", "--max-degree", "6",
        )
        assert status == 0
        report = json.loads(out)
        check(report)
        sig = GrassmannSignature(2, 1, FieldTag.REAL)
        row0 = report["rows"][0]
        assert row0["mu"] == [0]
        assert row0["eta"]["tag"] == "finite"
        assert abs(row0["eta"]["re"] - c_p(sig, 3.5).value.real) < 1e-15
        assert abs(row0["eta"]["re"] - 1.0 / 3.0) < 1e-13
        assert row0["nu"] is None  # p != q here
        for row in report["rows"]:
            mu = tuple(row["mu"])
            assert abs(row["omega"] - omega(sig, mu)) < 1e-12
            ev = eta(sig, mu, 3.5)
            if ev.is_finite:
                assert abs(row["eta"]["re"] - ev.value.real) < 1e-14

    def test_split_rank_includes_sine_spectrum(self, capsys):
        status, out, _ = run_cli(
            capsys, "spectrum", "--field", "C", "--n", "3", "--p", "2",
            "--lambda", "5.0,0.5", "--max-degree", "4",
        )
        assert status == 0
        report = json.loads(out)
        check(report)
        for row in report["rows"]:
            assert row["nu"] is not None

    def test_csv_header(self, capsys):
        status, out, _ = run_cli(
            capsys, "spectrum", "--field", "R", "--n", "2", "--p", "1",
            "--lambda", "3.5", "--format", "csv",
        )
        assert status == 0
        header = out.splitlines()[0]
        assert header == ("mu,degree,omega,eta_tag,eta_re,eta_im,eta_order,"
                          "nu_tag,nu_re,nu_im,nu_order")


class TestCp:
    def test_value_one_at_rho(self, capsys):
        status, out, _ = run_cli(
            capsys, "cp", "--field", "C", "--n", "3", "--p", "2", "--lambda", "4",
        )
        assert status == 0
        report = json.loads(out)
        check(report)
        cell = report["rows"][0]["cp"]
        assert cell["tag"] == "finite"
        assert abs(cell["re"] - 1.0) < 1e-13 and abs(cell["im"]) < 1e-13

    def test_grid_with_pole_annotations(self, capsys):
        status, out, _ = run_cli(
            capsys, "cp", "--field", "R", "--n", "3", "--p", "2",
            "--lambda-grid", "1:4:4",
        )
        assert status == 0
        report = json.loads(out)
        check(report)
        tags = [row["cp"]["tag"] for row in report["rows"]]
        assert tags == ["pole", "finite", "finite", "finite"]

    def test_lambda_options_are_exclusive(self, capsys):
        status, _, err = run_cli(
            capsys, "cp", "--field", "R", "--n", "2", "--p", "1",
            "--lambda", "3", "--lambda-grid", "1:2:2",
        )
        assert status == 1
        check(json.loads(err))


class TestPoles:
    def test_listing_contains_known_crossings(self, capsys):
        status, out, _ = run_cli(
            capsys, "poles", "--field", "R", "--n", "2", "--p", "1",
            "--mu", "2", "--re-min", "-4", "--re-max", "6",
        )
        assert status == 0
        report = json.loads(out)
        check(report)
        rows = report["rows"]
        lams = sorted(set(r["lambda_re"] for r in rows))
        # weight-factor crossings on the real axis sit at rho + 2k
        assert 1.5 in lams and 3.5 in lams and 5.5 in lams
        at_35 = [r for r in rows if r["lambda_re"] == 3.5]
        assert all(r["eta"]["tag"] == "finite" for r in at_35)  # removable there
        assert all(lams[i] <= lams[i + 1] for i in range(len(lams) - 1))

    def test_pole_and_cancellation_tags(self, capsys):
        status, out, _ = run_cli(
            capsys, "poles", "--field", "R", "--n", "2", "--p", "1",
            "--re-min", "-2", "--re-max", "1",
        )
        assert status == 0
        rows = json.loads(out)["rows"]
        by_lam = {r["lambda_re"]: r["eta"]["tag"] for r in rows}
        # the kernel factor alone makes lambda = 0.5 a genuine pole, while at
        # lambda = -1.5 the dual factor cancels it
        assert by_lam[0.5] == "pole"
        assert by_lam[-1.5] == "finite"


class TestVerify:
    FAST = ["--suite", "normalization", "--suite", "functional-equation",
            "--suite", "selberg"]

    def test_passing_suites_exit_zero(self, capsys):
        status, out, _ = run_cli(capsys, "verify", *self.FAST, "--seed", "42")
        assert status == 0
        report = json.loads(out)
        check(report)
        assert report["passed"] is True
        assert all(s["passed"] for s in report["suites"])

    def test_reports_are_byte_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", *self.FAST, "--seed", "7", "--output", str(f1)]) == 0
        assert main(["verify", *self.FAST, "--seed", "7", "--output", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_forced_failure_exits_two(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "--suite", "normalization",
            "--tolerance", "normalization=1e-30",
        )
        assert status == 2
        report = json.loads(out)
        check(report)
        assert report["passed"] is False

    def test_unknown_suite_rejected(self, capsys):
        status, _, err = run_cli(capsys, "verify", "--suite", "nope")
        assert status == 1
        check(json.loads(err))

    def test_workers_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("COSLAM_WORKERS", "3")
        status, out, _ = run_cli(capsys, "verify", "--suite", "normalization")
        assert status == 0
        assert json.loads(out)["config"]["workers"] == 3


class TestErrors:
    def test_invalid_signature(self, capsys):
        status, _, err = run_cli(capsys, "spectrum", "--field", "R", "--n", "2",
                                 "--p", "2", "--lambda", "3.5")
        assert status == 1
        report = json.loads(err)
        check(report)
        assert report["error"]["type"] == "invalid-config"

    def test_unparseable_lambda(self, capsys):
        status, _, err = run_cli(capsys, "spectrum", "--field", "R", "--n", "2",
                                 "--p", "1", "--lambda", "abc")
        assert status == 1
        check(json.loads(err))

    def test_bad_flag(self, capsys):
        status, _, err = run_cli(capsys, "spectrum", "--field", "X")
        assert status == 1
        check(json.loads(err))

    def test_bad_mu(self, capsys):
        status, _, err = run_cli(capsys, "poles", "--field", "R", "--n", "3",
                                 "--p", "2", "--mu", "1,0")
        assert status == 1
        check(json.loads(err))


def one_error_object(err):
    lines = err.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    check(report)
    assert report["command"] == "error"
    return report


class TestBoundary:
    def test_non_integer_workers_env(self, capsys, monkeypatch):
        monkeypatch.setenv("COSLAM_WORKERS", "abc")
        status, out, err = run_cli(capsys, "verify", "--suite", "normalization")
        assert status == 1 and out == ""
        assert "COSLAM_WORKERS" in one_error_object(err)["error"]["message"]

    @pytest.mark.parametrize("samples", ["1", "0", "-5"])
    def test_verify_needs_two_samples(self, capsys, samples):
        status, out, err = run_cli(capsys, "verify", "--suite", "mc", "--samples", samples)
        assert status == 1 and out == ""
        one_error_object(err)

    def test_missing_lambda_value(self, capsys):
        status, _, err = run_cli(capsys, "cp", "--lambda")
        assert status == 1
        one_error_object(err)

    def test_negative_complex_lambda_as_separate_argument(self, capsys):
        sig = ["--field", "C", "--n", "3", "--p", "2"]
        status, out, err = run_cli(capsys, "cp", *sig, "--lambda", "-1.5,0")
        assert status == 0 and err == ""
        report = json.loads(out)
        check(report)
        assert report["config"]["lambda"] == {"re": -1.5, "im": 0.0}
        status, glued, _ = run_cli(capsys, "cp", *sig, "--lambda=-1.5,0")
        assert status == 0 and glued == out

    def test_negative_grid_and_range_values(self, capsys):
        status, out, _ = run_cli(capsys, "cp", "--lambda-grid", "-2:1:4", "--lambda-im", "-0.5")
        assert status == 0
        assert [row["lambda"] for row in json.loads(out)["rows"]] == [
            {"re": x, "im": -0.5} for x in (-2.0, -1.0, 0.0, 1.0)]
        status, out, _ = run_cli(capsys, "poles", "--re-min", "-3.5", "--re-max", "-0.5")
        assert status == 0
        assert all(-3.5 <= r["lambda_re"] <= -0.5 for r in json.loads(out)["rows"])


def test_python_dash_m_entry_point(tmp_path):
    src = str(resources.files("coslam").parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, "-m", "coslam", "cp", "--field", "R", "--n", "2", "--p", "1",
         "--lambda", "3.5"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    check(report)
    assert abs(report["rows"][0]["cp"]["re"] - 1.0 / 3.0) < 1e-13
