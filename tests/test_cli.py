import csv
import io
import json
import math
import os
import subprocess
import sys
import types
import warnings
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coslam.cli import main
from coslam import cli, geometry, spectral, transform, verify
from coslam.spectral import (FieldTag, GrassmannSignature, c_p, enumerate_ktypes, eta, ktype,
                             nu, omega)


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

    def test_geometry_row_reads_its_gate(self, monkeypatch):
        row = verify.run_geometry(0)
        assert row["passed"] and row["measured"] == row["tolerance"] == 1e-10
        # an angle gate below the rounding noise (about 1e-16)
        row = verify.run_geometry(0, tol=1e-300)
        assert not row["passed"] and row["measured"] > row["tolerance"]
        # a torus identity off by 1e-6, far above its 1e-12 gate
        torus_point = geometry.torus_point
        monkeypatch.setattr(geometry, "torus_point", lambda sig, t: torus_point(sig, t + 1e-6))
        row = verify.run_geometry(0)
        assert not row["passed"] and row["measured"] > row["tolerance"]

    @pytest.mark.parametrize("suite,module,oracle", [
        ("selberg", transform, "selberg_oracle"),
        ("sphere", transform, "funk_hecke_1d"),
        ("geometry", geometry, "cos_angle"),
    ])
    def test_nan_error_fails_the_row(self, monkeypatch, suite, module, oracle):
        monkeypatch.setattr(module, oracle, lambda *args, **kwargs: float("nan"))
        assert verify.SUITES[suite](0)["passed"] is False

    def test_unknown_suite_rejected(self, capsys):
        status, _, err = run_cli(capsys, "verify", "--suite", "nope")
        assert status == 1
        check(json.loads(err))

    def test_workers_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("COSLAM_WORKERS", "3")
        status, out, _ = run_cli(capsys, "verify", "--suite", "normalization")
        assert status == 0
        assert json.loads(out)["config"]["workers"] == 3


def scaled(fn, factor):
    return lambda *args: types.SimpleNamespace(value=factor * fn(*args).value)


class TestRowRule:
    """A verify row passes exactly when measured <= tolerance; a failed side
    gate or a NaN error reads the largest double, whatever the tolerance."""

    def failing_report(self, capsys, suite, *argv):
        status, out, err = run_cli(capsys, "verify", "--suite", suite, *argv)
        assert status == 2 and err == ""
        report = json.loads(out)
        check(report)
        (row,) = report["suites"]
        assert row["passed"] is False and row["measured"] == sys.float_info.max

    # suite, the function broken, how, a tolerance at or above the old failure reading
    @pytest.mark.parametrize("suite,module,name,wrap,tol", [
        ("sphere", spectral, "sphere_eta",
         lambda f: lambda n, m, lam: f(n, m, np.multiply(lam, 1.001)), "1.0"),
        ("quadrature", transform, "cos_transform_sphere", lambda f: lambda *a: f(*a) + 1e-3, "1.0"),
        ("geometry", geometry, "torus_point", lambda f: lambda sig, t: f(sig, t + 1e-6), "1.0"),
        ("sin", spectral, "eta", lambda f: scaled(f, 1.001), "1e10"),
    ])
    def test_failed_side_gate_fails_under_any_tolerance(self, capsys, monkeypatch,
                                                        suite, module, name, wrap, tol):
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
        self.failing_report(capsys, suite, "--samples", "2000", "--tolerance", f"{suite}={tol}")

    def test_failed_stderr_gate_fails_the_mc_row(self):
        row = verify.run_mc(0, samples=2000, max_rel_stderr=1e-9, tol=1e10)
        assert row["passed"] is False and row["measured"] == sys.float_info.max

    @pytest.mark.parametrize("suite,module,oracle", [
        ("selberg", transform, "selberg_oracle"),
        ("sphere", transform, "funk_hecke_1d"),
        ("geometry", geometry, "cos_angle"),
    ])
    def test_nan_error_gives_a_failing_report(self, capsys, monkeypatch, suite, module, oracle):
        monkeypatch.setattr(module, oracle, lambda *args, **kwargs: float("nan"))
        self.failing_report(capsys, suite)

    def test_tolerance_at_the_failure_reading_rejected(self, capsys):
        status, out, err = run_cli(capsys, "verify", "--suite", "sphere",
                                   "--tolerance", f"sphere={sys.float_info.max!r}")
        assert status == 1 and out == ""
        one_error_object(err)

    @settings(max_examples=300, deadline=None)
    @given(errors=st.lists(st.floats(min_value=0.0)),
           gates=st.lists(st.tuples(st.lists(st.floats(min_value=0.0)),
                                    st.floats(min_value=0.0, allow_infinity=False)), max_size=3),
           tol=st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True,
                         exclude_max=True))
    def test_row_passes_exactly_below_its_tolerance(self, errors, gates, tol):
        row = verify._row("suite", tol, errors, "detail", gates)
        json.dumps(row, allow_nan=False)
        assert row["passed"] == (row["measured"] <= row["tolerance"])
        gates_pass = all(e < gate for errs, gate in gates for e in errs)
        assert row["passed"] == (all(e <= tol for e in errors) and gates_pass)


class TestSuiteNames:
    def test_unknown_tolerance_name_exits_one(self, capsys):
        status, out, err = run_cli(capsys, "verify", "--suite", "normalization",
                                   "--tolerance", "normalizaton=5")
        assert status == 1 and out == ""
        assert "normalizaton" in one_error_object(err)["error"]["message"]

    @pytest.mark.parametrize("names,tolerances", [(["mc", "nope"], None),
                                                  (["mc"], {"nope": 1.0})])
    def test_names_checked_before_any_suite_runs(self, monkeypatch, names, tolerances):
        def ran(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(transform, "mc_c_p", ran)
        with pytest.raises(ValueError, match="unknown suite.*'nope'"):
            verify.run_suites(names, 0, tolerances=tolerances)


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


# argv whose closed-form cells have no finite double: gammaln past the
# double range gives inf - inf, or a Gamma sum overflows
HUGE_LAMBDA_ARGV = [
    ["cp", "--lambda", "1.7e308"],
    ["cp", "--lambda", "1.7e308", "--format", "csv"],
    ["cp", "--lambda=-1.7e308", "--format", "csv"],
    ["spectrum", "--lambda", "1e307", "--max-degree", "2", "--format", "csv"],
    ["cp", "--lambda-grid", "1e308:1.7e308:3", "--format", "csv"],
    ["poles", "--re-min=-1.7e308", "--re-max=-1.7e308"],
    ["cp", "--field=C", "--n=11", "--p=3", "--lambda=3.676716767318809e+305"],
]


class TestNonFiniteAndOverflow:
    @pytest.mark.parametrize("argv,option", [
        (["cp", "--lambda", "inf"], "--lambda"),
        (["cp", "--lambda", "nan"], "--lambda"),
        (["cp", "--lambda", "1e400"], "--lambda"),
        (["spectrum", "--lambda", "3.5,-inf"], "--lambda"),
        (["cp", "--lambda-grid", "0:inf:3"], "--lambda-grid"),
        (["cp", "--lambda-grid", "-1e308:1e308:3"], "--lambda-grid"),
        (["cp", "--lambda-grid", "0:1:3", "--lambda-im", "nan"], "--lambda-im"),
        (["poles", "--re-min", "-inf"], "--re-min"),
        (["poles", "--re-max", "inf"], "--re-max"),
        (["cp", "--lambda-grid", "0:1.7976931348623157e308:7"], "--lambda-grid"),
    ])
    def test_non_finite_value_rejected_by_name(self, capsys, argv, option):
        with warnings.catch_warnings():  # a numpy warning would print before the error
            warnings.simplefilter("error")
            status, out, err = run_cli(capsys, *argv)
        assert status == 1 and out == ""
        message = one_error_object(err)["error"]["message"]
        assert option in message and "finite" in message

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-3"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, value):
        status, out, err = run_cli(capsys, "verify", "--suite", "recursion",
                                   "--tolerance", f"recursion={value}")
        assert status == 1 and out == ""
        assert "NaN" not in err and "Infinity" not in err
        assert f"recursion={value}" in one_error_object(err)["error"]["message"]

    @pytest.mark.parametrize("argv", [["cp", "--lambda", "3"],
                                      ["spectrum", "--lambda", "3", "--max-degree", "0"]])
    def test_overflowing_value_is_an_error_object(self, capsys, argv):
        status, out, err = run_cli(capsys, *argv, "--n", "100000", "--p", "2")
        assert status == 1 and out == ""
        assert "double-precision range" in one_error_object(err)["error"]["message"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflow_inside_a_grid_writes_nothing(self, capsys, tmp_path, fmt):
        argv = ["cp", "--n", "100000", "--p", "2", "--lambda-grid", "3:4:5", "--format", fmt]
        status, out, err = run_cli(capsys, *argv)
        assert status == 1 and out == ""
        assert "double-precision range" in one_error_object(err)["error"]["message"]
        target = tmp_path / "report.out"
        status, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert status == 1 and out == "" and not target.exists()
        assert "double-precision range" in one_error_object(err)["error"]["message"]

    def test_non_finite_cell_is_an_error_object(self, capsys, monkeypatch):
        def nan_cells(sig, lam):
            shape = np.shape(lam)
            return spectral.SpectralArray(np.zeros(shape, int), np.full(shape, complex("nan")))

        monkeypatch.setattr("coslam.cli.c_p", nan_cells)
        for fmt in ("json", "csv"):
            status, out, err = run_cli(capsys, "cp", "--lambda-grid", "0:1:3", "--format", fmt)
            assert status == 1 and out == ""
            assert "NaN" not in err
            one_error_object(err)

    @pytest.mark.parametrize("argv", HUGE_LAMBDA_ARGV, ids=" ".join)
    def test_cell_past_the_double_range_is_an_error_object(self, capsys, argv):
        with warnings.catch_warnings():  # a numpy warning would print before the error
            warnings.simplefilter("error")
            status, out, err = run_cli(capsys, *argv)
        assert status == 1 and out == ""
        assert "double-precision range" in one_error_object(err)["error"]["message"]

    def test_unwritable_output_is_an_error_object(self, capsys, tmp_path):
        target = str(tmp_path / "missing" / "report.json")
        status, out, err = run_cli(capsys, "cp", "--lambda", "3.5", "--output", target)
        assert status == 1 and out == ""
        one_error_object(err)

    def test_report_never_carries_nan(self, capsys, monkeypatch):
        monkeypatch.setattr("coslam.cli.run", lambda cfg: ({"measured": float("nan")}, 0))
        status, out, err = run_cli(capsys, "cp", "--lambda", "3.5")
        assert status == 1 and out == ""
        one_error_object(err)


class TestSignatureAndRangeLimits:
    """spectrum/cp/poles sizes are bounded; each violation is one JSON error naming the option."""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--n", "3000", "--p", "1500", "--max-degree", "2"],
        ["spectrum", "--n", "33", "--p", "17"],
        ["cp", "--n", "33", "--p", "17", "--lambda", "3.5"],
        ["poles", "--n", "33", "--p", "17"],
    ])
    def test_p_just_over_the_limit_exits_one(self, capsys, argv):
        status, out, err = run_cli(capsys, *argv)
        assert status == 1 and out == ""
        assert "--p" in one_error_object(err)["error"]["message"]

    def test_p_limit_itself_is_accepted(self, capsys):
        status, out, _ = run_cli(capsys, "cp", "--n", "32", "--p", "16", "--lambda", "3.5")
        assert status == 0
        assert json.loads(out)["config"]["p"] == 16

    @pytest.mark.parametrize("re_min,re_max", [("0", "1e300"), ("-1e308", "1e308"),
                                               ("0", "500000")])
    def test_poles_range_over_the_row_limit_exits_one(self, capsys, re_min, re_max):
        # p = 1 allows spans up to 499,999: 4 (floor(span / 2) + 1) <= 1,000,000
        status, out, err = run_cli(capsys, "poles", "--n", "2", "--p", "1",
                                   "--re-min", re_min, "--re-max", re_max)
        assert status == 1 and out == ""
        message = one_error_object(err)["error"]["message"]
        assert "--re-min" in message and "--re-max" in message


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


class TestParserAndLimits:
    def test_parser_built_once(self):
        from coslam import cli

        assert cli._build_parser() is cli._build_parser()

    def test_workers_env_read_per_call(self, capsys, monkeypatch):
        # the parser is cached, so $COSLAM_WORKERS must be read at call time
        workers = []
        for value in ("3", "5"):
            monkeypatch.setenv("COSLAM_WORKERS", value)
            status, out, _ = run_cli(capsys, "verify", "--suite", "normalization")
            assert status == 0
            workers.append(json.loads(out)["config"]["workers"])
        monkeypatch.delenv("COSLAM_WORKERS")
        status, out, _ = run_cli(capsys, "verify", "--suite", "normalization", "--workers", "2")
        workers.append(json.loads(out)["config"]["workers"])
        status, out, _ = run_cli(capsys, "verify", "--suite", "normalization")
        workers.append(json.loads(out)["config"]["workers"])
        assert workers == [3, 5, 2, 1]

    @pytest.mark.parametrize("argv,option", [
        (["cp", "--lambda-grid", "0:1:1000001"], "--lambda-grid"),
        (["cp", "--lambda-grid", "0:1:0"], "--lambda-grid"),
        (["spectrum", "--max-degree", "65"], "--max-degree"),
        (["spectrum", "--max-degree", "-2"], "--max-degree"),
    ])
    def test_size_limits(self, capsys, argv, option):
        status, out, err = run_cli(capsys, *argv)
        assert status == 1 and out == ""
        assert option in one_error_object(err)["error"]["message"]

    def test_largest_degree_accepted(self, capsys):
        status, out, _ = run_cli(capsys, "spectrum", "--max-degree", "64")
        assert status == 0
        assert len(json.loads(out)["rows"]) == 33

    def test_grid_rows_match_scalar_calls(self, capsys):
        status, out, _ = run_cli(capsys, "cp", "--field", "H", "--n", "3", "--p", "2",
                                 "--lambda-grid", "-6:6:49", "--lambda-im", "0")
        assert status == 0
        sig = GrassmannSignature(3, 2, FieldTag.QUATERNION)
        rows = json.loads(out)["rows"]
        assert {row["cp"]["tag"] for row in rows} == {"pole", "finite"}
        for row in rows:
            lam = complex(row["lambda"]["re"], row["lambda"]["im"])
            assert row["cp"] == sv_json(c_p(sig, lam))


class TestVerifyLimits:
    """verify sizes are bounded; each violation is one JSON error naming the option."""

    @pytest.mark.parametrize("argv,option", [
        (["--samples", "100000001"], "--samples"),
        (["--workers", "1025"], "--workers"),
        (["--grid-order", "129"], "--grid-order"),
        (["--grid-order", "0"], "--grid-order"),
        (["--grid-order", "-3"], "--grid-order"),
    ])
    def test_just_over_a_limit_exits_one(self, capsys, argv, option):
        status, out, err = run_cli(capsys, "verify", "--suite", "normalization", *argv)
        assert status == 1 and out == ""
        assert option in one_error_object(err)["error"]["message"]

    def test_workers_env_is_capped_too(self, capsys, monkeypatch):
        monkeypatch.setenv("COSLAM_WORKERS", "1025")
        status, out, err = run_cli(capsys, "verify", "--suite", "normalization")
        assert status == 1 and out == ""
        assert "--workers" in one_error_object(err)["error"]["message"]

    def test_limits_themselves_are_accepted(self, capsys):
        # normalization draws nothing, so the largest sizes cost nothing here
        status, out, _ = run_cli(capsys, "verify", "--suite", "normalization",
                                 "--samples", "100000000", "--workers", "1024",
                                 "--grid-order", "128")
        assert status == 0
        config = json.loads(out)["config"]
        assert (config["samples"], config["workers"], config["grid_order"]) == \
            (100_000_000, 1024, 128)


def reference_hits(sig, mu, re_min, re_max):
    """Real-axis crossings of the eigenvalue's singular hyperplanes, one dict
    per crossing, sorted by (lambda_re, factor, j, k)."""
    d, rho, p, m = sig.d, sig.rho, sig.p, mu.m
    hits = []
    for name, side, base_of, direction in [
        ("cos-kernel", "numerator", lambda j: rho - d * p + d * j, -1),
        ("ktype-shift", "numerator", lambda j: rho + m[j] - d * j, +1),
        ("weight", "denominator", lambda j: rho - d * j, +1),
        ("kernel-dual", "denominator", lambda j: -rho - m[j] + d * j, -1),
    ]:
        for j in range(p):
            base = base_of(j)
            if direction > 0:
                k_lo = max(0, math.ceil((re_min - base) / 2.0 - 1e-12))
                k_hi = math.floor((re_max - base) / 2.0 + 1e-12)
            else:
                k_lo = max(0, math.ceil((base - re_max) / 2.0 - 1e-12))
                k_hi = math.floor((base - re_min) / 2.0 + 1e-12)
            for k in range(k_lo, k_hi + 1):
                hits.append({"factor": name, "side": side, "j": j + 1, "k": k,
                             "lambda_re": base + direction * 2.0 * k})
    hits.sort(key=lambda h: (h["lambda_re"], h["factor"], h["j"], h["k"]))
    return hits


ALL_SIGNATURES = [GrassmannSignature(n, p, field) for field in FieldTag
                  for n in range(1, 8) for p in range(1, (n + 1) // 2 + 1)]


class TestFactorHits:
    """spectral.factor_crossings, which reads spectral._plan, against the
    factor list written out in reference_hits."""

    @pytest.mark.parametrize("where", ["window", "on-crossing", "+1e15", "-1e15", "-1e20",
                                       "1e300"])
    @pytest.mark.parametrize("s", ALL_SIGNATURES, ids=lambda s: s.label())
    def test_matches_reference(self, s, where):
        re_min, re_max = {"window": (-20.0, 20.0), "on-crossing": (s.rho, s.rho),
                          "+1e15": (1e15, 1e15 + 6.0), "-1e15": (-1e15 - 6.0, -1e15),
                          "-1e20": (-1e20, -1e20), "1e300": (1e300, 1e300)}[where]
        rows = 0
        for mu in enumerate_ktypes(s, 6):
            lam, factor, side, j, k = spectral.factor_crossings(s, mu, re_min, re_max)
            ref = reference_hits(s, mu, re_min, re_max)
            assert list(map(repr, lam.tolist())) == [repr(h["lambda_re"]) for h in ref]
            assert (factor, side, j, k) == tuple([h[key] for h in ref]
                                                 for key in ("factor", "side", "j", "k"))
            assert all(type(x) is int for x in j + k)
            rows += len(ref)
        if where == "on-crossing":
            assert rows  # the weight factor crosses at lambda = rho for every mu


def sv_json(v):
    """The JSON cell of one SpectralValue, from its public members."""
    if v.is_pole:
        return {"tag": "pole", "order": v.order}
    if v.is_zero:
        return {"tag": "zero", "order": v.order}
    value = v.value
    return {"tag": "finite", "re": value.real, "im": value.imag}


def sv_csv(sv):
    if sv is None:
        return ["", "", "", ""]
    if sv["tag"] == "finite":
        return ["finite", repr(sv["re"]), repr(sv["im"]), ""]
    return [sv["tag"], "", "", str(sv["order"])]


def reference_report(argv):
    """The report of a spectrum/cp/poles call built the long way: a dict
    per row, each cell a scalar call through sv_json, and the
    whole written by json.dumps or csv.writer."""
    cfg = cli._config_from_args(cli._build_parser().parse_args(cli._glue_signed_values(argv)))
    sig = cfg.signature()
    if cfg.command == "spectrum":
        rows = [{"mu": list(mu.m), "degree": mu.degree, "omega": omega(sig, mu),
                 "eta": sv_json(eta(sig, mu, cfg.lam)),
                 "nu": sv_json(nu(sig, mu, cfg.lam)) if sig.split_rank_equal else None}
                for mu in enumerate_ktypes(sig, cfg.max_degree)]
        header = ["mu", "degree", "omega", "eta_tag", "eta_re", "eta_im", "eta_order",
                  "nu_tag", "nu_re", "nu_im", "nu_order"]
        cells = [[" ".join(str(x) for x in r["mu"]), r["degree"], repr(r["omega"]),
                  *sv_csv(r["eta"]), *sv_csv(r["nu"])] for r in rows]
    elif cfg.command == "cp":
        start, stop, count = cfg.lam_grid or (cfg.lam.real, cfg.lam.real, 1)
        step = (stop - start) / (count - 1) if count > 1 else 0.0
        lams = [complex(start + i * step, cfg.lam.imag) for i in range(count)]
        rows = [{"lambda": {"re": lam.real, "im": lam.imag}, "cp": sv_json(c_p(sig, lam))}
                for lam in lams]
        header = ["lambda_re", "lambda_im", "cp_tag", "cp_re", "cp_im", "cp_order"]
        cells = [[repr(r["lambda"]["re"]), repr(r["lambda"]["im"]), *sv_csv(r["cp"])]
                 for r in rows]
    else:
        mu = ktype(sig, cfg.mu or (0,) * sig.p)
        rows = [{**hit, "eta": sv_json(eta(sig, mu, hit["lambda_re"]))}
                for hit in reference_hits(sig, mu, cfg.re_min, cfg.re_max)]
        header = ["lambda_re", "factor", "side", "j", "k",
                  "eta_tag", "eta_re", "eta_im", "eta_order"]
        cells = [[repr(r["lambda_re"]), r["factor"], r["side"], r["j"], r["k"],
                  *sv_csv(r["eta"])] for r in rows]
    if cfg.fmt == "json":
        report = {"schema": "coslam-report-v1", "command": cfg.command,
                  "config": cfg.to_json(), "rows": rows}
        return json.dumps(report, separators=(",", ":"), allow_nan=False) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(cells)
    return buf.getvalue()


REPORT_ARGV = [
    ["spectrum", "--field", "R", "--n", "2", "--p", "1", "--lambda", "3.5"],
    ["spectrum", "--field", "R", "--n", "3", "--p", "2", "--lambda", "2.5", "--max-degree", "8"],
    ["spectrum", "--field", "R", "--n", "7", "--p", "4", "--lambda", "-1.5,0.25",
     "--max-degree", "4"],
    ["spectrum", "--field", "C", "--n", "4", "--p", "2", "--lambda", "5.0,0.5"],
    ["spectrum", "--field", "C", "--n", "3", "--p", "2", "--lambda", "-3", "--max-degree", "6"],
    ["spectrum", "--field", "H", "--n", "5", "--p", "2", "--lambda", "-3.25,1.5"],
    ["spectrum", "--field", "H", "--n", "3", "--p", "2", "--lambda", "2", "--max-degree", "0"],
    ["spectrum", "--field", "R", "--n", "3", "--p", "2", "--lambda", "4", "--max-degree", "0"],
    ["cp", "--field", "C", "--n", "3", "--p", "2", "--lambda", "4"],
    ["cp", "--field", "H", "--n", "6", "--p", "1", "--lambda", "-7.5,31.25"],
    ["cp", "--field", "R", "--n", "5", "--p", "3", "--lambda-grid", "1.5:1.5:1"],
    ["cp", "--field", "R", "--n", "3", "--p", "2", "--lambda-grid", "-9:6:61"],
    ["cp", "--field", "H", "--n", "3", "--p", "2", "--lambda-grid", "-6:6:49",
     "--lambda-im", "-0.75"],
    ["poles", "--field", "R", "--n", "2", "--p", "1", "--mu", "2", "--re-min", "-4",
     "--re-max", "6"],
    ["poles", "--field", "R", "--n", "3", "--p", "2", "--mu", "2,-2", "--re-min", "-9",
     "--re-max", "5"],
    ["poles", "--field", "C", "--n", "4", "--p", "2", "--mu", "4,2"],
    ["poles", "--field", "H", "--n", "7", "--p", "3", "--mu", "2,2,0", "--re-min", "-30",
     "--re-max", "0"],
    ["poles", "--field", "C", "--n", "3", "--p", "1", "--re-min", "-1e20", "--re-max", "-1e20"],
    ["poles", "--field", "R", "--n", "2", "--p", "1", "--re-min", "1e300", "--re-max", "1e300"],
    ["poles", "--field", "R", "--n", "2", "--p", "1", "--re-min", "0.6", "--re-max", "0.9"],
]


class TestReportBytes:
    """spectrum/cp/poles reports equal, byte for byte, the same reports built
    the long way: per-cell scalar calls, per-row dicts, json or csv."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", REPORT_ARGV, ids=" ".join)
    def test_matches_reference(self, capsys, argv, fmt):
        status, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert status == 0 and err == ""
        assert out == reference_report([*argv, "--format", fmt])

    def test_reference_covers_every_tag(self, capsys):
        tags = set()
        for argv in REPORT_ARGV:
            status, out, _ = run_cli(capsys, *argv)
            report = json.loads(out)
            for row in report["rows"]:
                tags.update(row[key]["tag"] for key in ("eta", "nu", "cp")
                            if row.get(key) is not None)
        assert tags == {"finite", "pole", "zero"}
        status, out, _ = run_cli(capsys, *REPORT_ARGV[-1])
        assert json.loads(out)["rows"] == []

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_blocked_grid_gives_the_same_bytes(self, capsys, monkeypatch, fmt):
        argv = ["cp", "--field", "H", "--n", "5", "--p", "2", "--lambda-grid", "-8:8:257",
                "--format", fmt]
        status, whole, _ = run_cli(capsys, *argv)
        monkeypatch.setattr(spectral, "_BLOCK", 64)
        assert run_cli(capsys, *argv) == (status, whole, "")


CSV_HEADERS = {
    "spectrum": "mu,degree,omega,eta_tag,eta_re,eta_im,eta_order,nu_tag,nu_re,nu_im,nu_order",
    "cp": "lambda_re,lambda_im,cp_tag,cp_re,cp_im,cp_order",
    "poles": "lambda_re,factor,side,j,k,eta_tag,eta_re,eta_im,eta_order",
}
# half-integers (where Gindikin factors go singular) and points just off them
NEAR_POLES = st.builds(lambda k, off: k / 2.0 + off, st.integers(-80, 80),
                       st.sampled_from([0.0, 0.0, 1e-15, -1e-15, 1e-9, 0.25]))
REALS = st.one_of(NEAR_POLES, st.floats(-60.0, 60.0), st.floats(-1.7e308, 1.7e308),
                  st.sampled_from([1.7e308, -1.7e308, 1e307, -1e307, 1e300, 2.0 ** 53]))
IMAGS = st.one_of(st.just(0.0), st.floats(-50.0, 50.0), st.floats(-1.7e308, 1.7e308), NEAR_POLES)


@st.composite
def closed_form_argv(draw):
    """spectrum, cp, cp --lambda-grid and poles argv over R, C and H with
    n <= 12, max degree <= 10, at most 50 grid points and a span <= 40."""
    field, n = draw(st.sampled_from("RCH")), draw(st.integers(1, 12))
    p = draw(st.integers(1, (n + 1) // 2))
    head = [f"--field={field}", f"--n={n}", f"--p={p}",
            f"--format={draw(st.sampled_from(['json', 'csv']))}"]
    lam = f"--lambda={draw(REALS)!r},{draw(IMAGS)!r}"
    command = draw(st.sampled_from(["spectrum", "cp", "cp-grid", "poles"]))
    if command == "spectrum":
        return ["spectrum", *head, lam, f"--max-degree={draw(st.integers(0, 10))}"]
    if command == "cp":
        return ["cp", *head, lam]
    if command == "cp-grid":
        start, count = draw(REALS), draw(st.integers(1, 50))
        stop = draw(st.one_of(REALS, st.just(start + 0.5 * (count - 1))))
        return ["cp", *head, f"--lambda-grid={start!r}:{stop!r}:{count}",
                f"--lambda-im={draw(IMAGS)!r}"]
    sig = GrassmannSignature(n, p, FieldTag.from_label(field))
    mu = draw(st.sampled_from(enumerate_ktypes(sig, 10))).m
    re_min = draw(REALS)
    span = draw(st.one_of(st.floats(0.0, 40.0), st.integers(0, 80).map(lambda k: k / 2.0)))
    return ["poles", *head, "--mu=" + ",".join(map(str, mu)), f"--re-min={re_min!r}",
            f"--re-max={re_min + span!r}"]


def no_constant(name):
    raise ValueError(f"bare {name} in a JSON report")


class TestArgvContract:
    """Every accepted argv ends in a valid report or in exit 1 with one JSON
    error object, with numpy warnings as errors."""

    @settings(max_examples=200, deadline=None)
    @given(argv=closed_form_argv())
    @example(argv=HUGE_LAMBDA_ARGV[0])
    @example(argv=HUGE_LAMBDA_ARGV[1])
    @example(argv=HUGE_LAMBDA_ARGV[2])
    @example(argv=HUGE_LAMBDA_ARGV[3])
    @example(argv=HUGE_LAMBDA_ARGV[4])
    @example(argv=HUGE_LAMBDA_ARGV[5])
    @example(argv=HUGE_LAMBDA_ARGV[6])
    def test_report_or_one_error_object(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            status = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert status in (0, 1, 2)
        if status == 1:
            assert out == ""
            one_error_object(err)
            return
        assert err == ""
        if "csv" in argv or "--format=csv" in argv:
            header, *rows = out.splitlines()
            assert header == CSV_HEADERS[argv[0]]
            for row in csv.reader(rows):
                for cell in row:
                    try:
                        assert math.isfinite(float(cell)), (row, argv)
                    except ValueError:  # text, or an empty cell
                        pass
        else:
            check(json.loads(out, parse_constant=no_constant))
