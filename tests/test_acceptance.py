"""Acceptance gate: every criterion at its stated tolerance, one line each.

Criteria 1-10 run the `coslam verify` suites at acceptance coverage: wider
signature ranges, more lambdas and pairs, 10^6 Monte Carlo samples, and the
stricter side gates the suites take as keyword arguments.

Run with `pytest -s tests/test_acceptance.py` to see the pass/fail lines as
they complete (they are printed regardless; -s shows them live).
"""

import time

from coslam import cli, verify


def report(num, name, row, t0):
    line = (f"criterion {num:2d} [{name}]: {'PASS' if row['passed'] else 'FAIL'} "
            f"(measured {row['measured']:.3e}, tolerance {row['tolerance']:.1e}, "
            f"{time.time() - t0:.1f}s)")
    print(line, flush=True)
    assert row["passed"], f"{line}: {row['detail']}"


def run_criterion(num, name, suite, seed, **coverage):
    t0 = time.time()
    report(num, name, suite(seed, **coverage), t0)


def test_criterion_1_recursion_matches_closed_form():
    run_criterion(1, "recursion = closed form", verify.run_recursion, 101,
                  max_n=6, max_degree=12, lambdas=10)


def test_criterion_2_functional_equation():
    run_criterion(2, "functional equation", verify.run_functional_equation, 102,
                  max_n=6, max_degree=10)


def test_criterion_3_normalization():
    run_criterion(3, "c_p(rho) = 1", verify.run_normalization, 103)


def test_criterion_4_sphere_specialization():
    run_criterion(4, "sphere specialization", verify.run_sphere, 104, lambdas=10)


def test_criterion_5_sphere_quadrature():
    run_criterion(5, "sphere quadrature", verify.run_quadrature, 105, grid_order=64)


def test_criterion_6_monte_carlo_c_function():
    run_criterion(6, "Monte Carlo c_p", verify.run_mc, 600,
                  samples=1_000_000, max_rel_stderr=0.01)


def test_criterion_7_higher_rank_ktype():
    run_criterion(7, "higher-rank K-type MC", verify.run_ktype, 700 - 17,
                  samples=1_000_000)


def test_criterion_8_selberg():
    run_criterion(8, "Selberg closed vs oracle", verify.run_selberg, 108)


def test_criterion_9_sine_spectrum():
    run_criterion(9, "sine spectrum", verify.run_sin, 900 - 29, samples=1_000_000,
                  sign_sigs=[s for s in verify.all_signatures(3) if s.split_rank_equal],
                  sign_degree=8)


def test_criterion_10_geometry_identities():
    run_criterion(10, "geometry identities", verify.run_geometry, 110,
                  pairs=1000, torus_points=50)


def test_criterion_11_deterministic_reports(tmp_path):
    t0 = time.time()
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["verify", "--seed", "40", "--samples", "50000", "--workers", "2"]
    assert cli.main(argv + ["--output", str(f1)]) == 0
    assert cli.main(argv + ["--output", str(f2)]) == 0
    identical = f1.read_bytes() == f2.read_bytes()
    report(11, "byte-identical verify reports",
           {"passed": identical, "measured": float(not identical), "tolerance": 0.5,
            "detail": "two runs of one verify config"}, t0)
