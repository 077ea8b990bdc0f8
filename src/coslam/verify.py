"""Self-check suites behind the CLI `verify` subcommand.

Each suite pits one realization of the spectrum against an independent one
(closed form vs recursion, closed form vs quadrature, closed form vs Monte
Carlo, ...) and reports the measured error against its tolerance.  All
randomness is drawn from generators seeded deterministically from the master
seed, so a report is a pure function of (seed, samples, workers, grid_order,
tolerances).

Every suite takes its coverage (signature range, degree, number of lambdas,
samples, stricter side gates) as keyword arguments.  The
defaults are the `coslam verify` scale; `tests/test_acceptance.py` runs the
same suites at acceptance scale.
"""

import numpy as np

from . import geometry, spectral, transform
from .spectral import FieldTag, GrassmannSignature

__all__ = ["SUITE_NAMES", "all_signatures", "generic_lambdas", "run_suites"]


def all_signatures(max_n, fields=tuple(FieldTag)):
    """Every valid signature with n <= max_n (p <= q enforced by the type)."""
    return [
        GrassmannSignature(n, p, field)
        for field in fields
        for n in range(1, max_n + 1)
        for p in range(1, (n + 1) // 2 + 1)
    ]


def generic_lambdas(rng, count):
    """Spectral parameters off the real axis, clear of every pole."""
    re = rng.uniform(-4.0, 4.0, count)
    im = rng.uniform(0.4, 2.5, count) * rng.choice([-1.0, 1.0], count)
    return re + 1j * im


def _worst(worst, err):
    """The larger of two errors, keeping a NaN (Python's `max` drops it when
    it comes second, so a NaN error would read as a pass)."""
    return err if not err <= worst else worst


def _suite(name, tolerance, measured, detail=""):
    return {
        "name": name,
        "passed": bool(measured <= tolerance),
        "tolerance": float(tolerance),
        "measured": float(measured),
        "detail": detail,
    }


def run_recursion(seed, samples=None, workers=1, grid_order=None, tol=1e-10, *,
                  max_n=4, max_degree=8, lambdas=4):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    worst = 0.0
    cases = 0
    for sig in all_signatures(max_n):
        lams = generic_lambdas(rng, lambdas)
        mus = spectral.enumerate_ktypes(sig, max_degree)
        for mu, closed in zip(mus, spectral.eta(sig, mus, lams)):
            for a, b in zip(closed, spectral.eta_by_recursion(sig, mu, lams)):
                a, b = a.value, b.value
                worst = _worst(worst, abs(a - b) / max(abs(a), 1e-300))
                cases += 1
    return _suite("recursion", tol, worst, f"{cases} (sig, mu, lambda) cases")


def run_functional_equation(seed, samples=None, workers=1, grid_order=None, tol=1e-11, *,
                            max_n=5, max_degree=8, cases=200):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    sigs = all_signatures(max_n)
    ktypes = [spectral.enumerate_ktypes(sig, max_degree) for sig in sigs]
    worst = 0.0
    for _ in range(cases):
        i = rng.integers(len(sigs))
        sig, mus = sigs[i], ktypes[i]
        mu = mus[rng.integers(len(mus))]
        lam = generic_lambdas(rng, 1)[0]
        lhs = spectral.eta(sig, mu, [lam, -lam]).prod().value
        rhs = spectral.c_p(sig, [lam, -lam]).prod().value
        worst = _worst(worst, abs(lhs - rhs) / abs(rhs))
    return _suite("functional-equation", tol, worst, f"{cases} random cases")


def run_normalization(seed, samples=None, workers=1, grid_order=None, tol=1e-13):
    worst = 0.0
    count = 0
    for sig in all_signatures(8):
        worst = _worst(worst, abs(spectral.c_p(sig, sig.rho).value - 1.0))
        count += 1
    return _suite("normalization", tol, worst, f"c_p(rho) over {count} signatures")


def run_sphere(seed, samples=None, workers=1, grid_order=None, tol=1e-7, *, lambdas=5):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    worst_exact = 0.0
    worst_fh = 0.0
    for n in (2, 3, 4):
        sig = GrassmannSignature(n, 1, FieldTag.REAL)
        rho = sig.rho
        for m in (0, 2, 4, 6):
            for lam in generic_lambdas(rng, lambdas):
                a = spectral.sphere_eta(n, m, lam).value
                b = spectral.eta(sig, (m,), lam).value
                worst_exact = _worst(worst_exact, abs(a - b) / abs(b))
            for off in (0.5, 1.0, 2.5):
                lam = rho + off
                fh = transform.funk_hecke_1d(n, m, lam)
                se = spectral.sphere_eta(n, m, lam).value
                worst_fh = _worst(worst_fh, abs(fh - se) / abs(se))
    measured = worst_fh if worst_exact <= 1e-12 else 1.0
    return _suite(
        "sphere",
        tol,
        measured,
        f"closed-form identity {worst_exact:.2e} (gate 1e-12), quadrature {worst_fh:.2e}",
    )


def run_quadrature(seed, samples=None, workers=1, grid_order=None, tol=1e-4):
    order = grid_order or 32
    grid = transform.sphere_grid(2, order)
    rho = 1.5
    lam = rho + 2.0
    pole = np.array([0.0, 0.0, 1.0])
    t = grid.points @ pole
    worst = 0.0
    for m in (0, 2, 4):
        f = transform.zonal_values(2, m, t)
        out = transform.cos_transform_sphere(2, lam, f, grid)
        ev = spectral.sphere_eta(2, m, lam).value
        worst = _worst(worst, float(np.abs(out - ev * f).max()))
    odd = 0.0
    for m in (1, 3):
        f = transform.zonal_values(2, m, t)
        out = transform.cos_transform_sphere(2, lam, f, grid)
        odd = _worst(odd, float(np.abs(out).max()))
    measured = worst if odd <= 1e-10 else 1.0
    return _suite(
        "quadrature",
        tol,
        measured,
        f"grid order {order}: zonal error {worst:.2e}, odd leakage {odd:.2e} (gate 1e-10)",
    )


def run_geometry(seed, samples=None, workers=1, grid_order=None, tol=1e-10, *,
                 pairs=60, torus_points=1):
    """Angle = cocycle on `pairs` Haar pairs per field (gate `tol`), gated on
    the inverse and torus identities (gate 1e-12).

    The errors are rounding noise far below the gates, so `measured` is the
    worst angle error rounded up to the row's gate: a passing row reads its
    tolerance, and rounding-level changes leave the report bytes alone."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    worst_angle = 0.0
    worst_exact = 0.0
    for field in FieldTag:
        sig = GrassmannSignature(3, 2, field)
        bo = geometry.base_point(sig)
        for _ in range(pairs):
            k = geometry.haar_sample(sig, rng)
            h = geometry.haar_sample(sig, rng)
            ca = geometry.cos_angle(geometry.act(k, bo), geometry.act(h, bo))
            al = geometry.alpha_p(sig, geometry.group_compose(geometry.group_inverse(h), k))
            worst_angle = _worst(worst_angle, abs(ca - al))
            inverse = geometry.alpha_p(sig, k) - geometry.alpha_p(sig, geometry.group_inverse(k))
            worst_exact = _worst(worst_exact, abs(inverse))
        for _ in range(torus_points):
            t = rng.uniform(0.0, np.pi, sig.p)
            torus = geometry.alpha_p(sig, geometry.torus_point(sig, t)) - np.abs(np.cos(t)).prod()
            worst_exact = _worst(worst_exact, abs(torus))
    measured = _worst(tol, worst_angle) if worst_exact <= 1e-12 else 1.0
    return _suite("geometry", tol, measured, "cocycle/angle identities, 3 fields")


def run_mc(seed, samples=None, workers=1, grid_order=None, tol=3.0, *, max_rel_stderr=None):
    """z-scores of Monte Carlo c_p at stream seeds seed, seed + 1, ...; with
    `max_rel_stderr` every estimate must also have stderr/|mean| below it."""
    n = samples or 100_000
    worst = 0.0
    worst_rel = 0.0
    detail = []
    for i, (nn, p, f) in enumerate([(2, 1, FieldTag.REAL), (3, 2, FieldTag.REAL),
                                    (3, 2, FieldTag.COMPLEX), (3, 2, FieldTag.QUATERNION)]):
        sig = GrassmannSignature(nn, p, f)
        lam = sig.rho + 1.0
        est = transform.mc_c_p(sig, lam, n, seed=seed + i, workers=workers)
        ref = spectral.c_p(sig, lam).value
        z = abs(est.mean - ref) / est.stderr
        worst = _worst(worst, z)
        worst_rel = _worst(worst_rel, est.stderr / abs(est.mean))
        detail.append(f"{sig.label()} z={z:.2f}")
    if max_rel_stderr is not None:
        detail.append(f"stderr/|mean| {worst_rel:.2e} (gate {max_rel_stderr:g})")
        if not worst_rel < max_rel_stderr:
            worst = 1e9
    return _suite("mc", tol, worst, "; ".join(detail) + f" ({n} samples, z-units)")


def run_ktype(seed, samples=None, workers=1, grid_order=None, tol=3.0):
    """z-score of the first K-type by Monte Carlo at stream seed seed + 17."""
    n = samples or 100_000
    sig = GrassmannSignature(3, 2, FieldTag.REAL)
    lam = sig.rho + 2.0
    est = transform.mc_transform_ktype(sig, lam, (2, 0), n, seed=seed + 17, workers=workers)
    ref = spectral.eta(sig, (2, 0), lam).value
    z = abs(est.mean - ref) / est.stderr
    return _suite("ktype", tol, z, f"(3,2,R) mu=(2,0): z={z:.2f} ({n} samples)")


def run_sin(seed, samples=None, workers=1, grid_order=None, tol=3.0, *,
            sign_sigs=(GrassmannSignature(3, 2, FieldTag.REAL),), sign_degree=6):
    """z-scores of the sine spectrum by Monte Carlo at stream seeds seed + 29,
    seed + 30, gated on the exact sign relation nu = (-1)^(|mu|/2) eta over
    `sign_sigs` up to `sign_degree`."""
    n = samples or 100_000
    worst = 0.0
    detail = []
    for i, (sig, mu) in enumerate([
        (GrassmannSignature(1, 1, FieldTag.REAL), (2,)),
        (GrassmannSignature(3, 2, FieldTag.REAL), (2, 0)),
    ]):
        lam = sig.rho + 2.0
        est = transform.sin_transform_numeric(sig, lam, mu, n, seed=seed + 29 + i,
                                              workers=workers)
        ref = spectral.nu(sig, mu, lam).value
        z = abs(est.mean - ref) / est.stderr
        worst = _worst(worst, z)
        detail.append(f"{sig.label()} z={z:.2f}")
    # exact sign relation between the two closed forms
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    sign_err = 0.0
    for sig in sign_sigs:
        for mu in spectral.enumerate_ktypes(sig, sign_degree):
            lam = generic_lambdas(rng, 1)[0]
            a = spectral.nu(sig, mu, lam).value
            b = (-1.0) ** (mu.degree // 2) * spectral.eta(sig, mu, lam).value
            sign_err = _worst(sign_err, abs(a - b) / abs(b))
    measured = worst if sign_err <= 1e-12 else 1e9
    return _suite("sin", tol, measured,
                  "; ".join(detail) + f"; sign identity {sign_err:.2e} (gate 1e-12)")


def run_selberg(seed, samples=None, workers=1, grid_order=None, tol=1e-6):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 6]))
    worst = 0.0
    for _ in range(20):
        p = int(rng.integers(1, 3))
        a = rng.uniform(0.4, 1.6)
        g1 = rng.uniform(1.0, 3.0)
        g2 = rng.uniform(1.0, 3.0)
        closed = transform.selberg_closed(p, a, g1, g2).value.real
        oracle = transform.selberg_oracle(p, a, g1, g2)
        worst = _worst(worst, abs(closed - oracle) / max(1.0, abs(closed)))
    return _suite("selberg", tol, worst, "20 random positive parameter sets")


SUITES = {
    "recursion": run_recursion,
    "functional-equation": run_functional_equation,
    "normalization": run_normalization,
    "sphere": run_sphere,
    "quadrature": run_quadrature,
    "geometry": run_geometry,
    "mc": run_mc,
    "ktype": run_ktype,
    "sin": run_sin,
    "selberg": run_selberg,
}

SUITE_NAMES = tuple(SUITES)


def run_suites(names, seed, samples=None, workers=1, grid_order=None, tolerances=None):
    """Run the named suites; returns a list of result rows."""
    tolerances = tolerances or {}
    rows = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}")
        runner = SUITES[name]
        if name in tolerances:
            rows.append(runner(seed, samples, workers, grid_order, tol=tolerances[name]))
        else:
            rows.append(runner(seed, samples, workers, grid_order))
    return rows
