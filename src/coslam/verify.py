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

The closed-form suites draw their cases one by one, in a fixed order, and
then evaluate them with one array call of each closed form per signature
(recursion, functional-equation, the sin suite's sign identity) or, in the
sphere suite, per degree; the geometry suite checks each field's Haar draws
as one stack.  An array call equals its scalar calls cell by cell, and
_rel_errors takes the errors in the arithmetic of one Python complex, so a
report is the same as that of a loop over the cases.
"""

import math
import sys

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


def _worst(errors):
    """The largest error, or NaN if any is NaN (`max` alone drops a NaN that
    does not come first, so a NaN error would read as a pass)."""
    return math.nan if any(map(math.isnan, errors)) else max(errors, default=0.0)


def _rel_errors(a, b, floor=0.0):
    """|a - b| / max(|b|, floor) over complex arrays, as a flat list; np.hypot
    is the complex abs of Python, bit for bit."""
    d = a - b
    return (np.hypot(d.real, d.imag) / np.maximum(np.hypot(b.real, b.imag), floor)).ravel().tolist()


def _row(name, tolerance, errors, detail="", gates=()):
    """A suite's row: its worst error against its tolerance, with its fixed
    side gates as (errors, gate) pairs, each passing when every error is
    below its gate.  A NaN or infinite error or a failed gate reads as the
    largest double, so `passed` is exactly `measured <= tolerance` for every
    smaller tolerance, and the row is valid JSON; `detail` keeps the figures."""
    measured = _worst(errors)
    if not (math.isfinite(measured) and all(e < gate for errs, gate in gates for e in errs)):
        measured = sys.float_info.max
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
    errors = []
    for sig in all_signatures(max_n):
        lams = generic_lambdas(rng, lambdas)
        mus = spectral.enumerate_ktypes(sig, max_degree)
        closed = spectral.eta(sig, mus, lams).value
        errors += _rel_errors(spectral.eta_by_recursion(sig, mus, lams).value, closed, 1e-300)
    return _row("recursion", tol, errors, f"{len(errors)} (sig, mu, lambda) cases")


def run_functional_equation(seed, samples=None, workers=1, grid_order=None, tol=1e-11, *,
                            max_n=5, max_degree=8, cases=200):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    sigs = all_signatures(max_n)
    ktypes = [spectral.enumerate_ktypes(sig, max_degree) for sig in sigs]
    which, mus, lams = [], [], []  # each case's signature index, K-type and lambda
    for _ in range(cases):
        which.append(i := rng.integers(len(sigs)))
        mus.append(ktypes[i][rng.integers(len(ktypes[i]))])
        lams.append(generic_lambdas(rng, 1)[0])
    which, lams = np.array(which), np.array(lams, dtype=complex)
    pairs = np.stack([lams, -lams], axis=-1)
    errors = np.empty(cases)
    for i, sig in enumerate(sigs):
        at = np.flatnonzero(which == i)
        diag = np.arange(len(at))  # the cells pairing case c's K-type with its lambdas
        lhs = spectral.eta(sig, [mus[c] for c in at], pairs[at])[diag, diag].prod(axis=-1)
        rhs = spectral.c_p(sig, pairs[at]).prod(axis=-1)
        errors[at] = _rel_errors(lhs.value, rhs.value)
    return _row("functional-equation", tol, errors.tolist(), f"{cases} random cases")


def run_normalization(seed, samples=None, workers=1, grid_order=None, tol=1e-13):
    errors = [abs(spectral.c_p(sig, sig.rho).value - 1.0) for sig in all_signatures(8)]
    return _row("normalization", tol, errors, f"c_p(rho) over {len(errors)} signatures")


def run_sphere(seed, samples=None, workers=1, grid_order=None, tol=1e-7, *, lambdas=5):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    exact, fh = [], []
    for n in (2, 3, 4):
        sig = GrassmannSignature(n, 1, FieldTag.REAL)
        for m in (0, 2, 4, 6):
            lams = generic_lambdas(rng, lambdas)
            exact += _rel_errors(spectral.sphere_eta(n, m, lams).value,
                                 spectral.eta(sig, (m,), lams).value)
            lams = [sig.rho + off for off in (0.5, 1.0, 2.5)]
            quad = np.array([transform.funk_hecke_1d(n, m, lam) for lam in lams])
            fh += _rel_errors(quad, spectral.sphere_eta(n, m, lams).value)
    return _row("sphere", tol, fh, f"closed-form identity {_worst(exact):.2e} (gate 1e-12), "
                f"quadrature {_worst(fh):.2e}", [(exact, 1e-12)])


def run_quadrature(seed, samples=None, workers=1, grid_order=None, tol=1e-4):
    order = grid_order or 32
    grid = transform.sphere_grid(2, order)
    rho = 1.5
    lam = rho + 2.0
    pole = np.array([0.0, 0.0, 1.0])
    t = grid.points @ pole
    zonal = []
    odd = []
    for m in range(5):
        f = transform.zonal_values(2, m, t)
        out = transform.cos_transform_sphere(2, lam, f, grid)
        if m % 2:
            odd.append(float(np.abs(out).max()))
        else:
            ev = spectral.sphere_eta(2, m, lam).value
            zonal.append(float(np.abs(out - ev * f).max()))
    return _row("quadrature", tol, zonal, f"grid order {order}: zonal error {_worst(zonal):.2e}, "
                f"odd leakage {_worst(odd):.2e} (gate 1e-10)", [(odd, 1e-10)])


def run_geometry(seed, samples=None, workers=1, grid_order=None, tol=1e-10, *,
                 pairs=60, torus_points=1):
    """Angle = cocycle on `pairs` Haar pairs per field (gate `tol`), gated on
    the inverse and torus identities (gate 1e-12).  Each field's 2 * `pairs`
    samples come from one haar_batch draw, checked as two stacked GroupElements.

    The errors are rounding noise far below the gates, so `measured` is the
    worst angle error rounded up to the row's gate: a passing row reads its
    tolerance, and rounding-level changes leave the report bytes alone."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    angle = [tol]  # the rounding up to the gate
    exact = []
    for field in FieldTag:
        sig = GrassmannSignature(3, 2, field)
        bo = geometry.base_point(sig)
        mats = geometry.haar_batch(sig, rng, 2 * pairs)
        k, h = geometry.GroupElement(sig, mats[0::2]), geometry.GroupElement(sig, mats[1::2])
        ca = geometry.cos_angle(geometry.act(k, bo), geometry.act(h, bo))
        al = geometry.alpha_p(sig, geometry.group_compose(geometry.group_inverse(h), k))
        angle += np.abs(ca - al).tolist()
        inverse = geometry.alpha_p(sig, k) - geometry.alpha_p(sig, geometry.group_inverse(k))
        exact += np.abs(inverse).tolist()
        for _ in range(torus_points):
            t = rng.uniform(0.0, np.pi, sig.p)
            torus = geometry.alpha_p(sig, geometry.torus_point(sig, t)) - np.abs(np.cos(t)).prod()
            exact.append(abs(torus))
    return _row("geometry", tol, angle, "cocycle/angle identities, 3 fields", [(exact, 1e-12)])


def run_mc(seed, samples=None, workers=1, grid_order=None, tol=3.0, *, max_rel_stderr=None):
    """z-scores of Monte Carlo c_p at stream seeds seed, seed + 1, ...; with
    `max_rel_stderr` every estimate must also have stderr/|mean| below it."""
    n = samples or 100_000
    zs = []
    rel = []
    detail = []
    for i, (nn, p, f) in enumerate([(2, 1, FieldTag.REAL), (3, 2, FieldTag.REAL),
                                    (3, 2, FieldTag.COMPLEX), (3, 2, FieldTag.QUATERNION)]):
        sig = GrassmannSignature(nn, p, f)
        lam = sig.rho + 1.0
        est = transform.mc_c_p(sig, lam, n, seed=seed + i, workers=workers)
        ref = spectral.c_p(sig, lam).value
        zs.append(abs(est.mean - ref) / est.stderr)
        rel.append(est.stderr / abs(est.mean))
        detail.append(f"{sig.label()} z={zs[-1]:.2f}")
    gates = []
    if max_rel_stderr is not None:
        detail.append(f"stderr/|mean| {_worst(rel):.2e} (gate {max_rel_stderr:g})")
        gates.append((rel, max_rel_stderr))
    return _row("mc", tol, zs, "; ".join(detail) + f" ({n} samples, z-units)", gates)


def run_ktype(seed, samples=None, workers=1, grid_order=None, tol=3.0):
    """z-score of the first K-type by Monte Carlo at stream seed seed + 17."""
    n = samples or 100_000
    sig = GrassmannSignature(3, 2, FieldTag.REAL)
    lam = sig.rho + 2.0
    est = transform.mc_transform_ktype(sig, lam, (2, 0), n, seed=seed + 17, workers=workers)
    ref = spectral.eta(sig, (2, 0), lam).value
    z = abs(est.mean - ref) / est.stderr
    return _row("ktype", tol, [z], f"(3,2,R) mu=(2,0): z={z:.2f} ({n} samples)")


def run_sin(seed, samples=None, workers=1, grid_order=None, tol=3.0, *,
            sign_sigs=(GrassmannSignature(3, 2, FieldTag.REAL),), sign_degree=6):
    """z-scores of the sine spectrum by Monte Carlo at stream seeds seed + 29,
    seed + 30, gated on the exact sign relation nu = (-1)^(|mu|/2) eta over
    `sign_sigs` up to `sign_degree`."""
    n = samples or 100_000
    zs = []
    detail = []
    for i, (sig, mu) in enumerate([
        (GrassmannSignature(1, 1, FieldTag.REAL), (2,)),
        (GrassmannSignature(3, 2, FieldTag.REAL), (2, 0)),
    ]):
        lam = sig.rho + 2.0
        est = transform.sin_transform_numeric(sig, lam, mu, n, seed=seed + 29 + i,
                                              workers=workers)
        ref = spectral.nu(sig, mu, lam).value
        zs.append(abs(est.mean - ref) / est.stderr)
        detail.append(f"{sig.label()} z={zs[-1]:.2f}")
    # exact sign relation between the two closed forms
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    sign = []
    for sig in sign_sigs:
        mus = spectral.enumerate_ktypes(sig, sign_degree)
        lams = np.array([generic_lambdas(rng, 1)[0] for _ in mus])  # one per K-type
        diag = np.arange(len(mus))
        a = spectral.nu(sig, mus, lams).value[diag, diag]
        signs = np.array([(-1.0) ** (mu.degree // 2) for mu in mus])
        sign += _rel_errors(a, signs * spectral.eta(sig, mus, lams).value[diag, diag])
    return _row("sin", tol, zs,
                "; ".join(detail) + f"; sign identity {_worst(sign):.2e} (gate 1e-12)",
                [(sign, 1e-12)])


def run_selberg(seed, samples=None, workers=1, grid_order=None, tol=1e-6):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 6]))
    errors = []
    for _ in range(20):
        p = int(rng.integers(1, 3))
        a = rng.uniform(0.4, 1.6)
        g1 = rng.uniform(1.0, 3.0)
        g2 = rng.uniform(1.0, 3.0)
        closed = transform.selberg_closed(p, a, g1, g2).value.real
        oracle = transform.selberg_oracle(p, a, g1, g2)
        errors.append(abs(closed - oracle) / max(1.0, abs(closed)))
    return _row("selberg", tol, errors, "20 random positive parameter sets")


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
    """Run the named suites; returns a list of result rows.

    Every suite name and tolerance name is checked before any suite runs."""
    tolerances = tolerances or {}
    unknown = [name for name in (*names, *tolerances) if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s) {', '.join(map(repr, unknown))}; "
                         f"available: {', '.join(SUITE_NAMES)}")
    rows = []
    for name in names:
        tol = {"tol": tolerances[name]} if name in tolerances else {}
        rows.append(SUITES[name](seed, samples, workers, grid_order, **tol))
    return rows
