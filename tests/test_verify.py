"""The batched verify suites against per-case scalar loops.

The suites evaluate their cases with one array call per signature or per
field.  Each reference below is the loop over the cases, one scalar call
per case, drawing from the same generator in the same order; the rows must
be equal as dicts, `measured` and `detail` included.
"""

import numpy as np
import pytest

from coslam import geometry, spectral, transform, verify
from coslam.spectral import FieldTag, GrassmannSignature
from coslam.verify import _row, _worst, all_signatures, generic_lambdas


def recursion_loop(seed, tol=1e-10, *, max_n, max_degree, lambdas):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    errors = []
    for sig in all_signatures(max_n):
        lams = generic_lambdas(rng, lambdas)
        for mu in spectral.enumerate_ktypes(sig, max_degree):
            for lam in lams:
                a = spectral.eta(sig, mu, lam).value
                b = spectral.eta_by_recursion(sig, mu, lam).value
                errors.append(abs(a - b) / max(abs(a), 1e-300))
    return _row("recursion", tol, errors, f"{len(errors)} (sig, mu, lambda) cases")


def functional_equation_loop(seed, tol=1e-11, *, max_n, max_degree, cases):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    sigs = all_signatures(max_n)
    errors = []
    for _ in range(cases):
        sig = sigs[rng.integers(len(sigs))]
        mus = spectral.enumerate_ktypes(sig, max_degree)
        mu = mus[rng.integers(len(mus))]
        lam = generic_lambdas(rng, 1)[0]
        lhs = (spectral.eta(sig, mu, lam) * spectral.eta(sig, mu, -lam)).value
        rhs = (spectral.c_p(sig, lam) * spectral.c_p(sig, -lam)).value
        errors.append(abs(lhs - rhs) / abs(rhs))
    return _row("functional-equation", tol, errors, f"{cases} random cases")


def geometry_loop(seed, tol=1e-10, *, pairs, torus_points):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    angle = [tol]
    exact = []
    for field in FieldTag:
        sig = GrassmannSignature(3, 2, field)
        bo = geometry.base_point(sig)
        mats = geometry.haar_batch(sig, rng, 2 * pairs)
        for kmat, hmat in zip(mats[0::2], mats[1::2]):
            k, h = geometry.GroupElement(sig, kmat), geometry.GroupElement(sig, hmat)
            ca = geometry.cos_angle(geometry.act(k, bo), geometry.act(h, bo))
            al = geometry.alpha_p(sig, geometry.group_compose(geometry.group_inverse(h), k))
            angle.append(abs(ca - al))
            inverse = geometry.alpha_p(sig, k) - geometry.alpha_p(sig, geometry.group_inverse(k))
            exact.append(abs(inverse))
        for _ in range(torus_points):
            t = rng.uniform(0.0, np.pi, sig.p)
            torus = geometry.alpha_p(sig, geometry.torus_point(sig, t)) - np.abs(np.cos(t)).prod()
            exact.append(abs(torus))
    return _row("geometry", tol, angle, "cocycle/angle identities, 3 fields", [(exact, 1e-12)])


def sin_loop(seed, samples, tol=3.0, *, sign_sigs, sign_degree):
    zs = []
    detail = []
    for i, (sig, mu) in enumerate([
        (GrassmannSignature(1, 1, FieldTag.REAL), (2,)),
        (GrassmannSignature(3, 2, FieldTag.REAL), (2, 0)),
    ]):
        lam = sig.rho + 2.0
        est = transform.sin_transform_numeric(sig, lam, mu, samples, seed=seed + 29 + i)
        zs.append(abs(est.mean - spectral.nu(sig, mu, lam).value) / est.stderr)
        detail.append(f"{sig.label()} z={zs[-1]:.2f}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    sign = []
    for sig in sign_sigs:
        for mu in spectral.enumerate_ktypes(sig, sign_degree):
            lam = generic_lambdas(rng, 1)[0]
            a = spectral.nu(sig, mu, lam).value
            b = (-1.0) ** (mu.degree // 2) * spectral.eta(sig, mu, lam).value
            sign.append(abs(a - b) / abs(b))
    return _row("sin", tol, zs, "; ".join(detail) + f"; sign identity {_worst(sign):.2e} (gate 1e-12)",
                [(sign, 1e-12)])


SPLIT = [s for s in all_signatures(3) if s.split_rank_equal]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("suite,reference,coverage", [
    (verify.run_recursion, recursion_loop, dict(max_n=3, max_degree=6, lambdas=2)),
    (verify.run_functional_equation, functional_equation_loop,
     dict(max_n=3, max_degree=6, cases=40)),
    (verify.run_geometry, geometry_loop, dict(pairs=8, torus_points=2)),
], ids=["recursion", "functional-equation", "geometry"])
def test_batched_suite_equals_case_loop(suite, reference, coverage, seed):
    assert suite(seed, **coverage) == reference(seed, **coverage)


@pytest.mark.parametrize("seed", range(5))
def test_batched_sin_suite_equals_case_loop(seed):
    coverage = dict(sign_sigs=SPLIT, sign_degree=6)
    assert verify.run_sin(seed, 2000, **coverage) == sin_loop(seed, 2000, **coverage)
