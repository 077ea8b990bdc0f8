"""The Selberg integral behind c_p, and the sine transform.

The closed form of c_p rests on Selberg's multivariate beta integral; here a
tanh-sinh quadrature reproduces the Gamma-product formula.  When the
two subspace dimensions agree (p = q), composing the cosine transform with
the orthocomplement map gives the sine transform, whose spectrum differs from
the cosine one by the sign (-1)^(|mu|/2) only.
"""

import math

import numpy as np

from coslam import (
    FieldTag,
    GrassmannSignature,
    GroupElement,
    act,
    base_point,
    cos_angle,
    eta,
    nu,
    selberg_closed,
    selberg_oracle,
    sin_transform_numeric,
)

print("== Selberg integral: closed form vs tanh-sinh quadrature ==")
rng = np.random.default_rng(5)
for _ in range(5):
    a = rng.uniform(0.4, 1.5)
    g1, g2 = rng.uniform(1.0, 3.0, 2)
    closed = selberg_closed(2, a, g1, g2).value.real
    oracle = selberg_oracle(2, a, g1, g2)
    print(f"  alpha={a:.3f} g1={g1:.3f} g2={g2:.3f}: "
          f"closed {closed:.10f}, quadrature {oracle:.10f}, "
          f"diff {abs(closed - oracle):.1e}")
g1, g2 = 0.3, 2.5
beta = math.gamma(g1) * math.gamma(g2) / math.gamma(g1 + g2)
print(f"  p=1, g1={g1} g2={g2}: quadrature {selberg_oracle(1, 1.0, g1, g2):.12f}, "
      f"Beta(g1, g2) {beta:.12f}")
print("  (alpha=1/2, g=1 special case: "
      f"E|t1-t2| = {selberg_closed(2, 0.5, 1, 1).value.real:.6f})")

print("\n== the orthocomplement map ==")
sig = GrassmannSignature(3, 2, FieldTag.REAL)
bo = base_point(sig)
# the exact quarter turn in the (j, q+j) planes takes b_o to its orthocomplement
eye, zero = np.eye(sig.p), np.zeros((sig.p, sig.p))
w = GroupElement(sig, np.block([[zero, -eye], [eye, zero]]))
print(f"  |Cos(b_o, b_o^perp)| = {cos_angle(bo, act(w, bo)):.1e} (perpendicular)")
print(f"  |Cos(b_o, (b_o^perp)^perp)| = {cos_angle(bo, act(w, act(w, bo))):.6f} (involution)")

print("\n== sine-transform spectrum: sign-twisted cosine spectrum ==")
lam = sig.rho + 2.0
for mu in [(0, 0), (2, 0)]:
    closed = nu(sig, mu, lam).value.real
    twisted = (-1.0) ** (sum(mu) // 2) * eta(sig, mu, lam).value.real
    est = sin_transform_numeric(sig, lam, mu, samples=400_000, seed=13)
    print(f"  mu={mu}: nu = {closed:+.6f} = (-1)^(|mu|/2) eta = {twisted:+.6f}, "
          f"Monte Carlo {est.mean.real:+.6f} +/- {est.stderr:.6f}")

circle = GrassmannSignature(1, 1, FieldTag.REAL)
lam = circle.rho + 2.0
est = sin_transform_numeric(circle, lam, (2,), samples=400_000, seed=17)
print(f"  circle check, mu=(2): nu = {nu(circle, (2,), lam).value.real:+.6f}, "
      f"Monte Carlo {est.mean.real:+.6f} +/- {est.stderr:.6f}")
