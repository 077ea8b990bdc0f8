"""The eigenvalue calculus on a higher-rank Grassmannian.

Every K-type (a p-tuple of even integers) carries one scalar eigenvalue
eta_mu(lambda).  Two completely different routes compute it:

  * the closed form, a ratio of Gindikin Gamma functions;
  * the spectrum-generating recursion, which starts from the value on
    constants c_p(lambda) and walks the lattice one step at a time using
    only Laplacian eigenvalues omega(mu).

The script tabulates the spectrum over C and H, walks the recursion, checks
the functional equation eta(lambda) eta(-lambda) = c_p(lambda) c_p(-lambda),
and maps the pole/zero landscape on the real axis.
"""

import numpy as np

from coslam import (
    FieldTag,
    GrassmannSignature,
    c_p,
    enumerate_ktypes,
    eta,
    eta_by_recursion,
    eta_step_ratio,
    omega,
)

lam = 5.25 + 0.75j

for field in (FieldTag.COMPLEX, FieldTag.QUATERNION):
    sig = GrassmannSignature(3, 2, field)
    print(f"== {sig.label()}  (d={sig.d}, rho={sig.rho}) at lambda = {lam} ==")
    print(f"{'mu':>8} {'omega':>8} {'eta (closed form)':>28} {'recursion rel diff':>20}")
    for mu in enumerate_ktypes(sig, 8):
        a = eta(sig, mu, lam).value
        b = eta_by_recursion(sig, mu, lam).value
        print(f"{str(mu):>8} {omega(sig, mu):>8.3f} {a:>28.12f} "
              f"{abs(a - b) / abs(a):>20.1e}")
    print()

# One recursion step in detail: adjacent types differ by a rational factor in
# lambda that only involves the type and the geometry of the space.
sig = GrassmannSignature(3, 2, FieldTag.COMPLEX)
print("== one lattice step, (2,0) -> (4,0) ==")
step = eta_step_ratio(sig, (2, 0), 0, lam).value
print("step ratio:", step)
print("eta(4,0)/eta(2,0):", (eta(sig, (4, 0), lam) / eta(sig, (2, 0), lam)).value)

# Functional equation: the transform composed with its mirror is scalar.
print("\n== functional equation on random types ==")
rng = np.random.default_rng(0)
for _ in range(4):
    pool = enumerate_ktypes(sig, 10)
    mu = pool[rng.integers(len(pool))]
    z = complex(rng.uniform(-3, 3), rng.uniform(0.5, 2))
    lhs = (eta(sig, mu, z) * eta(sig, mu, -z)).value
    rhs = (c_p(sig, z) * c_p(sig, -z)).value
    print(f"  mu={mu}: |eta(z)eta(-z) - cp(z)cp(-z)| / |rhs| = "
          f"{abs(lhs - rhs) / abs(rhs):.1e}")

# The meromorphic structure on the real axis: explicit pole/zero markers.
print("\n== pole/zero landscape of eta_(2,0) on the real axis ==")
for x in np.arange(-2.0, 8.5, 0.5):
    v = eta(sig, (2, 0), complex(x))
    if v.order:
        print(f"  lambda = {x:+.1f}: {v}")
