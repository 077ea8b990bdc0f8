"""Monte Carlo over Haar measure confirms the closed forms.

The value of the transform on constants is an integral over the compact
group, c_p(lambda) = E[alpha(k)^(lambda - rho)] for Haar-random k.  Sampling
k by QR of Ginibre matrices makes this a one-line estimator; the same
machinery estimates the eigenvalue on the first nontrivial K-type through a
degree-2 invariant test function.

Estimates come with sample standard errors and are bit-reproducible for a
fixed (seed, workers).
"""

import numpy as np

from coslam import (
    FieldTag,
    GrassmannSignature,
    alpha_p,
    c_p,
    eta,
    haar_sample,
    mc_c_p,
    mc_transform_ktype,
)

print("== Haar samples are honest group elements ==")
rng = np.random.default_rng(1)
for field in FieldTag:
    sig = GrassmannSignature(3, 2, field)
    k = haar_sample(sig, rng)
    u_err = np.abs(k.mat.conj().T @ k.mat - np.eye(k.mat.shape[0])).max()
    print(f"  {sig.label()}: unitarity error {u_err:.1e}, "
          f"alpha(k) = {alpha_p(sig, k):.4f} = alpha(k^-1) symmetry built in")

print("\n== c_p by Monte Carlo vs closed form (400k samples) ==")
for field in FieldTag:
    sig = GrassmannSignature(3, 2, field)
    lam = sig.rho + 1.0
    est = mc_c_p(sig, lam, samples=400_000, seed=7)
    ref = c_p(sig, lam).value.real
    z = abs(est.mean.real - ref) / est.stderr
    print(f"  {sig.label()}: estimate {est.mean.real:.6f} +/- {est.stderr:.6f}, "
          f"closed form {ref:.6f}  (z = {z:.2f})")

print("\n== beyond constants: the first K-type on Gr_2(R^4) ==")
sig = GrassmannSignature(3, 2, FieldTag.REAL)
lam = sig.rho + 2.0
est = mc_transform_ktype(sig, lam, (2, 0), samples=400_000, seed=11)
ref = eta(sig, (2, 0), lam).value.real
print(f"  estimate {est.mean.real:.6f} +/- {est.stderr:.6f}, "
      f"closed form {ref:.6f} (= 1/18)")

print("\n== reproducibility: same seed, same bits ==")
a = mc_c_p(sig, lam, samples=50_000, seed=3, workers=4)
b = mc_c_p(sig, lam, samples=50_000, seed=3, workers=4)
print(f"  two runs with workers=4: identical = {a == b}")
