"""The cosine transform on the sphere: eigenvalues three ways.

The operator averages a function on S^n against the kernel |<x, w>|^(lambda-rho)
with rho = (n+1)/2.  Rotation invariance forces it to act as a scalar on each
space of degree-m spherical harmonics; this script computes that scalar from

  1. the closed form (a quotient of Gamma functions with an explicit
     polynomial factor),
  2. a 1-D integral (the classical reduction to the interval),
  3. the full 2-D quadrature transform applied to an actual zonal harmonic,

and shows all three agree.
"""

import numpy as np

from coslam import (
    cos_transform_sphere,
    funk_hecke_1d,
    sphere_eta,
    sphere_grid,
    zonal_values,
)

n = 2
rho = (n + 1) / 2.0

print(f"== eigenvalues on S^{n} (rho = {rho}) ==")
print(f"{'m':>3} {'lambda':>8} {'closed form':>16} {'1-D integral':>16} {'diff':>10}")
for m in (0, 2, 4, 6):
    for lam in (rho + 0.5, rho + 2.0):
        closed = sphere_eta(n, m, lam)
        oneD = funk_hecke_1d(n, m, lam)
        c = closed.value.real
        print(f"{m:>3} {lam:>8.2f} {c:>16.10f} {oneD.real:>16.10f} "
              f"{abs(c - oneD):>10.1e}")

# On the circle the 1-D integrand carries (1 - t^2)^(-1/2), singular at t = 1.
closed, oneD = sphere_eta(1, 8, 1.5).value.real, funk_hecke_1d(1, 8, 1.5).real
print(f"S^1, m = 8, lambda = 1.50: closed form {closed:+.10f}, "
      f"1-D integral {oneD:+.10f}, diff {abs(closed - oneD):.1e}")

# The eigenvalue on degree-2 harmonics vanishes at lambda = rho: the closed
# form reports an explicit zero marker, and the integral shrinks linearly as
# lambda approaches rho from the right.
print("\n== the zero of the degree-2 eigenvalue at lambda = rho ==")
print("closed form at rho:", sphere_eta(n, 2, rho))
for eps in (1e-1, 1e-2, 1e-3):
    print(f"  1-D integral at rho + {eps:g}: {funk_hecke_1d(n, 2, rho + eps).real:+.3e}")

# Apply the kernel by quadrature to a real zonal harmonic and watch it come
# back scaled by the same eigenvalue.
print("\n== full quadrature transform on a grid ==")
grid = sphere_grid(n, order=48)
lam = rho + 2.0
t = grid.points @ np.array([0.0, 0.0, 1.0])
for m in (0, 2, 4):
    f = zonal_values(n, m, t)
    out = cos_transform_sphere(n, lam, f, grid)
    ev = sphere_eta(n, m, lam).value
    print(f"  m={m}: sup |C f - eta_m f| = {np.abs(out - ev * f).max():.2e} "
          f"(eta_m = {ev.real:+.8f})")

for m in (1, 3):
    f = zonal_values(n, m, t)
    out = cos_transform_sphere(n, lam, f, grid)
    print(f"  m={m}: odd harmonic annihilated, sup |C f| = {np.abs(out).max():.2e}")
