"""Field-agnostic scalar machinery: complex log-Gamma with its pole
markers, Gegenbauer polynomials, 1-D Gauss-Legendre nodes and weights, and
the one argument rule of the two sphere eigenvalue routes.

Everything here is a pure function of its inputs; there is no shared state,
so all routines are safe to call concurrently.
"""

import numbers

import numpy as np
from scipy.special import gammaln, gammasgn, loggamma

__all__ = [
    "log_gamma",
    "gegenbauer",
    "gauss_legendre",
]

#: Distance below which an argument counts as sitting on a Gamma pole.
POLE_TOL = 1e-14


def log_gamma(z, log_slope, residual=None):
    """Principal-branch log Gamma, elementwise, with its poles marked.
    Real arguments go through scipy's gammaln and gammasgn, all others
    through complex loggamma.

    Returns (pole, logs), arrays of z's shape.  pole flags the elements
    within 1e-14 (in modulus) of a pole -k.  Their log is that of the
    leading Laurent coefficient of Gamma(z(lambda)) in lambda,
    (-1)^k / (k! dz/dlambda), where log_slope is the log of dz/dlambda for
    z a function of lambda.  A non-finite z raises ValueError.

    `residual` (real) gives log Gamma(z + residual) for an offset below the
    rounding of z, such as a TwoSum error: where the nearest integer k to
    Re z is <= 0 the pole term -log1p(residual / (z - k)) is added.
    """
    z = np.asarray(z, dtype=complex)
    if np.count_nonzero(np.isfinite(z)) != z.size:
        raise ValueError(f"log_gamma argument must be finite, got {z}")
    near = np.rint(z.real)
    dz = z - near
    left = near <= 0.0
    pole = (np.abs(dz) <= POLE_TOL) & left
    any_pole = np.count_nonzero(pole)
    if any_pole:
        z = np.where(pole, 1.0, z)
        left &= ~pole
    real = z.imag == 0.0
    n_real = np.count_nonzero(real)
    if not n_real:
        out = np.asarray(loggamma(z))
    else:
        x = np.where(real, z.real, 1.0)
        out = gammaln(x) + np.log(gammasgn(x).astype(complex))
        if n_real != real.size:
            out = np.where(real, out, loggamma(z))
    if residual is not None and np.count_nonzero(left):
        out = out - np.log1p(residual / np.where(left, dz, np.inf))
    if any_pole:
        k = np.where(pole, -near, 0.0)
        out = np.where(pole, 1j * np.pi * k - gammaln(k + 1.0) - log_slope, out)
    return pole, out


def gegenbauer(m, nu, t):
    """Degree-m Gegenbauer polynomial C_m^nu(t) by the three-term recurrence.

    C_0 = 1, C_1 = 2 nu t,
    m C_m = 2 t (m + nu - 1) C_{m-1} - (m + 2 nu - 2) C_{m-2}.
    """
    if m < 0:
        raise ValueError("gegenbauer degree must be >= 0")
    if m == 0:
        return 1.0
    prev, cur = 1.0, 2.0 * nu * t
    for j in range(2, m + 1):
        prev, cur = cur, (2.0 * t * (j + nu - 1.0) * cur - (j + 2.0 * nu - 2.0) * prev) / j
    return cur


def _sphere_degree(n, m):
    """(n, m) as ints for the degree-m zonal harmonics of the sphere S^n.

    The argument rule of spectral.sphere_eta and transform.funk_hecke_1d:
    n an integer >= 1 and m an even integer >= 0, integral floats included.
    Anything else raises ValueError.
    """
    def integral(x):
        return isinstance(x, numbers.Real) and float(x).is_integer()

    if not (integral(n) and n >= 1):
        raise ValueError(f"need an integral sphere dimension n >= 1, got {n!r}")
    if not (integral(m) and m >= 0 and m % 2 == 0):
        raise ValueError(f"m must be a nonnegative even integer, got {m!r}")
    return int(n), int(m)


def gauss_legendre(order):
    """The (nodes, weights) arrays of the Gauss-Legendre rule of the given
    order on (-1, 1): nodes increasing, weights positive and summing to 2.

    Exact for polynomials of degree <= 2*order - 1.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return np.polynomial.legendre.leggauss(order)
