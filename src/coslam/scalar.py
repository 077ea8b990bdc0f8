"""Field-agnostic scalar machinery: complex log-Gamma, Gegenbauer polynomials
and 1-D Gauss-Legendre rules.

Everything here is a pure function of its inputs; there is no shared state,
so all routines are safe to call concurrently.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, gammasgn, loggamma

__all__ = [
    "GammaPole",
    "QuadratureRule1D",
    "log_gamma",
    "gegenbauer",
    "gauss_legendre",
]

#: Distance below which an argument counts as sitting on a Gamma pole.
POLE_TOL = 1e-14


class GammaPole(ArithmeticError):
    """Raised when log_gamma is evaluated at a non-positive integer."""

    def __init__(self, k):
        super().__init__(f"log_gamma pole at z = {-k}")
        self.k = k  # pole at z = -k, k >= 0


def log_gamma(z, residual=None, log_slope=None):
    """Principal-branch log Gamma, elementwise (a complex for a scalar z).
    Real arguments go through scipy's gammaln and gammasgn, all others
    through complex loggamma.

    `residual` (real) gives log Gamma(z + residual) for an offset below the
    rounding of z, such as a TwoSum error: where the nearest integer k to
    Re z is <= 0 the pole term -log1p(residual / (z - k)) is added.

    An element within 1e-14 (in modulus) of a pole -k raises GammaPole,
    unless log_slope, the log of dz/dlambda for z a function of lambda, is
    given.  Then the result is (pole, logs): pole flags those elements, and
    their log is that of the leading Laurent coefficient of Gamma(z(lambda))
    in lambda, (-1)^k / (k! dz/dlambda).  A non-finite z raises ValueError.
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
        if log_slope is None:
            raise GammaPole(int(-near[pole][0]))
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
    if log_slope is not None:
        return pole, out
    return complex(out) if out.ndim == 0 else out


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


@dataclass(frozen=True)
class QuadratureRule1D:
    """Nodes/weights on (-1, 1); weights positive and summing to 2."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 2.0) > 1e-12:
            raise ValueError("weights must sum to 2")

    def mapped(self, a, b):
        """Nodes/weights transported to the interval (a, b)."""
        half = 0.5 * (b - a)
        return 0.5 * (a + b) + half * self.nodes, half * self.weights


def gauss_legendre(order):
    """Gauss-Legendre rule of the given order on (-1, 1).

    Exact for polynomials of degree <= 2*order - 1.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return QuadratureRule1D(nodes, weights)
