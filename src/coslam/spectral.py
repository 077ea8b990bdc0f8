"""Exact eigenvalue calculus of the cosine and sine transforms on Grassmannians.

The transform acts as a scalar eta_mu(lambda) on each irreducible piece of
L^2 of the Grassmannian (the K-types, indexed by p-tuples of even integers).
This module implements:

* the product-of-Gammas function gindikin_gamma underlying every closed form,
* the closed forms c_p, eta, nu and the sphere specialization sphere_eta,
* the adjacent-type step ratio and the spectrum-generating recursion that
  rebuilds eta from eta_0 = c_p one lattice step at a time,
* the K-type lattice itself (enumeration, adjacency, Casimir eigenvalue).

All spectral quantities are returned as SpectralValue, which keeps explicit
pole/zero markers with orders so that ratios of Gamma factors at coinciding
singularities come out right instead of degenerating to inf/nan.

Everything is a pure function of immutable values; thread-safe throughout.
"""

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .scalar import gamma_pole_residue_log, is_gamma_pole, log_gamma

__all__ = [
    "FieldTag",
    "GrassmannSignature",
    "KType",
    "SpectralValue",
    "gindikin_gamma",
    "enumerate_ktypes",
    "neighbors",
    "rho_k",
    "omega",
    "c_p",
    "eta",
    "eta_step_ratio",
    "eta_by_recursion",
    "nu",
    "sphere_eta",
]


class FieldTag(Enum):
    """Base (skew-)field of the Grassmannian; the value is its real dimension."""

    REAL = 1
    COMPLEX = 2
    QUATERNION = 4

    @property
    def d(self):
        return self.value

    @property
    def label(self):
        return {1: "R", 2: "C", 4: "H"}[self.value]

    @classmethod
    def from_label(cls, s):
        try:
            return {"R": cls.REAL, "C": cls.COMPLEX, "H": cls.QUATERNION}[s.upper()]
        except KeyError:
            raise ValueError(f"unknown field label {s!r}, expected R, C or H") from None


@dataclass(frozen=True)
class GrassmannSignature:
    """The Grassmannian of p-dimensional subspaces of K^(n+1).

    Derived quantities: q = n+1-p, d = dim_R K, rho = d(n+1)/2.  The
    transform integrals converge for Re(lambda) >= rho.
    """

    n: int
    p: int
    field: FieldTag

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("need n >= 1 and p >= 1")
        if self.p > self.q:
            raise ValueError(f"need p <= q = n+1-p, got p={self.p}, q={self.q}")

    @property
    def q(self):
        return self.n + 1 - self.p

    @property
    def d(self):
        return self.field.d

    @property
    def rho(self):
        return self.d * (self.n + 1) / 2.0

    @property
    def convergence_threshold(self):
        return self.rho

    @property
    def split_rank_equal(self):
        """True when p = q, the case where the orthocomplement map is defined."""
        return self.p == self.q

    def label(self):
        return f"Gr_{self.p}({self.field.label}^{self.n + 1})"


def _is_dominant(sig, m):
    if len(m) != sig.p:
        return False
    if any(mj % 2 != 0 for mj in m):
        return False
    signed_last = sig.field is FieldTag.REAL and sig.split_rank_equal
    body = m[:-1] if signed_last else m
    tail = abs(m[-1]) if signed_last else m[-1]
    if any(body[i] < body[i + 1] for i in range(len(body) - 1)):
        return False
    if body and body[-1] < tail:
        return False
    if not signed_last and m and m[-1] < 0:
        return False
    return True


@dataclass(frozen=True)
class KType:
    """Spherical highest weight: a p-tuple of even integers.

    Weakly decreasing and nonnegative, except over R with p = q where the
    last entry may be negative with |m_p| <= m_{p-1}.
    """

    m: tuple

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(int(x) for x in self.m))

    @property
    def degree(self):
        """|mu| = sum of the entries (signed)."""
        return sum(self.m)

    @property
    def abs_degree(self):
        return sum(abs(x) for x in self.m)

    @property
    def is_zero(self):
        return all(x == 0 for x in self.m)

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.m) + ")"


def ktype(sig, m):
    """Validate the tuple m against sig's lattice and wrap it as a KType."""
    mu = m.m if isinstance(m, KType) else tuple(int(x) for x in m)
    if not _is_dominant(sig, mu):
        raise ValueError(f"{mu} is not a valid K-type for {sig.label()}")
    return KType(mu)


# ---------------------------------------------------------------------------
# SpectralValue: finite complex numbers plus explicit pole/zero markers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralValue:
    """A meromorphic-function value: finite, or a pole/zero with an order.

    Internally the leading Laurent coefficient is kept (as a log, so huge
    Gamma products cannot overflow).  That makes products and quotients of
    singular values land on the correct finite number when the orders cancel,
    e.g. Gamma(0)/Gamma(-1) = -1.
    """

    laurent_order: int = 0  # > 0: pole of that order, < 0: zero, 0: finite
    log_coeff: complex = 0.0 + 0.0j

    @classmethod
    def finite(cls, value):
        value = complex(value)
        if value == 0:
            raise ValueError("use SpectralValue.zero for exact zeros")
        return cls(0, cmath.log(value))

    @classmethod
    def one(cls):
        return cls(0, 0.0 + 0.0j)

    @classmethod
    def pole(cls, order, log_coeff=0.0 + 0.0j):
        if order <= 0:
            raise ValueError("pole order must be positive")
        return cls(order, complex(log_coeff))

    @classmethod
    def zero(cls, order, log_coeff=0.0 + 0.0j):
        if order <= 0:
            raise ValueError("zero order must be positive")
        return cls(-order, complex(log_coeff))

    @property
    def tag(self):
        if self.laurent_order > 0:
            return "pole"
        if self.laurent_order < 0:
            return "zero"
        return "finite"

    @property
    def is_finite(self):
        return self.laurent_order == 0

    @property
    def is_pole(self):
        return self.laurent_order > 0

    @property
    def is_zero(self):
        return self.laurent_order < 0

    @property
    def order(self):
        """Positive order of the pole/zero (undefined for finite values)."""
        if self.laurent_order == 0:
            raise ValueError("finite value has no pole/zero order")
        return abs(self.laurent_order)

    @property
    def value(self):
        """The complex value; 0 for a zero marker, error for a pole."""
        if self.laurent_order > 0:
            raise ValueError("pole has no finite value")
        if self.laurent_order < 0:
            return 0.0 + 0.0j
        return cmath.exp(self.log_coeff)

    def __mul__(self, other):
        if isinstance(other, SpectralValue):
            return SpectralValue(self.laurent_order + other.laurent_order,
                                 self.log_coeff + other.log_coeff)
        return self * SpectralValue.finite(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, SpectralValue):
            return SpectralValue(self.laurent_order - other.laurent_order,
                                 self.log_coeff - other.log_coeff)
        return self / SpectralValue.finite(other)

    def _mul_linear(self, value, slope, power=1):
        # Multiply by ell(lambda)^power where ell has the given value and
        # d ell/d lambda at the evaluation point.  An exact zero of ell turns
        # into an order marker with the slope as leading coefficient.
        if value == 0:
            return SpectralValue(self.laurent_order - power,
                                 self.log_coeff + power * cmath.log(complex(slope)))
        return SpectralValue(self.laurent_order,
                             self.log_coeff + power * cmath.log(complex(value)))

    def to_json(self):
        if self.is_pole:
            return {"tag": "pole", "order": self.order}
        if self.is_zero:
            return {"tag": "zero", "order": self.order}
        v = self.value
        return {"tag": "finite", "re": v.real, "im": v.imag}

    def __str__(self):
        if self.is_pole:
            return f"pole(order={self.order})"
        if self.is_zero:
            return f"zero(order={self.order})"
        return str(self.value)


class GammaProduct:
    """Accumulator for products of Gamma factors of a single variable lambda.

    Each factor Gamma(a(lambda))^power is recorded together with the slope
    a'(lambda); when a sits on a pole of Gamma the factor contributes
    residue/(slope (lambda-lambda_0)), so the leading Laurent coefficient in
    lambda stays exact and removable singularities cancel correctly.
    """

    def __init__(self):
        self._order = 0
        self._log = 0.0 + 0.0j

    def mul_gamma(self, z, slope=1.0, power=1):
        k = is_gamma_pole(z)
        if k is not None:
            self._order += power
            self._log += power * (gamma_pole_residue_log(k) - cmath.log(complex(slope)))
        else:
            self._log += power * log_gamma(z)
        return self

    def mul_linear(self, value, slope, power=1):
        if value == 0:
            self._order -= power
            self._log += power * cmath.log(complex(slope))
        else:
            self._log += power * cmath.log(complex(value))
        return self

    def mul_sign(self, k):
        """Multiply by (-1)^k."""
        self._log += 1j * math.pi * k
        return self

    def value(self):
        return SpectralValue(self._order, self._log)


# ---------------------------------------------------------------------------
# Gindikin Gamma and the K-type lattice.
# ---------------------------------------------------------------------------


def gindikin_gamma(p, d, v):
    """Gindikin (Siegel) Gamma: prod_j Gamma(v_j - (d/2)(j-1)).

    Returns a pole marker carrying the total order when any factor sits on a
    singular hyperplane v_j - (d/2)(j-1) in {0, -1, -2, ...}.
    """
    if p < 1 or d not in (1, 2, 4):
        raise ValueError("need p >= 1 and d in {1, 2, 4}")
    v = tuple(v)
    if len(v) != p:
        raise ValueError(f"argument tuple has length {len(v)}, expected {p}")
    gp = GammaProduct()
    for j, vj in enumerate(v):
        gp.mul_gamma(complex(vj) - 0.5 * d * j)
    return gp.value()


def _mul_gindikin(gp, sig, sign, lam, const, shifts, power):
    # Gamma_{p,d} of the tuple ((sign*lam + const + shifts_j)/2)_j, sign in
    # {-1, 0, +1}.  Component j is Gamma((sign*lam + c_j)/2) with
    # c_j = const + shifts_j - d*j, an exact (half-)integer, so each argument
    # is rounded once and the halving is exact.  Near a singular hyperplane
    # the relative error is the argument's rounding over its distance to the
    # pole, so every extra rounding would show there.
    d = sig.d
    lam = sign * lam
    for j in range(sig.p):
        gp.mul_gamma(0.5 * (lam + (const + shifts[j] - d * j)), slope=0.5 * sign, power=power)


def enumerate_ktypes(sig, max_degree):
    """All K-types with sum_j |m_j| <= max_degree.

    Ordered by that degree, then lexicographically descending, so output is
    deterministic.  Over R with p = q the sign-exceptional types (negative
    last entry) are included.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    out = []

    def build(prefix, j, budget, cap):
        if j == sig.p:
            out.append(tuple(prefix))
            return
        top = min(cap, budget)
        for mj in range(0, top + 1, 2):
            build(prefix + [mj], j + 1, budget - mj, mj)

    build([], 0, max_degree, max_degree)
    if sig.field is FieldTag.REAL and sig.split_rank_equal:
        extra = [t[:-1] + (-t[-1],) for t in out if t[-1] > 0]
        out.extend(extra)
    out.sort(key=lambda t: (sum(abs(x) for x in t), tuple(-x for x in t)))
    return [KType(t) for t in out]


def neighbors(sig, mu):
    """The adjacent K-types {mu +/- 2 e_j} that stay inside the lattice."""
    mu = ktype(sig, mu)
    found = []
    for j in range(sig.p):
        for step in (2, -2):
            cand = list(mu.m)
            cand[j] += step
            cand = tuple(cand)
            if _is_dominant(sig, cand) and cand not in found:
                found.append(cand)
    return [KType(t) for t in found]


def rho_k(sig):
    """Half sum of the compact positive roots: entry j is rho - d(j-1) - 1."""
    return tuple(sig.rho - sig.d * j - 1.0 for j in range(sig.p))


def omega(sig, mu):
    """Laplacian eigenvalue on the K-type mu.

    omega(mu) = pq / (2(n+1)) * sum_j (m_j^2 + 2 m_j (rho - d(j-1) - 1)).
    """
    mu = ktype(sig, mu)
    rk = rho_k(sig)
    s = sum(mj * mj + 2.0 * mj * rk[j] for j, mj in enumerate(mu.m))
    return sig.p * sig.q / (2.0 * (sig.n + 1)) * s


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------


def _shifts(sig, mu=None):
    return (0,) * sig.p if mu is None else mu.m


def c_p(sig, lam):
    """Value of the transform on constants (the c-function of the parabolic).

    c_p(lambda) = Gamma_{p,d}(d(n+1)/2) / Gamma_{p,d}(dp/2)
                  * Gamma_{p,d}((lambda - rho + dp)/2) / Gamma_{p,d}((lambda + rho)/2),

    all Gindikin arguments being constant tuples (z, ..., z).  Meromorphic in
    lambda; pole/zero markers are returned on the singular set.
    """
    lam = complex(lam)
    z = _shifts(sig)
    gp = GammaProduct()
    _mul_gindikin(gp, sig, 0, 0.0, sig.d * (sig.n + 1), z, +1)
    _mul_gindikin(gp, sig, 0, 0.0, sig.d * sig.p, z, -1)
    _mul_gindikin(gp, sig, +1, lam, -sig.rho + sig.d * sig.p, z, +1)
    _mul_gindikin(gp, sig, +1, lam, sig.rho, z, -1)
    return gp.value()


def eta(sig, mu, lam):
    """Eigenvalue of the cosine transform on the K-type mu (closed form).

    eta_mu(lambda) = (-1)^(|mu|/2) * Gamma_{p,d}(d(n+1)/2)/Gamma_{p,d}(dp/2)
        * Gamma_{p,d}((lambda-rho+dp)/2) Gamma_{p,d}((-lambda+rho+mu)/2)
        / (Gamma_{p,d}((-lambda+rho)/2) Gamma_{p,d}((lambda+rho+mu)/2))

    where (z+mu)/2 is the tuple ((z+m_j)/2)_j.  eta(sig, 0, lam) == c_p(sig, lam).
    """
    mu = ktype(sig, mu)
    lam = complex(lam)
    z = _shifts(sig)
    gp = GammaProduct()
    gp.mul_sign(mu.degree // 2)
    _mul_gindikin(gp, sig, 0, 0.0, sig.d * (sig.n + 1), z, +1)
    _mul_gindikin(gp, sig, 0, 0.0, sig.d * sig.p, z, -1)
    _mul_gindikin(gp, sig, +1, lam, -sig.rho + sig.d * sig.p, z, +1)
    _mul_gindikin(gp, sig, -1, lam, sig.rho, mu.m, +1)
    _mul_gindikin(gp, sig, -1, lam, sig.rho, z, -1)
    _mul_gindikin(gp, sig, +1, lam, sig.rho, mu.m, -1)
    return gp.value()


def eta_step_ratio(sig, mu, j, lam):
    """Ratio eta_{mu + 2 e_j} / eta_mu:

    (lambda - m_j - rho + d(j-1)) / (lambda + m_j + rho - d(j-1)).

    Requires mu + 2 e_j to be a valid K-type.  Zero marker when the numerator
    vanishes, pole marker when the denominator does.
    """
    mu = ktype(sig, mu)
    up = list(mu.m)
    up[j] += 2
    if not _is_dominant(sig, tuple(up)):
        raise ValueError(f"mu + 2e_{j + 1} leaves the lattice for mu = {mu}")
    lam = complex(lam)
    shift = mu.m[j] + sig.rho - sig.d * j
    gp = GammaProduct()
    gp.mul_linear(lam - shift, 1.0, +1)
    gp.mul_linear(lam + shift, 1.0, -1)
    return gp.value()


def _monotone_path(mu):
    """Lattice path 0 -> mu filling coordinates left to right in +/-2 steps."""
    cur = [0] * len(mu.m)
    steps = []
    for j, mj in enumerate(mu.m):
        inc = 2 if mj >= 0 else -2
        for _ in range(abs(mj) // 2):
            nxt = list(cur)
            nxt[j] = cur[j] + inc
            steps.append((tuple(cur), tuple(nxt)))
            cur = nxt
    return steps


def eta_by_recursion(sig, mu, lam, path=None):
    """Eigenvalue on mu rebuilt through the spectrum-generating recursion.

    Starting from eta_0 = c_p(lambda), each lattice step mu' -> sigma in
    +/- 2 e_j multiplies by

        (2r - omega(sigma) + omega(mu')) / (2r + omega(sigma) - omega(mu'))

    with r = lambda * pq/(n+1).  By default the steps follow the monotone
    path filling m_1 first, then m_2, etc.; any admissible path gives the
    same value.
    """
    mu = ktype(sig, mu)
    lam = complex(lam)
    if path is None:
        path = _monotone_path(mu)
    scale = sig.p * sig.q / (sig.n + 1.0)
    r2 = 2.0 * lam * scale  # 2r
    val = c_p(sig, lam)
    for cur, nxt in path:
        if not (_is_dominant(sig, cur) and _is_dominant(sig, nxt)):
            raise ValueError(f"path step {cur} -> {nxt} leaves the lattice")
        dw = omega(sig, nxt) - omega(sig, cur)
        val = val._mul_linear(r2 - dw, 2.0 * scale, +1)
        val = val._mul_linear(r2 + dw, 2.0 * scale, -1)
    return val


def nu(sig, mu, lam):
    """Eigenvalue of the sine transform (p = q only).

    nu_mu(lambda) = Gamma_{p,d}(rho)/Gamma_{p,d}(rho/2)
        * Gamma_{p,d}(lambda/2) Gamma_{p,d}((-lambda+rho+mu)/2)
        / (Gamma_{p,d}((-lambda+rho)/2) Gamma_{p,d}((lambda+rho+mu)/2))

    with rho = dp.  Equals (-1)^(|mu|/2) eta_mu(lambda).
    """
    if not sig.split_rank_equal:
        raise ValueError("the sine transform needs p = q")
    mu = ktype(sig, mu)
    lam = complex(lam)
    z = _shifts(sig)
    gp = GammaProduct()
    _mul_gindikin(gp, sig, 0, 0.0, 2.0 * sig.rho, z, +1)
    _mul_gindikin(gp, sig, 0, 0.0, sig.rho, z, -1)
    _mul_gindikin(gp, sig, +1, lam, 0, z, +1)
    _mul_gindikin(gp, sig, -1, lam, sig.rho, mu.m, +1)
    _mul_gindikin(gp, sig, -1, lam, sig.rho, z, -1)
    _mul_gindikin(gp, sig, +1, lam, sig.rho, mu.m, -1)
    return gp.value()


def sphere_eta(n, m, lam):
    """Cosine-transform eigenvalue on degree-m harmonics of the n-sphere.

    With rho = (n+1)/2:

        (-1)^(m/2) Gamma(rho)/Gamma(1/2)
        * Gamma((lambda-rho+1)/2) / Gamma((lambda+rho+m)/2)
        * prod_{k=0}^{m/2-1} (-lambda + rho + 2k)/2

    The product is the polynomial form of
    Gamma((-lambda+rho+m)/2)/Gamma((-lambda+rho)/2); evaluating it directly
    keeps the would-be 0/0 points clean.
    """
    if m < 0 or m % 2 != 0:
        raise ValueError("m must be a nonnegative even integer")
    lam = complex(lam)
    rho = (n + 1) / 2.0
    gp = GammaProduct()
    gp.mul_sign(m // 2)
    gp.mul_gamma(rho)
    gp.mul_gamma(0.5, power=-1)
    gp.mul_gamma(0.5 * (lam - rho + 1.0), slope=0.5)
    gp.mul_gamma(0.5 * (lam + rho + m), slope=0.5, power=-1)
    for k in range(m // 2):
        gp.mul_linear(0.5 * (-lam + rho + 2.0 * k), -0.5)
    return gp.value()
