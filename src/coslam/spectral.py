"""Exact eigenvalue calculus of the cosine and sine transforms on Grassmannians.

The transform acts as a scalar eta_mu(lambda) on each irreducible piece of
L^2 of the Grassmannian (the K-types, indexed by p-tuples of even integers).
This module implements:

* the closed forms c_p, eta, nu (one vectorized Gindikin-Gamma ratio over
  arrays of lambda and K-types, whose factors _plan lays out and
  _gindikin_block evaluates), the Gindikin Gamma gindikin_gamma and the
  sphere specialization sphere_eta,
* the adjacent-type step ratio and the spectrum-generating recursion that
  rebuilds eta from eta_0 = c_p one lattice step at a time,
* the K-type lattice itself (enumeration, adjacency, Casimir eigenvalue).

A spectral quantity at one point is a SpectralValue, which keeps explicit
pole/zero markers with orders so that ratios of Gamma factors at coinciding
singularities come out right instead of degenerating to inf/nan.  Over
arrays of lambda or K-types it is a SpectralArray: the Laurent orders and
log coefficients as two numpy arrays, whose cells are SpectralValues.  Every
Gamma or linear factor is such a cell (_gamma, _linear), and every product
is a sum of the columns (SpectralArray.prod, and `*` and `/` of the one
algebra _Laurent that both types share, so a value and an array combine).

Everything is a pure function of immutable values; thread-safe throughout.
"""

import cmath
import functools
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .scalar import log_gamma

__all__ = [
    "FieldTag",
    "GrassmannSignature",
    "KType",
    "SpectralValue",
    "SpectralArray",
    "ktype",
    "enumerate_ktypes",
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
    def split_rank_equal(self):
        """True when p = q, the case where the orthocomplement map is defined."""
        return self.p == self.q

    def label(self):
        return f"Gr_{self.p}({self.field.label}^{self.n + 1})"


def _is_dominant(sig, m):
    if len(m) != sig.p or any(mj % 2 for mj in m):
        return False
    if sig.field is FieldTag.REAL and sig.split_rank_equal:
        m = (*m[:-1], abs(m[-1]))  # a signed last entry with |m_p| <= m_{p-1}
    elif m[-1] < 0:
        return False
    return all(a >= b for a, b in zip(m, m[1:]))


@dataclass(frozen=True)
class KType:
    """Spherical highest weight: a p-tuple of even integers.

    Weakly decreasing and nonnegative, except over R with p = q where the
    last entry may be negative with |m_p| <= m_{p-1}.
    """

    m: tuple

    def __post_init__(self):
        m = tuple(self.m)
        if not all(float(x).is_integer() for x in m):
            raise ValueError(f"K-type entries must be integers, got {m}")
        object.__setattr__(self, "m", tuple(int(x) for x in m))

    @property
    def degree(self):
        """|mu| = sum of the entries (signed)."""
        return sum(self.m)

    @property
    def is_zero(self):
        return all(x == 0 for x in self.m)

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.m) + ")"


def ktype(sig, m):
    """Validate the tuple m against sig's lattice and wrap it as a KType."""
    mu = m if isinstance(m, KType) else KType(m)
    if not _is_dominant(sig, mu.m):
        raise ValueError(f"{mu.m} is not a valid K-type for {sig.label()}")
    return mu


# ---------------------------------------------------------------------------
# SpectralValue: finite complex numbers plus explicit pole/zero markers.
# ---------------------------------------------------------------------------


class _Laurent:
    """The algebra of SpectralValue and SpectralArray over their _columns,
    the Laurent orders and the logs of the leading coefficients: `*` and
    `/` add and subtract the columns and `==` compares them, with numpy
    broadcasting, so a value combines with every cell of an array."""

    def _apply(self, other, op, join):
        if not isinstance(other, _Laurent):
            return NotImplemented
        return join(*map(op, self._columns, other._columns))

    def __eq__(self, other):
        return self._apply(other, operator.eq, operator.and_)

    def __mul__(self, other):
        return self._apply(other, operator.add, _spectral)

    def __truediv__(self, other):
        return self._apply(other, operator.sub, _spectral)


@dataclass(frozen=True, eq=False, unsafe_hash=True)  # hashed by its two fields
class SpectralValue(_Laurent):
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
        try:
            return cmath.exp(self.log_coeff)
        except OverflowError:
            raise OverflowError(f"|value| = exp({self.log_coeff.real:.6g}) "
                                "exceeds the double-precision range") from None

    @property
    def _columns(self):
        return self.laurent_order, self.log_coeff

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


@dataclass(frozen=True, eq=False)
class SpectralArray(_Laurent):
    """An array of SpectralValues held as two read-only columns: the Laurent
    orders (int) and the logs of the leading coefficients (complex).

    Indexing gives a SpectralValue for one cell and a SpectralArray
    otherwise; iteration runs over the first axis.  `==`, `*` and `/` go
    cell by cell against a SpectralArray or a SpectralValue (`==` gives a
    bool array).
    """

    order: np.ndarray
    log: np.ndarray

    def __post_init__(self):
        for name in ("order", "log"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def shape(self):
        return self.order.shape

    def __len__(self):
        return len(self.order)

    @property
    def _columns(self):
        return self.order, self.log

    def __getitem__(self, index):
        return _spectral(self.order[index], self.log[index])

    def prod(self, axis=None):
        """Product of the cells along axis, or of every cell (1 over an
        empty axis): the two columns summed by numpy."""
        return _spectral(self.order.sum(axis), self.log.sum(axis))


def _spectral(order, log):
    """A SpectralValue for 0-d columns, else a SpectralArray."""
    if getattr(order, "ndim", 0) == 0:  # an int has none; np.ndim(int) is slow
        return SpectralValue(int(order), complex(log))
    return SpectralArray(order, log)


def _gamma(z, slope=1.0, power=1):
    """Gamma(z)^power per element; z, slope and power broadcast together.

    slope is dz/dlambda for z a function of lambda: where z sits on a pole
    of Gamma the cell is a pole marker whose coefficient is the residue over
    slope, so the leading Laurent coefficient in lambda stays exact and
    removable singularities of a product cancel correctly.
    """
    pole, lg = log_gamma(z, log_slope=np.log(np.asarray(slope, dtype=complex)))
    power = np.asarray(power)
    return _spectral(power * pole, power * lg)


def _linear(value, slope):
    """A linear factor ell(lambda) per element, from its value and its slope
    d ell/d lambda; an exact zero becomes a zero marker whose coefficient is
    the slope."""
    value = np.asarray(value, dtype=complex)
    zero = value == 0
    return _spectral(np.negative(zero, dtype=int), np.log(np.where(zero, slope, value)))


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
    return _gamma(np.asarray(v, dtype=complex) - 0.5 * d * np.arange(p)).prod()


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


def _ktype_matrix(sig, mu):
    """One K-type or a sequence of them as a validated (k, p) int matrix,
    and whether mu was one K-type."""
    single = isinstance(mu, KType) or (
        len(mu) and np.ndim(mu[0]) == 0 and not isinstance(mu[0], KType))
    ms = [ktype(sig, m).m for m in ([mu] if single else mu)]
    return np.array(ms, dtype=int).reshape(len(ms), sig.p), single


def omega(sig, mu):
    """Laplacian eigenvalue on the K-type mu, or an array of them over a
    sequence of K-types.

    omega(mu) = pq / (2(n+1)) * sum_j (m_j^2 + 2 m_j (rho - d(j-1) - 1)).
    The sum runs left to right in j.
    """
    ms, single = _ktype_matrix(sig, mu)
    terms = ms * ms + 2.0 * ms * np.array(rho_k(sig))
    out = sig.p * sig.q / (2.0 * (sig.n + 1)) * np.add.accumulate(terms, axis=1)[:, -1]
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _plan(sig, kind, zero_mu=False):
    """Factor columns of the closed form of eta or nu, and its constant head.

    A form is a sign flag for (-1)^(|mu|/2), head entries (c, w) for
    Gamma_{p,d}(c/2)^w and groups (s, c, shifted, w) for
    Gamma_{p,d}((s*lambda + c + mu)/2)^w, mu only if shifted.  Component j
    is Gamma at half_sign*lambda + half_base + m_j/2, half of an exact
    (half-)integer c + m_j - d*j.  With zero_mu (mu = 0) the groups that
    then cancel in pairs are left out.
    """
    rho, d, p = sig.rho, sig.d, sig.p
    if kind == "nu":
        signed, head, first = False, ((2.0 * rho, +1), (rho, -1)), (+1, 0.0, False, +1)
    else:
        signed, head = True, ((d * (sig.n + 1), +1), (d * p, -1))
        first = (+1, -rho + d * p, False, +1)
    groups = (first, (-1, rho, True, +1), (-1, rho, False, -1), (+1, rho, True, -1))
    if zero_mu:
        groups = [(s, c, False, w) for s, c, _, w in groups]
        groups = [g for g in groups if (g[0], g[1], False, -g[3]) not in groups]
    j = np.arange(p)
    half_sign = 0.5 * np.repeat([g[0] for g in groups], p)
    return {
        "sign_pi": 1j * np.pi if signed else 0.0,
        "head_log": complex(sum(w * log_gamma(0.5 * (c - d * j)).sum() for c, w in head)),
        "half_sign": half_sign,
        "half_base": 0.5 * np.concatenate([g[1] - d * j for g in groups]),
        "half_shift": np.hstack([0.5 * g[2] * np.eye(p) for g in groups]),
        "power": np.repeat([g[3] for g in groups], p),
        "log_slope": np.log(half_sign.astype(complex)),  # for residues at poles
    }


# Gamma arguments per numpy pass; longer lambda arrays run in blocks.
_BLOCK = 1 << 18


def _gindikin_block(plan, c, lam):
    """Order and log of the lambda-dependent factors for the halved
    constants c (k, 1, F) and lambda (1, l, 1): arrays of shape (k, l)."""
    half_sign = plan["half_sign"]
    a = half_sign * lam.real
    # TwoSum: a + c = x + e exactly.  The argument is evaluated at x and the
    # error e enters through the pole term of log_gamma, so near a singular
    # hyperplane the distance to the pole is not rounded away.
    x = np.add(a, c, order="C")
    t = x - a
    e = (a - (x - t)) + (c - t)
    z = x.astype(complex)
    z.imag = half_sign * lam.imag
    pole, lg = log_gamma(z, e, plan["log_slope"])
    # A C-ordered product makes every row sum in the same (pairwise) order,
    # whatever the number of rows, so array calls equal scalar calls.
    power = plan["power"]
    return (power * pole).sum(-1), np.multiply(power, lg, order="C").sum(-1)


def _gindikin_ratio(sig, mu, lam, kind):
    """A closed form over K-types mu (one, a sequence, or None for the zero
    K-type) and lambdas lam; every cell is the same elementwise computation."""
    plan = _plan(sig, kind, mu is None)
    ms, single = (np.zeros((1, sig.p), dtype=int), True) if mu is None else _ktype_matrix(sig, mu)
    kshape = () if single else (len(ms),)
    c = plan["half_base"] + ms @ plan["half_shift"]
    degree = ms.sum(axis=1)
    lam = np.asarray(lam, dtype=complex)
    if np.count_nonzero(np.isfinite(lam)) != lam.size:
        raise ValueError("lambda must be finite")
    lshape, lam = lam.shape, lam.reshape(-1)
    step = max(1, _BLOCK // max(1, c.size))
    order, log = zip(*(_gindikin_block(plan, c[:, None, :], lam[None, l0:l0 + step, None])
                       for l0 in range(0, max(len(lam), 1), step)))
    order = np.concatenate(order, axis=1)
    head = plan["head_log"] + plan["sign_pi"] * (degree // 2)
    log = np.concatenate(log, axis=1) + head[:, None]
    return _spectral(order.reshape(kshape + lshape), log.reshape(kshape + lshape))


def c_p(sig, lam):
    """Value of the transform on constants (the c-function of the parabolic).

    c_p(lambda) = Gamma_{p,d}(d(n+1)/2) / Gamma_{p,d}(dp/2)
                  * Gamma_{p,d}((lambda - rho + dp)/2) / Gamma_{p,d}((lambda + rho)/2),

    all Gindikin arguments being constant tuples (z, ..., z).  Meromorphic in
    lambda; pole/zero markers are returned on the singular set.  This is
    eta at mu = 0, and takes an array of lambdas as eta does (a
    SpectralArray of lam's shape).
    """
    return _gindikin_ratio(sig, None, lam, "eta")


def eta(sig, mu, lam):
    """Eigenvalue of the cosine transform on the K-type mu (closed form).

    eta_mu(lambda) = (-1)^(|mu|/2) * Gamma_{p,d}(d(n+1)/2)/Gamma_{p,d}(dp/2)
        * Gamma_{p,d}((lambda-rho+dp)/2) Gamma_{p,d}((-lambda+rho+mu)/2)
        / (Gamma_{p,d}((-lambda+rho)/2) Gamma_{p,d}((lambda+rho+mu)/2))

    where (z+mu)/2 is the tuple ((z+m_j)/2)_j.  eta(sig, 0, lam) == c_p(sig, lam).

    mu may be a sequence of K-types and lam an array: the result is then a
    SpectralArray of shape (len(mu),) + lam.shape (no first axis for one
    K-type), each cell equal to its scalar call.
    """
    return _gindikin_ratio(sig, mu, lam, "eta")


def eta_step_ratio(sig, mu, j, lam):
    """Ratio eta_{mu + 2 e_j} / eta_mu, for 0 <= j < p:

    (lambda - m_j - rho + d(j-1)) / (lambda + m_j + rho - d(j-1)).

    Requires mu + 2 e_j to be a valid K-type.  Zero marker when the numerator
    vanishes, pole marker when the denominator does.
    """
    mu = ktype(sig, mu)
    if not 0 <= j < sig.p:
        raise ValueError(f"need 0 <= j < p = {sig.p}, got j = {j}")
    if not _is_dominant(sig, mu.m[:j] + (mu.m[j] + 2,) + mu.m[j + 1:]):
        raise ValueError(f"mu + 2e_{j + 1} leaves the lattice for mu = {mu}")
    lam = complex(lam)
    shift = mu.m[j] + sig.rho - sig.d * j
    return _linear(lam - shift, 1.0) / _linear(lam + shift, 1.0)


def _monotone_path(mu):
    """Lattice path 0 -> mu filling coordinates left to right in +/-2 steps."""
    ends = [(0,) * len(mu.m)]
    for j, mj in enumerate(mu.m):
        for _ in range(abs(mj) // 2):
            cur = ends[-1]
            ends.append(cur[:j] + (cur[j] + (2 if mj > 0 else -2),) + cur[j + 1:])
    return list(zip(ends, ends[1:]))


def eta_by_recursion(sig, mu, lam, path=None):
    """Eigenvalue on mu rebuilt through the spectrum-generating recursion.

    Starting from eta_0 = c_p(lambda), each lattice step mu' -> sigma in
    +/- 2 e_j multiplies by

        (2r - omega(sigma) + omega(mu')) / (2r + omega(sigma) - omega(mu'))

    with r = lambda * pq/(n+1).  By default the steps follow the monotone
    path filling m_1 first, then m_2, etc.; any path of (mu', sigma) pairs
    from 0 to mu through valid K-types gives the same value, and any other
    path raises ValueError.  lam may be an array: the result is then a
    SpectralArray of its shape, each cell equal to its scalar call.
    """
    mu = ktype(sig, mu)
    lam = np.asarray(lam, dtype=complex)
    if path is None:
        path = _monotone_path(mu)
    path = [tuple(ktype(sig, t).m for t in step) for step in path]
    ends = [(0,) * sig.p] + [nxt for _, nxt in path]
    if ([cur for cur, _ in path] != ends[:-1] or ends[-1] != mu.m
            or any(sum(abs(a - b) for a, b in zip(*step)) != 2 for step in path)):
        raise ValueError(f"path must run from 0 to {mu} in steps of +/-2 e_j")
    dws = np.diff(omega(sig, ends))
    scale = sig.p * sig.q / (sig.n + 1.0)
    # 2r; the steps go on the last axis, which every cell sums as a scalar call does
    r2 = 2.0 * lam[..., None] * scale
    steps = _linear(r2 - dws, 2.0 * scale) / _linear(r2 + dws, 2.0 * scale)
    return c_p(sig, lam) * steps.prod(axis=-1)


def nu(sig, mu, lam):
    """Eigenvalue of the sine transform (p = q only).

    nu_mu(lambda) = Gamma_{p,d}(rho)/Gamma_{p,d}(rho/2)
        * Gamma_{p,d}(lambda/2) Gamma_{p,d}((-lambda+rho+mu)/2)
        / (Gamma_{p,d}((-lambda+rho)/2) Gamma_{p,d}((lambda+rho+mu)/2))

    with rho = dp.  Equals (-1)^(|mu|/2) eta_mu(lambda).  Takes arrays of
    K-types and lambdas as eta does, and then returns a SpectralArray.
    """
    if not sig.split_rank_equal:
        raise ValueError("the sine transform needs p = q")
    return _gindikin_ratio(sig, mu, lam, "nu")


def sphere_eta(n, m, lam):
    """Cosine-transform eigenvalue on degree-m harmonics of the n-sphere.

    With rho = (n+1)/2:

        Gamma(rho)/Gamma(1/2)
        * Gamma((lambda-rho+1)/2) / Gamma((lambda+rho+m)/2)
        * prod_{k=0}^{m/2-1} (lambda - rho - 2k)/2

    The product is the polynomial form of
    (-1)^(m/2) Gamma((-lambda+rho+m)/2)/Gamma((-lambda+rho)/2); evaluating it
    directly keeps the would-be 0/0 points clean.  lam may be an array: the
    result is then a SpectralArray of its shape, each cell equal to its
    scalar call.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if m < 0 or m % 2 != 0:
        raise ValueError("m must be a nonnegative even integer")
    lam = np.asarray(lam, dtype=complex)[..., None]
    rho = (n + 1) / 2.0
    z = np.broadcast_arrays(rho, 0.5, 0.5 * (lam - rho + 1.0), 0.5 * (lam + rho + m))
    gammas = _gamma(np.concatenate(z, axis=-1), slope=[1.0, 1.0, 0.5, 0.5], power=[1, -1, 1, -1])
    poly = _linear(0.5 * (lam - rho - 2.0 * np.arange(m // 2)), 0.5)
    return gammas.prod(axis=-1) * poly.prod(axis=-1)
