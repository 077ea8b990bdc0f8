"""Exact eigenvalue calculus of the cosine and sine transforms on Grassmannians.

The transform acts as a scalar eta_mu(lambda) on each irreducible piece of
L^2 of the Grassmannian (the K-types, indexed by p-tuples of even integers).
This module implements:

* the closed forms c_p, eta, nu (one vectorized Gindikin-Gamma ratio over
  arrays of lambda and K-types, whose one factor table _plan also gives
  the `poles` report's real-axis crossings, factor_crossings), the Gindikin
  Gamma gindikin_gamma, Selberg's integral selberg_closed and the sphere
  specialization sphere_eta,
* the adjacent-type step ratio and the spectrum-generating recursion that
  rebuilds eta from eta_0 = c_p one lattice step at a time,
* the K-type lattice itself (enumeration, Casimir eigenvalue).

A spectral quantity is a SpectralArray: the Laurent orders and the logs of
the leading coefficients as two numpy arrays, with explicit pole/zero
markers and orders so that ratios of Gamma factors at coinciding
singularities come out right instead of degenerating to inf/nan.  One value
is its 0-d case.  Every Gamma or linear factor is such an array (_gamma,
_linear), and every product is a sum of the columns (SpectralArray.prod,
`*` and `/`).

Everything is a pure function of immutable values; thread-safe throughout.
"""

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .scalar import _integral, _sphere_degree, log_gamma

__all__ = [
    "FieldTag",
    "GrassmannSignature",
    "KType",
    "SpectralArray",
    "ktype",
    "enumerate_ktypes",
    "omega",
    "c_p",
    "eta",
    "eta_step_ratio",
    "eta_by_recursion",
    "nu",
    "factor_crossings",
    "sphere_eta",
    "selberg_closed",
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
    transform integrals converge for Re(lambda) >= rho.  n and p must be
    integers (integral floats are read as ints).
    """

    n: int
    p: int
    field: FieldTag

    def __post_init__(self):
        if not (_integral(self.n) and _integral(self.p)):
            raise ValueError(f"need integral n and p, got n={self.n!r}, p={self.p!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "p", int(self.p))
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
        """True when p = q: the case of the sine transform and, over R, of
        K-types with a negative last entry."""
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
# SpectralArray: finite complex numbers plus explicit pole/zero markers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectralArray:
    """Values of a meromorphic function, each finite or a pole/zero with an
    order, held as two read-only columns: the Laurent orders `order` (int;
    > 0 a pole of that order, < 0 a zero, 0 finite) and the logs of the
    leading Laurent coefficients `log` (complex).

    Keeping the coefficient (as a log, so huge Gamma products cannot
    overflow) makes products and quotients of singular values land on the
    correct finite number when the orders cancel, e.g. Gamma(0)/Gamma(-1) =
    -1.  One value is the 0-d case, shape ().

    Indexing gives the SpectralArray of the indexed columns; iteration runs
    over the first axis (a 0-d array raises TypeError, as numpy does).
    `==`, `*` and `/` go cell by cell with numpy broadcasting (`==` gives a
    bool array), and numpy operands defer to them instead of walking the
    cells.  `value` is the array of the cells' values.
    """

    __array_ufunc__ = None

    order: np.ndarray
    log: np.ndarray

    def __post_init__(self):
        for name, dtype in (("order", int), ("log", complex)):
            view = np.asarray(getattr(self, name), dtype=dtype).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def shape(self):
        return self.order.shape

    def __len__(self):
        return len(self.order)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def _apply(self, other, op, join):
        if not isinstance(other, SpectralArray):
            return NotImplemented
        return join(op(self.order, other.order), op(self.log, other.log))

    def __eq__(self, other):
        return self._apply(other, operator.eq, operator.and_)

    def __mul__(self, other):
        return self._apply(other, operator.add, SpectralArray)

    def __truediv__(self, other):
        return self._apply(other, operator.sub, SpectralArray)

    @property
    def value(self):
        """The complex values (a complex for shape ()): exp of each log
        (numpy's exp, or exp(log - 1) * e past log(DBL_MAX / 4), which is
        cmath.exp bit for bit), 0 at a zero marker.  A pole raises ValueError,
        else the first cell in C order with no finite double raises
        OverflowError."""
        if self.order.max(initial=0) > 0:
            raise ValueError("pole has no finite value")
        finite = self.order == 0
        with np.errstate(all="ignore"):
            out = np.exp(self.log, out=np.zeros(self.shape, dtype=complex), where=finite)
            if (big := finite & (self.log.real > 708.3964185322641)).any():  # log(DBL_MAX / 4)
                out[big] = (np.exp(self.log[big] - 1.0).view(float) * math.e).view(complex)
        if not np.isfinite(out).all():
            first = self.log.flat[np.flatnonzero(~np.isfinite(out))[0]]
            if np.isnan(first):
                raise OverflowError("value not computable in double precision: a log-Gamma "
                                    "term overflowed the double-precision range")
            raise OverflowError(f"|value| = exp({first.real:.6g}) exceeds the double-precision range")
        return complex(out) if out.ndim == 0 else out

    def __getitem__(self, index):
        return SpectralArray(self.order[index], self.log[index])

    def prod(self, axis=None):
        """Product of the cells along axis, or of every cell (1 over an
        empty axis): the two columns summed by numpy.  Each row of a C-ordered
        column sums in one pairwise order whatever the number of rows, so
        array calls of the closed forms equal scalar calls."""
        return SpectralArray(self.order.sum(axis), self.log.sum(axis))

    def __str__(self):
        """One value as pole(order=k), zero(order=k) or its complex number."""
        if self.shape:
            return repr(self)
        k = int(self.order)
        return f"pole(order={k})" if k > 0 else f"zero(order={-k})" if k < 0 else str(self.value)


def _gamma(z, slope=1.0, power=1, residual=None):
    """Gamma(z + residual)^power per element, residual as in log_gamma; z,
    slope, power and residual broadcast together.

    slope is dz/dlambda for z a function of lambda: where z sits on a pole
    of Gamma the cell is a pole marker whose coefficient is the residue over
    slope, so the leading Laurent coefficient in lambda stays exact and
    removable singularities of a product cancel correctly.
    """
    pole, lg = log_gamma(z, np.log(np.asarray(slope, dtype=complex)), residual)
    power = np.asarray(power)
    return SpectralArray(power * pole, np.multiply(power, lg, order="C"))


def _linear(value, slope):
    """A linear factor ell(lambda) per element, from its value and its slope
    d ell/d lambda; an exact zero becomes a zero marker whose coefficient is
    the slope."""
    value = np.asarray(value, dtype=complex)
    zero = value == 0
    return SpectralArray(np.negative(zero, dtype=int), np.log(np.where(zero, slope, value)))


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


def selberg_closed(p, alpha, g1, g2):
    """Selberg's integral in closed form:

    prod_{j=1}^{p} Gamma(alpha j + 1) Gamma(alpha (j-1) + g1) Gamma(alpha (j-1) + g2)
                 / (Gamma(alpha + 1) Gamma(alpha (p+j-2) + g1 + g2))

    Meromorphically continued through the log-Gamma representation; returns
    pole/zero markers on the singular set.  p must be an integer >= 1
    (integral floats accepted), as for selberg_oracle.
    """
    if not (_integral(p) and p >= 1):
        raise ValueError(f"p must be an integer >= 1, got {p!r}")
    p = int(p)
    alpha, g1, g2 = complex(alpha), complex(g1), complex(g2)
    j = np.arange(1, p + 1)
    z = np.stack([alpha * j + 1.0, alpha * (j - 1) + g1, alpha * (j - 1) + g2,
                  np.full(p, alpha + 1.0), alpha * (p + j - 2) + g1 + g2], axis=1)
    return _gamma(z, power=[1, 1, 1, -1, -1]).prod()


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
    out = _omega_rows(sig, ms)
    return float(out[0]) if single else out


def _omega_rows(sig, ms):
    """omega over the rows of a (k, p) matrix of valid K-types."""
    terms = ms * ms + 2.0 * ms * np.array(rho_k(sig))
    return sig.p * sig.q / (2.0 * (sig.n + 1)) * np.add.accumulate(terms, axis=1)[:, -1]


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _plan(sig, zero_mu=False):
    """The one table of eta's Gindikin factors, read by c_p, eta, nu and
    the `poles` report: eta_mu(lambda) is (-1)^(|mu|/2) exp(head_log) times
    the groups (name, s, c, shifted, w), Gamma_{p,d}((s*lambda + c + mu)/2)^w
    with mu only if shifted.  Column j of a group (named by `factor`) is
    Gamma at half_sign*lambda + half_base + mu @ half_shift, half of an
    exact (half-)integer, to the power `power`.  For p = q, nu is the same
    table unsigned, as rho = dp.  With zero_mu (mu = 0) the groups that
    then cancel in pairs are left out.
    """
    rho, d, p = sig.rho, sig.d, sig.p
    head = (gindikin_gamma(p, d, [0.5 * d * (sig.n + 1)] * p)
            / gindikin_gamma(p, d, [0.5 * d * p] * p))
    groups = (("cos-kernel", +1, -rho + d * p, False, +1), ("ktype-shift", -1, rho, True, +1),
              ("weight", -1, rho, False, -1), ("kernel-dual", +1, rho, True, -1))
    if zero_mu:
        groups = [(name, s, c, False, w) for name, s, c, _, w in groups]
        groups = [g for g in groups if (*g[1:4], -g[4]) not in [h[1:] for h in groups]]
    j = np.arange(p)
    return {
        "head_log": complex(head.log),
        "factor": np.repeat([g[0] for g in groups], p),
        "half_sign": 0.5 * np.repeat([g[1] for g in groups], p),
        "half_base": 0.5 * np.concatenate([g[2] - d * j for g in groups]),
        "half_shift": np.hstack([0.5 * g[3] * np.eye(p) for g in groups]),
        "power": np.repeat([g[4] for g in groups], p),
    }


def factor_crossings(sig, mu, re_min, re_max):
    """Crossings of [re_min, re_max] by the singular hyperplanes of eta_mu's
    factors in _plan, sorted by (lambda, factor, j, k): the columns lambda_re
    (an array), factor, side, j (from 1) and k.  Column j is Gamma at (s/2)
    lambda + c, singular at -k, k = 0, 1, ...: at lambda = base - 2sk, base = -2sc."""
    plan = _plan(sig)
    consts = plan["half_base"] + np.array(ktype(sig, mu).m) @ plan["half_shift"]
    lam, cols, ks = [], [], []
    for i, (s, c) in enumerate(zip((2.0 * plan["half_sign"]).tolist(), consts.tolist())):
        base = 0.0 - 2.0 * s * c  # not -2sc, which reads -0.0 at c = 0
        lo, hi = (re_min - base, re_max - base) if s < 0 else (base - re_max, base - re_min)
        k = range(max(0, math.ceil(lo / 2.0 - 1e-12)), math.floor(hi / 2.0 + 1e-12) + 1)
        lam += [base - 2.0 * s * kk for kk in k]
        cols += [i] * len(k)
        ks += k  # Python ints: far out on the real axis k exceeds 64 bits
    lam, cols = np.array(lam, dtype=float), np.array(cols, dtype=int)
    rank = np.argsort(np.argsort(plan["factor"], kind="stable"))  # columns by (factor, j)
    order = np.lexsort((rank[cols], lam))  # stable, so k ascends within a column
    cols = cols[order]
    side = np.where(plan["power"][cols] > 0, "numerator", "denominator")
    return (lam[order], plan["factor"][cols].tolist(), side.tolist(),
            (cols % sig.p + 1).tolist(), [ks[i] for i in order.tolist()])


# Gamma arguments per numpy pass; longer lambda arrays run in blocks.
_BLOCK = 1 << 18


def _gindikin_block(plan, c, lam):
    """The product of a plan's lambda-dependent factors for the halved
    constants c (k, 1, F) and lambda (1, l, 1): a (k, l) SpectralArray."""
    half_sign = plan["half_sign"]
    # a log past the double range reads inf or nan, and SpectralArray.value rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        a = half_sign * lam.real
        # TwoSum: a + c = x + e exactly.  The argument is evaluated at x and the
        # error e enters through the pole term of log_gamma, so near a singular
        # hyperplane the distance to the pole is not rounded away.
        x = np.add(a, c, order="C")
        t = x - a
        e = (a - (x - t)) + (c - t)
        z = x.astype(complex)
        z.imag = half_sign * lam.imag
        return _gamma(z, half_sign, plan["power"], residual=e).prod(axis=-1)


def _gindikin_ratio(sig, mu, lam, signed=True):
    """eta, or nu unsigned, over K-types mu (one, a sequence, or None for
    mu = 0) and lambdas lam; every cell is the same elementwise computation."""
    plan = _plan(sig, mu is None)
    ms, single = (np.zeros((1, sig.p), dtype=int), True) if mu is None else _ktype_matrix(sig, mu)
    kshape = () if single else (len(ms),)
    c = plan["half_base"] + ms @ plan["half_shift"]
    degree = ms.sum(axis=1)
    lam = np.asarray(lam, dtype=complex)
    if np.count_nonzero(np.isfinite(lam)) != lam.size:
        raise ValueError("lambda must be finite")
    lshape, lam = lam.shape, lam.reshape(-1)
    step = max(1, _BLOCK // max(1, c.size))
    blocks = [_gindikin_block(plan, c[:, None, :], lam[None, l0:l0 + step, None])
              for l0 in range(0, max(len(lam), 1), step)]
    order = np.concatenate([b.order for b in blocks], axis=1)
    head = plan["head_log"] + (1j * np.pi if signed else 0.0) * (degree // 2)
    log = np.concatenate([b.log for b in blocks], axis=1) + head[:, None]
    return SpectralArray(order.reshape(kshape + lshape), log.reshape(kshape + lshape))


def c_p(sig, lam):
    """Value of the transform on constants (the c-function of the parabolic).

    c_p(lambda) = Gamma_{p,d}(d(n+1)/2) / Gamma_{p,d}(dp/2)
                  * Gamma_{p,d}((lambda - rho + dp)/2) / Gamma_{p,d}((lambda + rho)/2),

    all Gindikin arguments being constant tuples (z, ..., z).  Meromorphic in
    lambda; pole/zero markers are returned on the singular set.  This is
    eta at mu = 0, and takes an array of lambdas as eta does (a
    SpectralArray of lam's shape).
    """
    return _gindikin_ratio(sig, None, lam)


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
    return _gindikin_ratio(sig, mu, lam)


def eta_step_ratio(sig, mu, j, lam):
    """Ratio eta_{mu + 2 e_j} / eta_mu, for 0 <= j < p:

    (lambda - m_j - rho + d(j-1)) / (lambda + m_j + rho - d(j-1)).

    Requires mu + 2 e_j to be a valid K-type and a finite lambda.  Zero
    marker when the numerator vanishes, pole marker when the denominator does.
    """
    mu = ktype(sig, mu)
    if not 0 <= j < sig.p:
        raise ValueError(f"need 0 <= j < p = {sig.p}, got j = {j}")
    if not _is_dominant(sig, mu.m[:j] + (mu.m[j] + 2,) + mu.m[j + 1:]):
        raise ValueError(f"mu + 2e_{j + 1} leaves the lattice for mu = {mu}")
    lam = complex(lam)
    if not np.isfinite(lam):
        raise ValueError("lambda must be finite")
    shift = mu.m[j] + sig.rho - sig.d * j
    return _linear(lam - shift, 1.0) / _linear(lam + shift, 1.0)


def _monotone_ends(ms, steps):
    """The K-types along the lattice paths 0 -> m filling coordinates left
    to right in +/-2 steps, for rows m of ms of `steps` steps each: a
    (rows, steps + 1, p) array.  After t steps coordinate j holds
    clip(t - (steps before j), 0, |m_j|/2) of its steps."""
    half = np.abs(ms) // 2
    before = (np.cumsum(half, axis=1) - half)[:, None, :]
    t = np.arange(steps + 1)[:, None]
    return 2 * np.sign(ms)[:, None, :] * np.clip(t - before, 0, half[:, None, :])


def _path_ends(sig, mu, path):
    """The K-types along a custom path of (mu', sigma) pairs from 0 to mu,
    validated, as a (1, len(path) + 1, p) array."""
    path = [tuple(ktype(sig, t).m for t in step) for step in path]
    ends = [(0,) * sig.p] + [nxt for _, nxt in path]
    if ([cur for cur, _ in path] != ends[:-1] or ends[-1] != tuple(mu)
            or any(sum(abs(a - b) for a, b in zip(*step)) != 2 for step in path)):
        raise ValueError(f"path must run from 0 to {KType(mu)} in steps of +/-2 e_j")
    return np.array(ends, dtype=int).reshape(1, len(ends), sig.p)


def eta_by_recursion(sig, mu, lam, path=None):
    """Eigenvalue on mu rebuilt through the spectrum-generating recursion.

    Starting from eta_0 = c_p(lambda), each lattice step mu' -> sigma in
    +/- 2 e_j multiplies by

        (2r - omega(sigma) + omega(mu')) / (2r + omega(sigma) - omega(mu'))

    with r = lambda * pq/(n+1).  By default the steps follow the monotone
    path filling m_1 first, then m_2, etc.; any path of (mu', sigma) pairs
    from 0 to mu through valid K-types gives the same value, and any other
    path raises ValueError.

    mu may be a sequence of K-types (default paths only) and lam an array,
    as for eta: the result is then a SpectralArray of shape (len(mu),) +
    lam.shape (no first axis for one K-type), each cell equal to its scalar
    call.  K-types whose paths have the same length run as one array.
    """
    ms, single = _ktype_matrix(sig, mu)
    steps = np.abs(ms).sum(axis=1) // 2
    if path is None:
        groups = [(rows, _monotone_ends(ms[rows], length)) for length in np.unique(steps)
                  for rows in [np.flatnonzero(steps == length)]]
    elif single:
        groups = [([0], _path_ends(sig, ms[0], path))]
    else:
        raise ValueError("a custom path needs a single K-type")
    lam = np.asarray(lam, dtype=complex)
    scale = sig.p * sig.q / (sig.n + 1.0)
    # 2r; the steps go on the last axis, which every cell sums as a scalar call does
    r2 = 2.0 * lam[..., None] * scale
    c = c_p(sig, lam)
    order = np.empty((len(ms),) + lam.shape, dtype=int)
    log = np.empty((len(ms),) + lam.shape, dtype=complex)
    for rows, ends in groups:
        k, length, p = ends.shape
        dws = np.diff(_omega_rows(sig, ends.reshape(-1, p)).reshape(k, length), axis=1)
        dws = dws.reshape((k,) + (1,) * lam.ndim + (length - 1,))
        ratios = _linear(r2 - dws, 2.0 * scale) / _linear(r2 + dws, 2.0 * scale)
        values = c * ratios.prod(axis=-1)
        order[rows], log[rows] = values.order, values.log
    return SpectralArray(order[0], log[0]) if single else SpectralArray(order, log)


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
    return _gindikin_ratio(sig, mu, lam, signed=False)


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
    scalar call.  n must be an integer >= 1 and m an even integer >= 0
    (integral floats accepted), as for transform.funk_hecke_1d.
    """
    n, m = _sphere_degree(n, m)
    lam = np.asarray(lam, dtype=complex)[..., None]
    rho = (n + 1) / 2.0
    z = np.broadcast_arrays(rho, 0.5, 0.5 * (lam - rho + 1.0), 0.5 * (lam + rho + m))
    gammas = _gamma(np.concatenate(z, axis=-1), slope=[1.0, 1.0, 0.5, 0.5], power=[1, -1, 1, -1])
    poly = _linear(0.5 * (lam - rho - 2.0 * np.arange(m // 2)), 0.5)
    return gammas.prod(axis=-1) * poly.prod(axis=-1)
