"""Independent numerical realizations of the cosine and sine transforms.

These routines never touch the closed forms in `spectral`; they integrate.
That makes them usable as oracles:

* `cos_transform_sphere` applies the kernel |<x, w>|^(lambda - rho) by
  quadrature on S^1 and S^2,
* `funk_hecke_1d` reduces the sphere eigenvalue to a 1-D integral,
* `mc_c_p`, `mc_transform_ktype` and `sin_transform_numeric` estimate the
  Grassmannian eigenvalues by Monte Carlo over Haar measure,
* `selberg_oracle` brute-forces the Selberg integral that powers the
  closed-form c-function, against `selberg_closed`.

Convergence gate: the defining integrals converge for Re(lambda) >= rho (the
kernel is then bounded by 1); everything here enforces that.

Monte Carlo estimators: every integrand reads only the first p columns
k.b_o of a Haar sample k, i.e. the orthonormalized p-frame of the Ginibre
draw behind geometry.haar_batch.  The estimators read that Gaussian frame G
(geometry.frame_batch, the same numbers from the same stream) and evaluate

    alpha_p(k) = |det_K G_rows| / |det_K(G* G)|^(1/2),
    |k_top|_F^2 = tr(G_top (G* G)^(-1) G_top*)   (halved for H),

which is exact.  The first p columns of k are G T with T T* = (G* G)^(-1),
so |det(G_rows T)| = |det G_rows| / det(G* G)^(1/2) and |G_top T|_F^2 is the
trace above; haar_batch's phase fix only scales columns by unit scalars and
its determinant correction only touches column n+1.  So each estimate equals
the one computed from full Haar matrices to rounding, without the
(n+1) x (n+1) QR or the quaternionic Gram-Schmidt, and the acceptance seeds
keep their realizations.

Monte Carlo error model: plain sample standard error; the integrands are
bounded on the convergence region so the CLT applies.  A master seed is split
into per-worker streams with numpy's SeedSequence.spawn, worker chunks are
contiguous, and partial sums are combined by a fixed-order pairwise tree, so
results are bit-reproducible for a given (seed, workers) and independent of
how the workers are scheduled.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

# haar_batch stays bound here because bench/tracing.py patches transform.haar_batch.
from .geometry import _abs_det_field, _units, frame_batch, haar_batch  # noqa: F401
from .scalar import gauss_legendre, gegenbauer
from .spectral import FieldTag, GammaProduct, ktype

__all__ = [
    "ConvergenceError",
    "SphereGrid",
    "McEstimate",
    "sphere_grid",
    "zonal_values",
    "sphere_quadrature_tolerance",
    "cos_transform_sphere",
    "funk_hecke_1d",
    "mc_c_p",
    "mc_transform_ktype",
    "sin_transform_numeric",
    "selberg_closed",
    "selberg_oracle",
]


class ConvergenceError(RuntimeError):
    """Quadrature refinement stalled before reaching the requested agreement."""


def _require_convergent(lam, rho):
    if complex(lam).real < rho:
        raise ValueError(
            f"transform integral diverges: need Re(lambda) >= rho = {rho}, got {lam}"
        )


# ---------------------------------------------------------------------------
# Sphere grids and zonal test functions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes on S^n (n = 1 or 2) for the normalized measure."""

    n: int
    points: np.ndarray  # (N, n+1) unit vectors
    weights: np.ndarray  # (N,), positive, summing to 1

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        if pts.ndim != 2 or pts.shape[1] != self.n + 1 or pts.shape[0] != w.shape[0]:
            raise ValueError("points/weights shapes do not match")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 (normalized measure)")


def sphere_grid(n, order):
    """Quadrature grid on S^n.

    n = 1: 2*order uniform angles (trapezoid rule, spectrally accurate for
    periodic integrands).  n = 2: Gauss-Legendre of the given order in
    cos(theta) times 2*order uniform azimuths.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if n == 1:
        npts = 2 * order
        theta = 2.0 * np.pi * (np.arange(npts) + 0.5) / npts
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return SphereGrid(1, pts, np.full(npts, 1.0 / npts))
    if n == 2:
        rule = gauss_legendre(order)
        nphi = 2 * order
        phi = 2.0 * np.pi * (np.arange(nphi) + 0.5) / nphi
        z = np.repeat(rule.nodes, nphi)
        s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        cp = np.tile(np.cos(phi), order)
        sp = np.tile(np.sin(phi), order)
        pts = np.stack([s * cp, s * sp, z], axis=1)
        w = np.repeat(rule.weights / 2.0, nphi) / nphi
        return SphereGrid(2, pts, w)
    raise ValueError("only S^1 and S^2 grids are supported")


def zonal_values(n, m, t):
    """Degree-m zonal harmonic profile R_m(t), normalized so R_m(1) = 1.

    For n >= 2 this is the Gegenbauer ratio C_m^((n-1)/2)(t) / C_m^((n-1)/2)(1);
    for the circle it degenerates to the Chebyshev polynomial cos(m arccos t).
    """
    t = np.asarray(t, dtype=float)
    if m == 0:
        return np.ones_like(t)
    if n == 1:
        return np.cos(m * np.arccos(np.clip(t, -1.0, 1.0)))
    nu_ = (n - 1) / 2.0
    return gegenbauer(m, nu_, t) / gegenbauer(m, nu_, 1.0)


def _kernel_pow(base, expo):
    # base**expo for base >= 0, with 0**expo := 0 for Re expo > 0 and
    # base**0 := 1 exactly.
    if expo == 0:
        return np.ones_like(base)
    if np.iscomplexobj(np.asarray(expo)) and complex(expo).imag != 0.0:
        out = np.zeros(base.shape, dtype=complex)
        mask = base > 0.0
        out[mask] = np.exp(complex(expo) * np.log(base[mask]))
        return out
    return base ** float(np.real(expo))


def sphere_quadrature_tolerance(lam, n, order=64):
    """Documented error model for cos_transform_sphere at the given order.

    The kernel loses smoothness across <x, w> = 0, so the guarantee weakens
    toward the convergence edge: 1e-2 for lambda - rho in (0, 1), 1e-3 on
    [1, 2), 1e-4 from lambda = rho + 2 on (where acceptance runs); halve the
    order and the bound grows by roughly 10x.
    """
    gap = complex(lam).real - (n + 1) / 2.0
    if gap < 1.0:
        base = 1e-2
    elif gap < 2.0:
        base = 1e-3
    else:
        base = 1e-4
    return base * max(1.0, (64.0 / order) ** 2)


def cos_transform_sphere(n, lam, f, grid, chunk=512):
    """Apply the cosine-kernel integral operator on a sphere grid.

    (C f)(w_i) = sum_j weight_j |<x_j, w_i>|^(lambda - rho) f(x_j) for every
    grid node w_i, with rho = (n+1)/2.  `f` may be an array of values on
    grid.points (a stack of functions as extra trailing columns is fine) or
    a callable mapping points to values.

    The kernel is merely continuous across <x, w> = 0, so accuracy degrades
    as Re(lambda) approaches rho; see sphere_quadrature_tolerance for the
    error schedule.
    """
    if grid.n != n:
        raise ValueError("grid dimension does not match n")
    rho = (n + 1) / 2.0
    _require_convergent(lam, rho)
    fv = np.asarray(f(grid.points) if callable(f) else f)
    single = fv.ndim == 1
    if fv.shape[0] != grid.points.shape[0] or fv.ndim > 2:
        raise ValueError("f must give one value (or a stack of values) per grid point")
    expo = complex(lam) - rho
    if expo.imag == 0.0:
        expo = expo.real
    cols = fv if fv.ndim == 2 else fv[:, None]
    wf = grid.weights[:, None] * cols
    out = np.empty((grid.points.shape[0], cols.shape[1]),
                   dtype=np.result_type(wf, complex(lam)))
    for i0 in range(0, grid.points.shape[0], chunk):
        block = grid.points @ grid.points[i0: i0 + chunk].T
        out[i0: i0 + chunk] = _kernel_pow(np.abs(block), expo).T @ wf
    return out[:, 0] if single else out


# ---------------------------------------------------------------------------
# 1-D Funk-Hecke reduction.
# ---------------------------------------------------------------------------


def _graded_panels(depth=42):
    """Breakpoints on [0, 1], geometrically refined toward both endpoints."""
    left = [0.5 ** k for k in range(depth, 0, -1)]
    right = [1.0 - 0.5 ** k for k in range(2, depth + 1)]
    return np.concatenate(([0.0], left, right, [1.0]))


_FH_RULE = gauss_legendre(24)
_FH_BREAKS = _graded_panels()


def _integrate_01(func):
    # Composite Gauss-Legendre on the graded mesh; handles integrable
    # algebraic endpoint singularities to near machine precision.
    total = 0.0 + 0.0j
    for a, b in zip(_FH_BREAKS[:-1], _FH_BREAKS[1:]):
        x, w = _FH_RULE.mapped(a, b)
        total = total + w @ func(x)
    return total


def funk_hecke_1d(n, m, lam):
    """Cosine-transform eigenvalue on degree-m harmonics of S^n, by quadrature.

    c_n * integral_{-1}^{1} |t|^(lambda - rho) R_m(t) (1 - t^2)^((n-2)/2) dt
    with rho = (n+1)/2 and c_n normalizing m = 0, lambda = rho to 1.  This is
    the independent 1-D oracle for the sphere eigenvalues.
    """
    if m < 0 or m % 2 != 0:
        raise ValueError("m must be a nonnegative even integer")
    rho = (n + 1) / 2.0
    _require_convergent(lam, rho)
    expo = complex(lam) - rho
    s = (n - 2) / 2.0

    def weight(t):
        return (1.0 - t * t) ** s if s != 0.0 else np.ones_like(t)

    def numerator(t):
        return np.exp(expo * np.log(t)) * zonal_values(n, m, t) * weight(t)

    num = _integrate_01(numerator)  # even profile: fold onto [0, 1]
    den = _integrate_01(weight)
    val = num / den
    return complex(val)


# ---------------------------------------------------------------------------
# Monte Carlo over Haar measure, read through Gaussian p-frames.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its sample standard error."""

    mean: complex
    stderr: float
    samples: int
    seed: int


def worker_streams(seed, workers):
    """Independent per-worker generators derived from one master seed.

    This is the documented splitting rule: numpy SeedSequence(seed).spawn,
    one child per worker, in worker order.
    """
    return [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(workers)]


def _split_counts(total, workers):
    base, extra = divmod(total, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def _tree_reduce(parts):
    # Fixed-order pairwise reduction by worker index.
    parts = list(parts)
    while len(parts) > 1:
        nxt = []
        for i in range(0, len(parts) - 1, 2):
            a, b = parts[i], parts[i + 1]
            nxt.append((a[0] + b[0], a[1] + b[1], a[2] + b[2]))
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts = nxt
    return parts[0]


def _mc_mean(sig, value_fn, samples, seed, workers, batch=1 << 14):
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    parts = []
    for rng, count in zip(worker_streams(seed, workers), _split_counts(samples, workers)):
        s1 = 0.0 + 0.0j
        s2 = 0.0
        left = count
        while left > 0:
            take = min(batch, left)
            vals = value_fn(frame_batch(sig, rng, take))
            s1 += complex(vals.sum())
            s2 += float(np.abs(vals) ** 2 @ np.ones(take))
            left -= take
        parts.append((s1, s2, count))
    s1, s2, n = _tree_reduce(parts)
    mean = s1 / n
    var = max(s2 - abs(s1) ** 2 / n, 0.0) / (n - 1) if n > 1 else 0.0
    return McEstimate(mean=mean, stderr=math.sqrt(var / n), samples=n, seed=seed)


def _gram(frames):
    return np.matmul(frames.conj().transpose(0, 2, 1), frames)


def _frame_alpha(sig, frames, gram, block):
    # alpha_p of the Haar sample's p x p block `block` (0: top, 1: the rows
    # below it), from its Gaussian frame G = Q T^(-1) with T T* = (G*G)^(-1):
    # |det Q_block| = |det G_block| / det(G*G)^(1/2).
    pe = _units(sig.field) * sig.p
    rows = frames[:, block * pe: (block + 1) * pe]
    return _abs_det_field(sig.field, rows) / np.sqrt(_abs_det_field(sig.field, gram))


def _ktype_test_values(sig, frames, gram):
    # Value at h.b_o of the zonal degree-2 invariant spanning the first
    # nontrivial K-type: trace of the product of the projections onto h.b_o
    # and the base point, centered at its Haar mean p^2/(n+1).  In frame
    # terms that is the squared Frobenius norm of the top-left p x p block
    # of the Haar sample, tr(G_top (G*G)^(-1) G_top*).
    pe = _units(sig.field) * sig.p
    top = frames[:, :pe]
    sol = np.linalg.solve(gram, top.conj().transpose(0, 2, 1))
    sumsq = np.einsum("bij,bji->b", top, sol).real
    if sig.field is FieldTag.QUATERNION:
        sumsq = 0.5 * sumsq
    return sumsq - sig.p ** 2 / (sig.n + 1.0)


def _ktype_base_value(sig):
    return sig.p * sig.q / (sig.n + 1.0)


def _check_ktype_library(sig, mu):
    mu = ktype(sig, mu)
    zero = (0,) * sig.p
    first = (2,) + (0,) * (sig.p - 1)
    if mu.m not in (zero, first):
        raise ValueError(
            f"unsupported K-type {mu}: the Monte Carlo test-function library "
            f"covers mu = {zero} and mu = {first}"
        )
    return mu


def _power_fn(expo):
    expo = complex(expo)
    if expo == 0:
        return lambda a: np.ones_like(a)
    if expo.imag == 0.0:
        return lambda a: a ** expo.real
    def powc(a):
        out = np.zeros(a.shape, dtype=complex)
        mask = a > 0.0
        out[mask] = np.exp(expo * np.log(a[mask]))
        return out
    return powc


def mc_c_p(sig, lam, samples, seed, workers=1):
    """Monte Carlo estimate of the c-function: mean of alpha_p(k)^(lambda-rho)."""
    _require_convergent(lam, sig.rho)
    powf = _power_fn(complex(lam) - sig.rho)
    return _mc_mean(sig, lambda g: powf(_frame_alpha(sig, g, _gram(g), 0)),
                    samples, seed, workers)


def mc_transform_ktype(sig, lam, mu, samples, seed, workers=1):
    """Monte Carlo estimate of the transform eigenvalue on a library K-type.

    Estimates (C f_mu)(b_o) / f_mu(b_o) where f_mu is the invariant test
    function attached to mu; supported: mu = 0 (constants, same as mc_c_p)
    and mu = (2, 0, ..., 0) (the centered degree-2 zonal invariant).
    """
    _require_convergent(lam, sig.rho)
    mu = _check_ktype_library(sig, mu)
    powf = _power_fn(complex(lam) - sig.rho)
    if mu.is_zero:
        return mc_c_p(sig, lam, samples, seed, workers)
    base = _ktype_base_value(sig)

    def values(g):
        gram = _gram(g)
        return powf(_frame_alpha(sig, g, gram, 0)) * _ktype_test_values(sig, g, gram) / base

    return _mc_mean(sig, values, samples, seed, workers)


def sin_transform_numeric(sig, lam, mu, samples, seed, workers=1):
    """Monte Carlo estimate of the sine-transform eigenvalue (p = q only).

    Same estimator as mc_transform_ktype but with the kernel evaluated
    against the orthocomplement of the base point: the angle factor becomes
    the bottom-left block of the sample.
    """
    if not sig.split_rank_equal:
        raise ValueError("the sine transform needs p = q")
    _require_convergent(lam, sig.rho)
    mu = _check_ktype_library(sig, mu)
    powf = _power_fn(complex(lam) - sig.rho)
    base = _ktype_base_value(sig)

    def values(g):
        gram = _gram(g)
        kern = powf(_frame_alpha(sig, g, gram, 1))
        if mu.is_zero:
            return kern
        return kern * _ktype_test_values(sig, g, gram) / base

    return _mc_mean(sig, values, samples, seed, workers)


# ---------------------------------------------------------------------------
# Selberg integral: closed form and brute-force oracle.
# ---------------------------------------------------------------------------


def selberg_closed(p, alpha, g1, g2):
    """Selberg's integral in closed form:

    prod_{j=1}^{p} Gamma(alpha j + 1) Gamma(alpha (j-1) + g1) Gamma(alpha (j-1) + g2)
                 / (Gamma(alpha + 1) Gamma(alpha (p+j-2) + g1 + g2))

    Meromorphically continued through the log-Gamma representation; returns
    pole/zero markers on the singular set.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    alpha, g1, g2 = complex(alpha), complex(g1), complex(g2)
    gp = GammaProduct()
    for j in range(1, p + 1):
        gp.mul_gamma(alpha * j + 1.0)
        gp.mul_gamma(alpha * (j - 1) + g1)
        gp.mul_gamma(alpha * (j - 1) + g2)
        gp.mul_gamma(alpha + 1.0, power=-1)
        gp.mul_gamma(alpha * (p + j - 2) + g1 + g2, power=-1)
    return gp.value()


def _jacobi_01(order, exp0, exp1):
    # Nodes/weights for integral_0^1 t^exp0 (1-t)^exp1 f(t) dt.
    x, w = roots_jacobi(order, exp1, exp0)
    return 0.5 * (x + 1.0), w * 0.5 ** (exp0 + exp1 + 1.0)


def selberg_oracle(p, alpha, g1, g2, order=48, max_order=3072, tol=1e-7):
    """Brute-force Selberg integral for p in {1, 2} and positive parameters.

    Tensor-product Gauss-Jacobi quadrature; the p = 2 case is folded onto
    the triangle t1 < t2 and rescaled (t1 = x y, t2 = x) so that every
    algebraic singularity, including |t1 - t2|^(2 alpha), is absorbed into a
    Jacobi weight.  The order is doubled until two successive evaluations
    agree to `tol`; raises ConvergenceError if that never happens.
    """
    if p not in (1, 2):
        raise ValueError("the oracle covers p = 1 and p = 2 only")
    if min(alpha, g1, g2) <= 0.0:
        raise ValueError("oracle parameters must be positive reals")

    def evaluate(n):
        if p == 1:
            _, w = _jacobi_01(n, g1 - 1.0, g2 - 1.0)
            return float(w.sum())
        x, wx = _jacobi_01(n, 2.0 * g1 + 2.0 * alpha - 1.0, g2 - 1.0)
        y, wy = _jacobi_01(n, g1 - 1.0, 2.0 * alpha)
        smooth = (1.0 - x[:, None] * y[None, :]) ** (g2 - 1.0)
        return float(2.0 * wx @ smooth @ wy)

    prev = evaluate(order)
    n = order
    while n <= max_order:
        n *= 2
        cur = evaluate(n)
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise ConvergenceError(
        f"Selberg quadrature did not reach {tol} agreement by order {max_order} "
        f"(parameters alpha={alpha}, g1={g1}, g2={g2})"
    )
