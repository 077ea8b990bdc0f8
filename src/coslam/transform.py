"""Independent numerical realizations of the cosine and sine transforms.

These routines never touch the closed forms in `spectral`; they integrate.
That makes them usable as oracles:

* `cos_transform_sphere` applies the kernel |<x, w>|^(lambda - rho) by
  quadrature on S^1 and S^2, through the grid's rotational symmetry,
* `funk_hecke_1d` reduces the sphere eigenvalue to a ratio of two 1-D
  Beta-type integrals, on a constant span at agreement 1e-12,
* `mc_c_p`, `mc_transform_ktype` and `sin_transform_numeric` estimate the
  Grassmannian eigenvalues by Monte Carlo over Haar measure, each one call
  of the one estimator body `_mc_eigenvalue`,
* `selberg_oracle` integrates the Selberg integral that powers the
  closed-form c-function (p = 1, 2), as the check of `spectral.selberg_closed`.

Both 1-D oracles sum one tanh-sinh rule with parameter-free nodes, raising
its level from 3 up to 8 until two levels agree (`_ladder`; else ConvergenceError).

Convergence gate: the defining integrals converge for Re(lambda) >= rho (the
kernel is then bounded by 1); everything here enforces that, for finite
lambda only.

Ring-symmetric sphere quadrature: a SphereGrid holds its nodes ring-major,
`azimuths` per ring, node k of a ring being node 0 of that ring rotated by
2 pi k / azimuths in the (x_0, x_1) plane (checked to 1e-12; sphere_grid
uses azimuths = 2 * order).  The kernel between ring a at azimuth i and ring
b at azimuth k then depends only on (a, b, i - k), so cos_transform_sphere
powers rings x N kernel entries instead of N x N and takes the same
quadrature sum as a circular convolution along azimuth: FFT, one rings x
rings matrix product per frequency, inverse FFT.  It matches the dense sum
to about 1e-16 when Re(lambda) - rho >= 1.  The default azimuths = 1 claims
no symmetry, and the same code is then the dense sum.

Monte Carlo estimators: every integrand reads only the first p columns
k.b_o of a Haar sample k, which are distributed as the Gram-Schmidt frame Q
of an (n+1) x p Gaussian frame G (the first p columns of the Ginibre matrix
behind geometry.haar_batch).  So the estimators draw only G
(geometry.frame_batch: one standard_normal call per batch, laid out samples
last).  With G = Q R, B the p block rows of G and H the Gram matrix of its
top p rows,

    alpha_p(k) = |det_K Q_B| = |det_K B| / sqrt(det G* G),
    |k_top|_F^2 = |Q_top|_F^2 = tr((G* G)^-1 H),

which is exact for the Haar sample whose first p columns are Q.  For p <= 2
both come from 2 x 2 field Gram entries and |det_K B| taken directly (see
_frame_integrands); at mu = 0 only alpha_p is computed.  For p >= 3 one
batched Gram-Schmidt over the p field columns gives Q and alpha_p as a
ratio of products of Gram-Schmidt norms.  Each estimate therefore equals
the one computed from full Haar matrices built from G (completed by any
further Gaussian columns) to rounding, without the (n+1) x (n+1) QR and
without drawing the n+1-p columns it would discard.  A quaternionic column
stays a pair of complex columns a + b j; its inner product and right scalar
multiple are written out in a and b, so nothing builds the 2 x 2 complex
realization.

Monte Carlo error model: plain sample standard error; the integrands are
bounded on the convergence region so the CLT applies.  A master seed is split
into per-worker streams with numpy's SeedSequence.spawn, worker chunks are
contiguous, and the per-worker sums are added left to right in worker order,
so results are bit-reproducible for a given (seed, workers) and independent
of how the workers are scheduled.

The streams run concurrently on min(workers, usable CPUs) threads, since a
batch is numpy calls that release the GIL.  Each stream draws every batch
into the contiguous prefix of one flat workspace sized for a batch, and
passes it to the estimator in views of at most 1 MiB (2**12 samples of
Gr_2(H^4), a whole batch of Gr_2(R^4)), so two batches in flight take about
the memory one batch took when the streams ran in turn.
"""

import cmath
import functools
import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# haar_batch stays bound here because bench/tracing.py patches transform.haar_batch.
from .geometry import _dtype, _units, frame_batch, haar_batch  # noqa: F401
from .scalar import _integral, _sphere_degree, gegenbauer
# selberg_closed stays bound here because bench/workloads.py reads transform.selberg_closed.
from .spectral import FieldTag, ktype, selberg_closed  # noqa: F401

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
    "selberg_oracle",
]


class ConvergenceError(RuntimeError):
    """Quadrature refinement stalled before reaching the requested agreement."""


def _require_convergent(lam, rho):
    if not cmath.isfinite(lam):
        raise ValueError("lambda must be finite")
    if complex(lam).real < rho:
        raise ValueError(
            f"transform integral diverges: need Re(lambda) >= rho = {rho}, got {lam}"
        )


# ---------------------------------------------------------------------------
# Sphere grids and zonal test functions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes on S^n (n = 1 or 2) for the normalized measure.

    The nodes are stored ring-major in rings of `azimuths` nodes each: node k
    of a ring is node 0 of that ring rotated by 2 pi k / azimuths in the
    (x_0, x_1) plane.  cos_transform_sphere uses that symmetry; the default
    azimuths = 1 (every node its own ring) claims none.
    """

    n: int
    points: np.ndarray  # (N, n+1) unit vectors
    weights: np.ndarray  # (N,), positive, summing to 1
    azimuths: int = 1

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        if pts.ndim != 2 or pts.shape[1] != self.n + 1 or pts.shape[0] != w.shape[0]:
            raise ValueError("points/weights shapes do not match")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 (normalized measure)")
        if self.azimuths < 1 or pts.shape[0] % self.azimuths:
            raise ValueError("azimuths must divide the number of nodes")
        rings = pts.reshape(-1, self.azimuths, self.n + 1)
        angle = 2.0 * np.pi * np.arange(self.azimuths) / self.azimuths
        c, s = np.cos(angle), np.sin(angle)
        x0, x1 = rings[:, :1, 0], rings[:, :1, 1]
        rotated = np.repeat(rings[:, :1], self.azimuths, axis=1)
        rotated[..., 0] = c * x0 - s * x1
        rotated[..., 1] = s * x0 + c * x1
        if not np.abs(rotated - rings).max(initial=0.0) <= 1e-12:  # NaN fails too
            raise ValueError("points are not rings of equally rotated nodes")


def sphere_grid(n, order):
    """Quadrature grid on S^n, in rings of 2*order equally spaced azimuths.

    n = 1: 2*order uniform angles (trapezoid rule, spectrally accurate for
    periodic integrands), one ring.  n = 2: Gauss-Legendre of the given order
    in cos(theta), one ring of 2*order uniform azimuths per node.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    nphi = 2 * order
    if n == 1:
        theta = 2.0 * np.pi * (np.arange(nphi) + 0.5) / nphi
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return SphereGrid(1, pts, np.full(nphi, 1.0 / nphi), nphi)
    if n == 2:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        phi = 2.0 * np.pi * (np.arange(nphi) + 0.5) / nphi
        z = np.repeat(nodes, nphi)
        s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        cp = np.tile(np.cos(phi), order)
        sp = np.tile(np.sin(phi), order)
        pts = np.stack([s * cp, s * sp, z], axis=1)
        w = np.repeat(weights / 2.0, nphi) / nphi
        return SphereGrid(2, pts, w, nphi)
    raise ValueError("only S^1 and S^2 grids are supported")


def zonal_values(n, m, t):
    """Degree-m zonal harmonic profile R_m(t), normalized so R_m(1) = 1.

    For n >= 2 this is the Gegenbauer ratio C_m^((n-1)/2)(t) / C_m^((n-1)/2)(1);
    for the circle it degenerates to the Chebyshev polynomial cos(m arccos t).
    n must be an integer >= 1 and m an integer >= 0, odd m included
    (integral floats accepted).
    """
    if not (_integral(n) and n >= 1 and _integral(m) and m >= 0):
        raise ValueError(f"need integers n >= 1 and m >= 0, got n={n!r}, m={m!r}")
    n, m = int(n), int(m)
    t = np.asarray(t, dtype=float)
    if m == 0:
        return np.ones_like(t)
    if n == 1:
        return np.cos(m * np.arccos(np.clip(t, -1.0, 1.0)))
    nu_ = (n - 1) / 2.0
    return gegenbauer(m, nu_, t) / gegenbauer(m, nu_, 1.0)


def _kernel_pow(base, expo):
    # base**expo for base >= 0, with 0**expo := 0 for Re expo > 0 and
    # base**0 = 1 exactly, at base 0 too (IEEE pow).
    expo = complex(expo)
    if expo.imag == 0.0:
        return base ** expo.real
    pos = base > 0.0
    return np.exp(expo * np.log(np.where(pos, base, 1.0))) * pos


def sphere_quadrature_tolerance(lam, n, order=64):
    """Documented error model for cos_transform_sphere at the given order.

    The kernel loses smoothness across <x, w> = 0, so the guarantee weakens
    toward the convergence edge: 1e-2 for lambda - rho in (0, 1), 1e-3 on
    [1, 2), 1e-4 from lambda = rho + 2 on (where acceptance runs); halve the
    order and the bound grows by roughly 10x.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not cmath.isfinite(lam):
        raise ValueError("lambda must be finite")
    gap = complex(lam).real - (n + 1) / 2.0
    if gap < 1.0:
        base = 1e-2
    elif gap < 2.0:
        base = 1e-3
    else:
        base = 1e-4
    return base * max(1.0, (64.0 / order) ** 2)


def cos_transform_sphere(n, lam, f, grid):
    """Apply the cosine-kernel integral operator on a sphere grid.

    (C f)(w_i) = sum_j weight_j |<x_j, w_i>|^(lambda - rho) f(x_j) for every
    grid node w_i, with rho = (n+1)/2.  `f` may be an array of values on
    grid.points (a stack of functions as extra trailing columns is fine) or
    a callable mapping points to values.

    The sum runs through the grid's ring symmetry (see the module
    docstring); with grid.azimuths = 1 it is the dense sum.

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
    cols = fv if fv.ndim == 2 else fv[:, None]
    wf = grid.weights[:, None] * cols
    nodes, az = grid.points.shape[0], grid.azimuths
    rings = nodes // az
    # kern[a, j, b] = |<x_(a, j), x_(b, 0)>|^(lambda - rho), the kernel
    # between ring a at azimuth i and ring b at azimuth i - j.
    kern = _kernel_pow(np.abs(grid.points @ grid.points[::az].T), complex(lam) - rho)
    kern = kern.reshape(rings, az, rings)
    if np.iscomplexobj(kern) or np.iscomplexobj(wf):
        fft, ifft = np.fft.fft, np.fft.ifft
    else:
        fft, ifft = np.fft.rfft, functools.partial(np.fft.irfft, n=az)
    kf = fft(kern, axis=1).transpose(1, 0, 2)  # [frequency, a, b]
    ff = fft(wf.reshape(rings, az, -1), axis=1).transpose(1, 0, 2)  # [frequency, b, column]
    out = ifft(kf @ ff, axis=0)  # [i, a, column]
    out = out.transpose(1, 0, 2).reshape(nodes, -1).astype(complex)
    return out[:, 0] if single else out


# ---------------------------------------------------------------------------
# One tanh-sinh rule on [0, 1], its level ladder, and the Funk-Hecke reduction.
# ---------------------------------------------------------------------------


def _tanh_sinh_01(level, span):
    # Tanh-sinh rule on [0, 1] in logs: x = 1 / (1 + exp(-pi sinh u)) at
    # u = j 2^-level, |u| <= span.  Returns log(pi h cosh u), log x and
    # log(1 - x); the log weight is their sum.  Callers add the Jacobian
    # x (1 - x) to their endpoint exponents instead (x^(g-1) dx weighs
    # g log x), so a small g is not lost against |log x| of up to 40 / g.
    h = 0.5 ** level
    u = h * np.arange(-math.floor(span / h), math.floor(span / h) + 1)
    s = math.pi * np.sinh(u)
    return math.log(math.pi * h) + np.log(np.cosh(u)), -np.logaddexp(0.0, -s), -np.logaddexp(0.0, s)


_FIRST_LEVEL, _LAST_LEVEL = 3, 8  # the one level schedule of both 1-D oracles
_FH_TOL, _SELBERG_TOL = 1e-12, 1e-7  # the agreement each oracle's ladder asks for


def _ladder(evaluate, tol, what):
    # Raise the level by one (halving the step) from _FIRST_LEVEL until
    # evaluate gives two successive levels that agree to tol * max(1, |I|):
    # absolute below 1, relative above.  No agreement by _LAST_LEVEL raises
    # ConvergenceError.
    level = _FIRST_LEVEL
    prev = evaluate(level)
    while level < _LAST_LEVEL:
        level += 1
        cur = evaluate(level)
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise ConvergenceError(f"{what} did not reach {tol} agreement by level {_LAST_LEVEL}")


_FH_SPAN = math.log(160.0 / math.pi)  # selberg_oracle's span at endpoint exponent 1/2


def funk_hecke_1d(n, m, lam):
    """Cosine-transform eigenvalue on degree-m harmonics of S^n, by quadrature.

    c_n * integral_{-1}^{1} |t|^(lambda - rho) R_m(t) (1 - t^2)^((n-2)/2) dt
    with rho = (n+1)/2 and c_n normalizing m = 0, lambda = rho to 1: the
    independent 1-D oracle for the sphere eigenvalues, for an integer n >= 1
    and an even integer m >= 0 (integral floats accepted).

    The profile is even, so with x = t^2, g1 = (lambda - rho + 1)/2, g2 = n/2
    and I(g1, g2, f) = integral_0^1 x^(g1-1) (1-x)^(g2-1) f(x) dx,

        eta = I(g1, g2, R_m(sqrt x)) / I(1/2, g2, 1),

    both on selberg_oracle's tanh-sinh rule.  Both endpoint exponents are
    >= 1/2 on the convergence region, so the span is the constant
    log(160 / pi).  The level rises from 3 until two successive levels of eta
    agree to 1e-12 * max(1, |eta|); ConvergenceError if none do by level 8.
    """
    n, m = _sphere_degree(n, m)
    rho = (n + 1) / 2.0
    _require_convergent(lam, rho)
    g1, g2 = 0.5 * (complex(lam) - rho + 1.0), 0.5 * n

    def evaluate(level):
        log_w, log_x, log_1mx = _tanh_sinh_01(level, _FH_SPAN)
        log_w = log_w + g2 * log_1mx
        num = np.exp(log_w + g1 * log_x) @ zonal_values(n, m, np.exp(0.5 * log_x))
        return complex(num / np.exp(log_w + 0.5 * log_x).sum())

    return _ladder(evaluate, _FH_TOL, f"Funk-Hecke quadrature (n={n}, m={m}, lambda={lam})")


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


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_BATCH = 1 << 14  # samples per frame draw of a worker stream
_VIEW_BYTES = 1 << 20  # frames per estimator call: 2**12 samples of Gr_2(H^4)


def _stream_sums(sig, value_fn, stop, rng, count):
    # (sum of values, sum of |values|^2, count) of one worker stream.  The
    # values are per sample, so evaluating views of at most _VIEW_BYTES of
    # frames leaves each batch sum as it is and keeps the estimator's
    # temporaries small; a batch of small frames stays one view, since each
    # extra call costs more than it saves there.  Each batch is drawn into
    # the contiguous prefix of one flat workspace, as frame_batch needs.
    s1 = 0.0 + 0.0j
    s2 = 0.0
    shape = (sig.p, _units(sig.field), sig.n + 1)
    work = np.empty(math.prod(shape) * min(_BATCH, count), dtype=_dtype(sig.field))
    left = count
    while left > 0 and not stop.is_set():
        take = min(_BATCH, left)
        frames = frame_batch(sig, rng, take, work[:math.prod(shape) * take].reshape(shape + (take,)))
        block = max(1, _VIEW_BYTES // frames[..., 0].nbytes)
        vals = np.concatenate([value_fn(frames[..., i:i + block])
                               for i in range(0, take, block)])
        s1 += complex(vals.sum())
        s2 += float(np.abs(vals) ** 2 @ np.ones(take))
        left -= take
    return s1, s2, count


def _mc_mean(sig, value_fn, samples, seed, workers):
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # A thread cannot be interrupted: if the wait below ends early (an error
    # in a stream, Ctrl-C), stop ends the streams in flight after one batch.
    stop = threading.Event()
    stream = functools.partial(_stream_sums, sig, value_fn, stop)
    with ThreadPoolExecutor(min(workers, _usable_cpus())) as pool:
        try:
            parts = list(pool.map(stream, worker_streams(seed, workers),
                                  _split_counts(samples, workers)))
        finally:
            stop.set()
    # A left fold in worker order, which pool.map keeps.  Not sum(): from
    # Python 3.12 it compensates float sums.
    s1, s2, n = (functools.reduce(operator.add, column) for column in zip(*parts))
    mean = s1 / n
    var = max(s2 - abs(s1) ** 2 / n, 0.0) / (n - 1) if n > 1 else 0.0
    return McEstimate(mean=mean, stderr=math.sqrt(var / n), samples=n, seed=seed)


def _inner(q, v):
    # <q, v> = sum_k conj(q_k) v_k per sample, for field columns (u, m, S),
    # as (u, S).  With pq[x, y] = sum_k conj(q_xk) v_yk over the parts, a
    # quaternion x = a + b j has conj(x) = conj(a) - b j, so for q = a + b j
    # and v = c + d j
    #     <q, v> = sum(conj(a) c + b conj(d)) + sum(conj(a) d - b conj(c)) j.
    pq = np.einsum("xms,yms->xys", q.conj(), v)
    if len(q) == 1:
        return pq[0]
    return np.stack([pq[0, 0] + pq[1, 1].conj(), pq[0, 1] - pq[1, 0].conj()])


def _scale(q, s):
    # q s with the scalar s (u, S) on the right, per sample, as (u, m, S):
    # (a + b j)(s + t j) = (a s - b conj(t)) + (a t + b conj(s)) j,
    # i.e. the parts of q times the 2 x 2 complex matrix of s + t j.
    mat = s[None] if len(q) == 1 else np.stack([s, np.stack([-s[1].conj(), s[0].conj()])])
    return np.einsum("xms,xys->yms", q, mat)


def _re_inner(x, y):
    # Re <x, y> per sample: the real inner product of the real components,
    # summed over every axis but the last (the samples)
    x, y = (v.reshape(-1, v.shape[-1]) for v in (x, y))
    return np.einsum("ks,ks->s", x.conj(), y).real


def _sqnorm(x):
    # sum of |x|^2 over every axis but the last (the samples)
    return _re_inner(x, x)


def _gram_schmidt(frames):
    """Batched Gram-Schmidt over the field columns of (p, u, m, S) frames.

    Returns the orthonormal frames Q and the product of the Gram-Schmidt
    norms, which is |det_K| of the frames when m = p.  Two projection
    sweeps make Q orthonormal to rounding; every step is one vector
    operation over the S samples.
    """
    q = np.empty_like(frames)
    norms = np.ones(frames.shape[-1])
    for j, col in enumerate(frames):
        v = col.copy()
        for _ in range(2):
            for qi in q[:j]:
                v -= _scale(qi, _inner(qi, v))
        nrm = np.sqrt(_sqnorm(v))
        np.multiply(v, 1.0 / nrm, out=q[j])
        norms *= nrm
    return q, norms


def _abs_det2(field, rows):
    # |det_K B| per sample of the 2 x 2 field blocks B[r, j] = rows[j, :, r].
    # Taken directly, not as det(B* B), whose cancellation near a singular
    # B costs digits.  Over H a Schur complement, |det| = |a| |d - c a^-1 b|
    # = | |a|^2 d - c conj(a) b | / |a|, with the rows swapped where
    # |c| > |a|, so an exact zero in the corner never divides.
    (a, c), (b, d) = rows.transpose(0, 2, 1, 3)
    if field is FieldTag.REAL:
        return np.abs(a[0] * d[0] - b[0] * c[0])
    if field is FieldTag.COMPLEX:
        a, b, c, d = a[0], b[0], c[0], d[0]
        re = (a.real * d.real - a.imag * d.imag) - (b.real * c.real - b.imag * c.imag)
        im = (a.real * d.imag + a.imag * d.real) - (b.real * c.imag + b.imag * c.real)
        return np.hypot(re, im)
    aa, cc = _sqnorm(a), _sqnorm(c)
    (a, c), (b, d) = np.where(cc > aa, rows[:, :, ::-1], rows).transpose(0, 2, 1, 3)
    aa = np.maximum(aa, cc)
    cab = _scale(c[:, None], _inner(a[:, None], b[:, None]))[:, 0]
    return np.sqrt(_sqnorm(d * aa - cab) / aa)


def _frame_integrands(sig, frames, block, test=True):
    """alpha_p and the K-type test value of the Haar samples behind frames.

    `block` picks the p rows whose |det_K| is alpha_p: 0 for the top block,
    1 for the rows below it.  With Q the Gram-Schmidt frame of G, i.e. the
    first p columns of the Haar sample, G = Q R and the Gram matrix
    G* G = R* R, so with B the block rows of G

        alpha_p = |det_K Q_block| = |det_K B| / sqrt(det G* G),

    and the test value is the zonal degree-2 invariant spanning the first
    nontrivial K-type: the trace of the product of the projections onto
    h.b_o and the base point, centered at its Haar mean p^2/(n+1), i.e.
    |Q_top|_F^2 - p^2/(n+1) with |Q_top|_F^2 = tr((G* G)^-1 H), H the Gram
    matrix of the top p rows.

    For p <= 2 both come from the Gram entries g11, g22, g12 of G* G and
    h11, h22, h12 of H: det G* G = g11 g22 - |g12|^2 over R, C and H alike
    (Moore), and tr((G* G)^-1 H) = (g22 h11 + g11 h22 - 2 Re <g12, h12>) /
    det G* G.  No elementwise complex-by-complex product is formed, only
    real ones, real scalings and einsums, so a sample's value does not
    depend on how many samples share the call.  For p >= 3 alpha_p is the
    ratio of products of Gram-Schmidt norms and Q gives |Q_top|_F^2.  With
    test=False the test value is None and is not computed.

    A lone sample is evaluated as two copies of itself.  With one sample
    an array's rows have unit stride, and numpy sums a unit-stride real
    axis in several partial sums instead of in order, as it does across a
    longer view, so the Gram-Schmidt of one sample would round differently.
    """
    if frames.shape[-1] == 1:
        alpha, test = _frame_integrands(sig, np.repeat(frames, 2, axis=-1), block, test)
        return alpha[:1], None if test is None else test[:1]
    p = sig.p
    mean = p ** 2 / (sig.n + 1.0)
    rows, top = frames[:, :, block * p: (block + 1) * p], frames[:, :, :p]
    if p > 2:
        q, norms = _gram_schmidt(frames)
        alpha = _gram_schmidt(rows)[1] / norms
        return alpha, _sqnorm(q[:, :, :p]) - mean if test else None
    g11 = _sqnorm(frames[0])
    if p == 1:
        alpha = np.sqrt(_sqnorm(rows)) / np.sqrt(g11)
        return alpha, _sqnorm(top) / g11 - mean if test else None
    g22, g12 = _sqnorm(frames[1]), _inner(frames[0], frames[1])
    det = g11 * g22 - _sqnorm(g12)
    alpha = _abs_det2(sig.field, rows) / np.sqrt(det)
    if not test:
        return alpha, None
    h11, h22, h12 = _sqnorm(top[0]), _sqnorm(top[1]), _inner(top[0], top[1])
    return alpha, (g22 * h11 + g11 * h22 - 2.0 * _re_inner(g12, h12)) / det - mean


def _mc_eigenvalue(sig, lam, mu, samples, seed, workers, block):
    """The one Monte Carlo estimator body behind mc_c_p, mc_transform_ktype
    and sin_transform_numeric: the mean of alpha_p^(lambda - rho), with alpha_p
    read from `block` (see _frame_integrands), times the library test value
    of mu over its value p q / (n + 1) at the base point (1 when mu = 0)."""
    _require_convergent(lam, sig.rho)
    mu = ktype(sig, mu)
    zero = (0,) * sig.p
    first = (2,) + zero[1:]
    if mu.m not in (zero, first):
        raise ValueError(
            f"unsupported K-type {mu}: the Monte Carlo test-function library "
            f"covers mu = {zero} and mu = {first}"
        )
    expo = complex(lam) - sig.rho
    base = sig.p * sig.q / (sig.n + 1.0)

    def values(g):
        alpha, test = _frame_integrands(sig, g, block, test=not mu.is_zero)
        kern = _kernel_pow(alpha, expo)
        return kern if mu.is_zero else kern * test / base

    return _mc_mean(sig, values, samples, seed, workers)


def mc_c_p(sig, lam, samples, seed, workers=1):
    """Monte Carlo estimate of the c-function: mean of alpha_p(k)^(lambda-rho)."""
    return _mc_eigenvalue(sig, lam, (0,) * sig.p, samples, seed, workers, 0)


def mc_transform_ktype(sig, lam, mu, samples, seed, workers=1):
    """Monte Carlo estimate of the transform eigenvalue on a library K-type.

    Estimates (C f_mu)(b_o) / f_mu(b_o) where f_mu is the invariant test
    function attached to mu; supported: mu = 0 (constants, same as mc_c_p)
    and mu = (2, 0, ..., 0) (the centered degree-2 zonal invariant).
    """
    return _mc_eigenvalue(sig, lam, mu, samples, seed, workers, 0)


def sin_transform_numeric(sig, lam, mu, samples, seed, workers=1):
    """Monte Carlo estimate of the sine-transform eigenvalue (p = q only).

    Same estimator as mc_transform_ktype but with the kernel evaluated
    against the orthocomplement of the base point: the angle factor becomes
    the bottom-left block of the sample.
    """
    if not sig.split_rank_equal:
        raise ValueError("the sine transform needs p = q")
    return _mc_eigenvalue(sig, lam, mu, samples, seed, workers, 1)


# ---------------------------------------------------------------------------
# Selberg integral: the quadrature oracle.
# ---------------------------------------------------------------------------


_SELBERG_BLOCK = 1 << 16  # p = 2 integrand entries formed at once: memory stays flat in the level


def selberg_oracle(p, alpha, g1, g2):
    """Brute-force Selberg integral for p in {1, 2}, alpha > 0 and g1, g2 >= 1e-300.

    Tanh-sinh quadrature on [0, 1] (Takahasi-Mori 1974): nodes
    x = 1 / (1 + exp(-pi sinh u)) at u = j 2^-level, |u| <= U, which do not
    depend on the parameters and absorb algebraic endpoint singularities.
    Every integrand is exp of a sum of logs, so nothing underflows into
    0 ** negative.  The p = 2 case is folded onto the triangle t1 < t2 and
    rescaled (t1 = x y, t2 = x), a tensor rule in (x, y) whose corner factor
    (1 - x y)^(g2 - 1) is taken as (g2 - 1) logaddexp(log(1 - x), log x + log(1 - y)).

    U is set per call so that the dropped tail is below double precision:
    U = max(3, log(80 / (pi gmin))), gmin being the smallest endpoint
    exponent, min(g1, g2) at p = 1 and min(g1, g2, 2 alpha + 1) at p = 2.
    The rule's node count, squared at p = 2, grows like log(1 / gmin).

    The level rises from 3 until two successive levels agree to
    1e-7 * max(1, |I|); ConvergenceError if none do by level 8.
    """
    if p not in (1, 2):
        raise ValueError("the oracle covers p = 1 and p = 2 only")
    if not all(0.0 < x < math.inf for x in (alpha, g1, g2)):  # NaN fails too
        raise ValueError("oracle parameters must be finite positive reals")
    if min(g1, g2) < 1e-300:  # U = 694 at 1e-300; sinh overflows past 710
        raise ValueError("the oracle needs g1, g2 >= 1e-300")
    gmin = min(g1, g2) if p == 1 else min(g1, g2, 2.0 * alpha + 1.0)
    span = max(3.0, math.log(80.0 / math.pi) - math.log(gmin))

    def evaluate(level):
        log_w, log_x, log_1mx = _tanh_sinh_01(level, span)
        if p == 1:
            return float(np.exp(log_w + g1 * log_x + g2 * log_1mx).sum())
        fx = log_w + 2.0 * (g1 + alpha) * log_x + g2 * log_1mx
        fy = log_w + g1 * log_x + (2.0 * alpha + 1.0) * log_1mx
        rows = max(1, _SELBERG_BLOCK // fy.size)
        total = 0.0
        for i in range(0, fx.size, rows):
            corner = np.logaddexp(log_1mx[i:i + rows, None], log_x[i:i + rows, None] + log_1mx)
            total += float(np.exp(fx[i:i + rows, None] + fy + (g2 - 1.0) * corner).sum())
        return 2.0 * total

    return _ladder(evaluate, _SELBERG_TOL, f"Selberg quadrature (alpha={alpha}, g1={g1}, g2={g2})")
