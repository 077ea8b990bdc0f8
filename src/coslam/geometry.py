"""Matrix-level realization of the Grassmannians over R, C and H.

Matrices over R and C are stored as plain float/complex arrays.  A
quaternionic r x s matrix is stored as its complex 2r x 2s realization with
interleaved 2x2 blocks: the entry a + bi + cj + dk becomes

    [[ alpha, beta ],          alpha = a + bi,
     [ -conj(beta), conj(alpha) ]]   beta = c + di .

This keeps sub-blocks of quaternionic matrices contiguous in the realization
and turns quaternionic linear algebra into complex linear algebra, with
|det_R M| = |det_C(realization)|^2.

GroupElement and FramePoint hold a stack of matrices or frames over any
leading axes (one element is a stack of shape ()), validated as a whole, and
act, group_compose, group_inverse, alpha_p and cos_angle work on each
element of a stack: numpy runs the same LAPACK routine on each matrix, so a
stacked call equals its per-element calls bit for bit.

All sampling takes an explicit numpy Generator; nothing touches global RNG
state, so independent streams can run concurrently.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .spectral import FieldTag, GrassmannSignature

__all__ = [
    "GroupElement",
    "FramePoint",
    "quat_embed",
    "quat_parts",
    "quat_structure_error",
    "base_point",
    "act",
    "group_compose",
    "group_inverse",
    "alpha_p",
    "cos_angle",
    "torus_point",
    "haar_sample",
    "haar_batch",
    "frame_batch",
]


def _units(field):
    """Realization block size per field entry: 1 for R and C, 2 for H."""
    return 2 if field is FieldTag.QUATERNION else 1


def _dtype(field):
    return np.float64 if field is FieldTag.REAL else np.complex128


def quat_embed(alpha, beta):
    """Complex realization of the quaternionic matrix alpha + beta j."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    beta = np.asarray(beta, dtype=np.complex128)
    r, s = alpha.shape[-2], alpha.shape[-1]
    out = np.zeros(alpha.shape[:-2] + (2 * r, 2 * s), dtype=np.complex128)
    out[..., 0::2, 0::2] = alpha
    out[..., 0::2, 1::2] = beta
    out[..., 1::2, 0::2] = -beta.conj()
    out[..., 1::2, 1::2] = alpha.conj()
    return out


def quat_parts(mat):
    """Inverse of quat_embed: the (alpha, beta) parts of a realization."""
    return mat[..., 0::2, 0::2], mat[..., 0::2, 1::2]


def quat_structure_error(mat):
    """Max deviation from the symplectic block symmetry of a realization."""
    a, b = quat_parts(mat)
    e1 = np.abs(mat[..., 1::2, 1::2] - a.conj()).max()
    e2 = np.abs(mat[..., 1::2, 0::2] + b.conj()).max()
    return max(float(e1), float(e2))


def _abs_det_field(field, block):
    """|det_K| of a square field matrix given by its realization.

    Equals |det_R|^(1/d); for H the realized determinant is the square of
    the quaternionic one, hence the square root.
    """
    dets = np.abs(np.linalg.det(block))
    if field is FieldTag.QUATERNION:
        dets = np.sqrt(dets)
    return dets


def _require_finite(values, what):  # before numpy warns on them
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite")


@dataclass(frozen=True)
class GroupElement:
    """An isometry of K^(n+1), stored as the realization of its matrix, or
    a stack of them over leading axes."""

    sig: GrassmannSignature
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=_dtype(self.sig.field))
        object.__setattr__(self, "mat", mat)
        u = _units(self.sig.field)
        size = u * (self.sig.n + 1)
        if mat.shape[-2:] != (size, size):
            raise ValueError(f"expected a {size}x{size} realization, got {mat.shape}")
        _require_finite(mat, "matrix entries")
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries fail the checks
            if self.sig.field is FieldTag.QUATERNION and not quat_structure_error(mat) <= 1e-12:
                raise ValueError("matrix does not have the quaternionic block structure")
            dets = _abs_det_field(self.sig.field, mat) ** self.sig.d
            if not (np.abs(dets - 1.0) <= 1e-10).all():
                raise ValueError("matrix is not special: |det_R| != 1")


@dataclass(frozen=True)
class FramePoint:
    """A point of the Grassmannian, given by an orthonormal p-frame, or a
    stack of them over leading axes."""

    sig: GrassmannSignature
    frame: np.ndarray

    def __post_init__(self):
        frame = np.asarray(self.frame, dtype=_dtype(self.sig.field))
        object.__setattr__(self, "frame", frame)
        u = _units(self.sig.field)
        shape = (u * (self.sig.n + 1), u * self.sig.p)
        if frame.shape[-2:] != shape:
            raise ValueError(f"expected a {shape} frame, got {frame.shape}")
        _require_finite(frame, "frame entries")
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries fail the checks
            gram = _adjoint(frame) @ frame
            if not np.abs(gram - np.eye(shape[1])).max() <= 1e-10:
                raise ValueError("frame columns are not orthonormal")
            if self.sig.field is FieldTag.QUATERNION and not quat_structure_error(frame) <= 1e-12:
                raise ValueError("frame does not have the quaternionic block structure")


def _adjoint(mats):
    """The conjugate transpose of each matrix of a stack."""
    return np.swapaxes(mats.conj(), -1, -2)


def _float_or_array(values):
    """A float for one element (shape ()), else the array."""
    return float(values) if values.ndim == 0 else values


def base_point(sig):
    """The base point: the span of the first p coordinate axes."""
    u = _units(sig.field)
    eye = np.eye(u * (sig.n + 1), dtype=_dtype(sig.field))
    return FramePoint(sig, eye[:, : u * sig.p])


def act(g, b):
    """Move a frame by an isometry."""
    return FramePoint(b.sig, g.mat @ b.frame)


def group_compose(g, h):
    return GroupElement(g.sig, g.mat @ h.mat)


def group_inverse(g):
    return GroupElement(g.sig, np.linalg.inv(g.mat))


def alpha_p(sig, g):
    """The parabolic cocycle at g: |det_K(A)| for the top-left p x p block.

    alpha_p(g)^lambda = |det_R A|^(lambda/d); the returned base value is
    |det_R A|^(1/d).  Returns 0 when A is singular (g outside the open cell).
    A float for one element, an array of the stack's shape for a stack.
    """
    u = _units(sig.field)
    block = g.mat[..., : u * sig.p, : u * sig.p]
    return _float_or_array(_abs_det_field(sig.field, block))


def cos_angle(b, c):
    """|Cos(b, c)|: the product of the cosines of the principal angles.

    Computed from the singular values of c* b, which is the realization of
    the p x p field matrix pairing the two frames.  Always in [0, 1].  A
    float for two single frames, else an array of the broadcast stack shape.
    """
    if b.sig != c.sig:
        raise ValueError("frames live on different Grassmannians")
    m = _adjoint(c.frame) @ b.frame
    s = np.linalg.svd(m, compute_uv=False)
    val = np.prod(np.clip(s, 0.0, 1.0), axis=-1)
    if b.sig.field is FieldTag.QUATERNION:
        val = np.sqrt(val)
    return _float_or_array(np.minimum(val, 1.0))


def torus_point(sig, t):
    """The torus element: block rotations by angles t_j in the (j, q+j) planes.

    t = 0 gives the identity; for p = q, t = (pi/2, ..., pi/2) gives the
    element exchanging the base point with its orthocomplement.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape != (sig.p,) or not np.isfinite(t).all():
        raise ValueError(f"need a {sig.p}-tuple of finite angles")
    n1 = sig.n + 1
    mat = np.eye(n1)
    for j in range(sig.p):
        cj, sj = np.cos(t[j]), np.sin(t[j])
        a, bcol = j, sig.q + j
        mat[a, a] = cj
        mat[a, bcol] = -sj
        mat[bcol, a] = sj
        mat[bcol, bcol] = cj
    if sig.field is FieldTag.QUATERNION:
        mat = quat_embed(mat, np.zeros_like(mat))
    return GroupElement(sig, mat)


# ---------------------------------------------------------------------------
# Haar sampling.
# ---------------------------------------------------------------------------


def _ginibre(sig, rng, count):
    """count Ginibre matrices as a stacked realization.  Each real part is
    one standard_normal draw of (count, n+1, n+1), in a fixed order: R one;
    C re, im; H alpha re, alpha im, beta re, beta im."""
    part = functools.partial(rng.standard_normal, (count, sig.n + 1, sig.n + 1))
    if sig.field is FieldTag.REAL:
        return part()
    alpha = part() + 1j * part()
    return alpha if sig.field is FieldTag.COMPLEX else quat_embed(alpha, part() + 1j * part())


def _haar_from_ginibre(sig, mats):
    """Haar samples from K, one per stacked Ginibre realization in mats.

    QR of each matrix, with each column of Q multiplied by the phase
    diag(R)/|diag(R)| so that R has a positive real diagonal (Mezzadri,
    Notices AMS 2007).  Such a QR is unique, so Q is the Gram-Schmidt of
    the columns in order.  Over H that is the quaternionic Gram-Schmidt:
    each realized column pair (v, Jv) is orthogonal, and projecting off a
    span of such pairs keeps the pair structure, so Q realizes a
    quaternionic unitary.  A realization of Sp(n+1) has det 1, so only R
    and C need the determinant correction into the special group: a
    last-column phase, which does not move the induced point on the
    Grassmannian.
    """
    q, r = np.linalg.qr(mats)
    diag = np.einsum("bii->bi", r)
    q *= (diag / np.abs(diag))[:, None, :]
    if sig.field is not FieldTag.QUATERNION:
        dets = np.linalg.det(q)
        q[:, :, -1] *= (dets.conj() / np.abs(dets))[:, None]
    return q


def haar_batch(sig, rng, count):
    """count independent Haar samples from K, as a stacked realization array."""
    return _haar_from_ginibre(sig, _ginibre(sig, rng, count))


def frame_batch(sig, rng, count, out=None):
    """count Gaussian p-frames G in K^(n+1), samples last, from one draw.

    The result has shape (p, u, n+1, count): field column, part, row,
    sample.  R and C entries have one part (u = 1); a quaternion a + b j
    keeps its complex parts a and b (u = 2), with no 2 x 2 realization.
    One rng.standard_normal call fills the array's float64 view in C order,
    so every real component of every entry is an iid N(0, 1), a complex
    entry taking two consecutive normals (re, im).  `out`, if given, must
    be a C-contiguous array of that shape and dtype; it is filled and
    returned.

    G is distributed as the first p columns of a Ginibre matrix.  Column k
    of the phase-fixed QR in _haar_from_ginibre depends only on columns
    1..k, and the determinant correction only touches column n+1, so the
    Gram-Schmidt frame of G is distributed as the first p columns of a Haar
    sample: means over G of |det_K| of p rows of that frame, or of their
    Frobenius norm, are Haar means.
    """
    shape, dtype = (sig.p, _units(sig.field), sig.n + 1, count), np.dtype(_dtype(sig.field))
    if out is None:
        out = np.empty(shape, dtype)
    elif out.shape != shape or out.dtype != dtype or not out.flags.c_contiguous:
        # standard_normal would fill an F-contiguous out in its memory order
        raise ValueError(f"out must be a C-contiguous {dtype} array of shape {shape}")
    rng.standard_normal(out=out.view(np.float64))
    return out


def haar_sample(sig, rng):
    """One Haar sample from K = SU(n+1, K), as a GroupElement."""
    return GroupElement(sig, haar_batch(sig, rng, 1)[0])
