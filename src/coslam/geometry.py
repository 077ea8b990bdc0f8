"""Matrix-level realization of the Grassmannians over R, C and H.

Matrices over R and C are stored as plain float/complex arrays.  A
quaternionic r x s matrix is stored as its complex 2r x 2s realization with
interleaved 2x2 blocks: the entry a + bi + cj + dk becomes

    [[ alpha, beta ],          alpha = a + bi,
     [ -conj(beta), conj(alpha) ]]   beta = c + di .

This keeps sub-blocks of quaternionic matrices contiguous in the realization
and turns quaternionic linear algebra into complex linear algebra, with
|det_R M| = |det_C(realization)|^2.

All sampling takes an explicit numpy Generator; nothing touches global RNG
state, so independent streams can run concurrently.
"""

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
    "perp",
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


@dataclass(frozen=True)
class GroupElement:
    """An isometry of K^(n+1), stored as the realization of its matrix."""

    sig: GrassmannSignature
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=_dtype(self.sig.field))
        object.__setattr__(self, "mat", mat)
        u = _units(self.sig.field)
        size = u * (self.sig.n + 1)
        if mat.shape != (size, size):
            raise ValueError(f"expected a {size}x{size} realization, got {mat.shape}")
        if self.sig.field is FieldTag.QUATERNION and quat_structure_error(mat) > 1e-12:
            raise ValueError("matrix does not have the quaternionic block structure")
        if abs(_abs_det_field(self.sig.field, mat) ** self.sig.d - 1.0) > 1e-10:
            raise ValueError("matrix is not special: |det_R| != 1")


@dataclass(frozen=True)
class FramePoint:
    """A point of the Grassmannian, given by an orthonormal p-frame."""

    sig: GrassmannSignature
    frame: np.ndarray

    def __post_init__(self):
        frame = np.asarray(self.frame, dtype=_dtype(self.sig.field))
        object.__setattr__(self, "frame", frame)
        u = _units(self.sig.field)
        shape = (u * (self.sig.n + 1), u * self.sig.p)
        if frame.shape != shape:
            raise ValueError(f"expected a {shape} frame, got {frame.shape}")
        gram = frame.conj().T @ frame
        if np.abs(gram - np.eye(shape[1])).max() > 1e-10:
            raise ValueError("frame columns are not orthonormal")
        if self.sig.field is FieldTag.QUATERNION and quat_structure_error(frame) > 1e-12:
            raise ValueError("frame does not have the quaternionic block structure")


def base_point(sig):
    """The base point: the span of the first p coordinate axes."""
    u = _units(sig.field)
    eye = np.eye(u * (sig.n + 1), dtype=_dtype(sig.field))
    return FramePoint(sig, eye[:, : u * sig.p])


def frame_of(g):
    """The point g . b_o, i.e. the first p columns of g."""
    u = _units(g.sig.field)
    return FramePoint(g.sig, g.mat[:, : u * g.sig.p])


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
    """
    u = _units(sig.field)
    block = g.mat[: u * sig.p, : u * sig.p]
    return float(_abs_det_field(sig.field, block))


def cos_angle(b, c):
    """|Cos(b, c)|: the product of the cosines of the principal angles.

    Computed from the singular values of c* b, which is the realization of
    the p x p field matrix pairing the two frames.  Always in [0, 1].
    """
    if b.sig != c.sig:
        raise ValueError("frames live on different Grassmannians")
    m = c.frame.conj().T @ b.frame
    s = np.linalg.svd(m, compute_uv=False)
    val = float(np.prod(np.clip(s, 0.0, 1.0)))
    if b.sig.field is FieldTag.QUATERNION:
        val = np.sqrt(val)
    return min(val, 1.0)


def perp(b):
    """Orthocomplement frame; needs p = q so the result lives on the same space."""
    sig = b.sig
    if not sig.split_rank_equal:
        raise ValueError("orthocomplement stays in the same Grassmannian only for p = q")
    if sig.field is FieldTag.QUATERNION:
        comp = _quat_complete(b.frame)
    else:
        q_full, _ = np.linalg.qr(b.frame, mode="complete")
        comp = q_full[:, b.frame.shape[1]:]
    return FramePoint(sig, comp)


def _quat_complete(frame):
    # Extend a quaternionic frame to a full unitary by Gram-Schmidt over the
    # standard basis, keeping the 2x2 block structure intact.
    n2 = frame.shape[0]
    need = (n2 - frame.shape[1]) // 2
    cols = [frame[:, 2 * i: 2 * i + 2] for i in range(frame.shape[1] // 2)]
    out = []
    for i in range(n2 // 2):
        cand = np.zeros((n2, 2), dtype=np.complex128)
        cand[2 * i, 0] = 1.0
        cand[2 * i + 1, 1] = 1.0
        for _ in range(2):
            for qcol in cols:
                cand = cand - qcol @ (qcol.conj().T @ cand)
        nrm = np.sqrt(cand[:, 0].conj() @ cand[:, 0]).real
        if nrm > 1e-6:
            cand = cand / nrm
            cols.append(cand)
            out.append(cand)
            if len(out) == need:
                break
    return np.hstack(out)


def torus_point(sig, t):
    """The torus element: block rotations by angles t_j in the (j, q+j) planes.

    t = 0 gives the identity; for p = q, t = (pi/2, ..., pi/2) gives the
    element exchanging the base point with its orthocomplement.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape != (sig.p,):
        raise ValueError(f"need a {sig.p}-tuple of angles")
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


_DRAW_CHUNK = 1024  # Ginibre samples per standard_normal call in frame_batch


def _normal_parts(sig, rng, count, chunk):
    """The real parts of count Ginibre matrices, as (part, start, normals).

    normals holds samples start.. of that part, (k, n+1, n+1), in one buffer
    that the next chunk overwrites.  Parts come in a fixed order (R: one;
    C: re, im; H: alpha re, alpha im, beta re, beta im), each in sample
    order, so rng yields the numbers of whole-part draws and every sampler
    that starts here advances rng alike.
    """
    n1 = sig.n + 1
    parts = {FieldTag.REAL: 1, FieldTag.COMPLEX: 2, FieldTag.QUATERNION: 4}[sig.field]
    buf = np.empty((min(chunk, count), n1, n1))
    for part in range(parts):
        for start in range(0, max(count, 1), chunk):  # count 0: one empty chunk
            normals = buf[: min(chunk, count - start)]
            rng.standard_normal(out=normals)
            yield part, start, normals


def _ginibre(sig, rng, count):
    """count Ginibre matrices as a stacked realization."""
    parts = [normals.copy() for _, _, normals in _normal_parts(sig, rng, count, max(count, 1))]
    if sig.field is FieldTag.REAL:
        return parts[0]
    if sig.field is FieldTag.COMPLEX:
        return parts[0] + 1j * parts[1]
    return quat_embed(parts[0] + 1j * parts[1], parts[2] + 1j * parts[3])


def haar_batch(sig, rng, count):
    """count independent Haar samples from K, as a stacked realization array.

    QR of a Ginibre matrix, with each column of Q multiplied by the phase
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
    q, r = np.linalg.qr(_ginibre(sig, rng, count))
    diag = np.einsum("bii->bi", r)
    q *= (diag / np.abs(diag))[:, None, :]
    if sig.field is not FieldTag.QUATERNION:
        dets = np.linalg.det(q)
        q[:, :, -1] *= (dets.conj() / np.abs(dets))[:, None]
    return q


def frame_batch(sig, rng, count, out=None):
    """The Gaussian p-frames G behind haar_batch(sig, rng, count), samples last.

    G is the first p field columns of the same Ginibre draw, and rng
    advances exactly as under haar_batch.  The result has shape
    (p, u, n+1, count): field column, part, row, sample.  R and C entries
    have one part (u = 1); a quaternion a + b j keeps its complex parts
    a and b (u = 2), with no 2 x 2 realization.  `out`, if given, is an
    array of that shape and dtype whose last axis is contiguous; it is
    filled and returned.  The normals pass through a buffer of _DRAW_CHUNK
    samples, so the draw holds no whole Ginibre part.

    Column k of the QR factor depends only on columns 1..k of the draw, and
    the phase fix gives the QR the positive real diagonal of Gram-Schmidt,
    so the first p columns of the Haar sample are the Gram-Schmidt frame
    of G (the determinant correction only touches column n+1).  Any |det|
    of p rows of that frame and their Frobenius norm are therefore
    functions of G alone.
    """
    if out is None:
        out = np.empty((sig.p, _units(sig.field), sig.n + 1, count), dtype=_dtype(sig.field))
    comps = 1 if sig.field is FieldTag.REAL else 2  # reals per entry
    flat = out.view(np.float64)  # re, im interleaved along the sample axis
    for i, start, normals in _normal_parts(sig, rng, count, _DRAW_CHUNK):
        stop = comps * (start + len(normals))
        flat[:, i // comps, :, comps * start + i % comps:stop:comps] = \
            normals[:, :, :sig.p].transpose(2, 1, 0)
    return out


def haar_sample(sig, rng):
    """One Haar sample from K = SU(n+1, K), as a GroupElement."""
    return GroupElement(sig, haar_batch(sig, rng, 1)[0])
