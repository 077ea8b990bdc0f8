import numpy as np
import pytest
from scipy import stats

from coslam.geometry import (
    FramePoint,
    GroupElement,
    act,
    alpha_p,
    base_point,
    cos_angle,
    group_compose,
    group_inverse,
    haar_batch,
    haar_sample,
    quat_embed,
    quat_parts,
    quat_structure_error,
    torus_point,
)
from coslam.spectral import FieldTag, GrassmannSignature

R, C, H = FieldTag.REAL, FieldTag.COMPLEX, FieldTag.QUATERNION

ALL_FIELDS = [R, C, H]


def sig(n, p, field):
    return GrassmannSignature(n, p, field)


def quarter_turn(s):
    """The exact quarter turn in the (j, q+j) planes, for p = q."""
    u = 2 if s.field is H else 1
    eye, zero = np.eye(u * s.p), np.zeros((u * s.p, u * s.p))
    return GroupElement(s, np.block([[zero, -eye], [eye, zero]]))


def quat_real_realization(alpha, beta):
    """Quaternionic matrix as an R-linear map (left multiplication), for the
    determinant bridge oracle."""
    a, b = alpha.real, alpha.imag
    c, d = beta.real, beta.imag
    r, s = a.shape
    out = np.zeros((4 * r, 4 * s))
    for i in range(r):
        for j in range(s):
            out[4 * i: 4 * i + 4, 4 * j: 4 * j + 4] = [
                [a[i, j], -b[i, j], -c[i, j], -d[i, j]],
                [b[i, j], a[i, j], -d[i, j], c[i, j]],
                [c[i, j], d[i, j], a[i, j], -b[i, j]],
                [d[i, j], -c[i, j], b[i, j], a[i, j]],
            ]
    return out


class TestQuaternionEmbedding:
    def test_round_trip_and_structure(self, rng):
        alpha = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        beta = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        m = quat_embed(alpha, beta)
        a2, b2 = quat_parts(m)
        assert np.allclose(a2, alpha) and np.allclose(b2, beta)
        assert quat_structure_error(m) == 0.0

    def test_embedding_is_multiplicative(self, rng):
        a1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = quat_embed(a1, b1) @ quat_embed(a2, b2)
        # (a1 + b1 j)(a2 + b2 j) = (a1 a2 - b1 conj(b2)) + (a1 b2 + b1 conj(a2)) j
        rhs = quat_embed(a1 @ a2 - b1 @ b2.conj(), a1 @ b2 + b1 @ a2.conj())
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_determinant_bridge(self, rng):
        # |det_R M| from the real realization == |det_C(embedding)|^2
        for _ in range(5):
            alpha = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            beta = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            det_r = abs(np.linalg.det(quat_real_realization(alpha, beta)))
            det_c = abs(np.linalg.det(quat_embed(alpha, beta)))
            assert abs(det_r - det_c**2) < 1e-10 * max(1.0, det_r)


class TestValidation:
    def test_group_element_must_be_special(self):
        s = sig(2, 1, R)
        with pytest.raises(ValueError):
            GroupElement(s, 2.0 * np.eye(3))
        GroupElement(s, np.eye(3))

    def test_frame_must_be_orthonormal(self):
        s = sig(2, 1, R)
        with pytest.raises(ValueError):
            FramePoint(s, np.array([[1.0], [1.0], [0.0]]))

    def test_quaternionic_structure_enforced(self):
        s = sig(1, 1, H)
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1e-3  # breaks the block symmetry
        with pytest.raises(ValueError):
            GroupElement(s, bad)

    @pytest.mark.parametrize("field", ALL_FIELDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, field, bad):
        # ValueError before numpy warns (every warning is an error here).
        s = sig(2, 1, field)
        u = 2 if field is H else 1
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            GroupElement(s, np.full((3 * u, 3 * u), bad))
        mat = np.eye(3 * u)
        mat[-1, -1] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            GroupElement(s, mat)
        frame = np.eye(3 * u)[:, :u]
        frame[0, 0] = bad
        with pytest.raises(ValueError, match="frame entries must be finite"):
            FramePoint(s, frame)

    @pytest.mark.parametrize("field,huge", [(R, 1e200), (R, 1.7e308), (C, 1e200 + 1e200j),
                                            (C, 1.7e308), (H, 1e200), (H, 1e200 + 1e200j)])
    def test_huge_finite_entries_rejected(self, field, huge):
        # The Gram product and the determinant overflow: ValueError, not a numpy warning.
        s = sig(2, 1, field)
        column = np.array([[huge], [0.0], [0.0]])
        diag = np.diag([huge, huge, 1.0])
        if field is H:
            column, diag = quat_embed(column, 0 * column), quat_embed(diag, 0 * diag)
        with pytest.raises(ValueError, match="frame columns are not orthonormal"):
            FramePoint(s, column)
        with pytest.raises(ValueError, match="matrix is not special"):
            GroupElement(s, diag)

    @pytest.mark.parametrize("field", ALL_FIELDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_angles_rejected(self, field, bad):
        s = sig(3, 2, field)
        with pytest.raises(ValueError, match="finite angles"):
            torus_point(s, [0.25, bad])


class TestAlpha:
    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_identity(self, field):
        s = sig(3, 2, field)
        u = 2 if field is H else 1
        g = GroupElement(s, np.eye(4 * u, dtype=complex if field is not R else float))
        assert abs(alpha_p(s, g) - 1.0) < 1e-14

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_torus_value(self, field, rng):
        s = sig(4, 2, field)
        for _ in range(5):
            t = rng.uniform(0, np.pi, s.p)
            got = alpha_p(s, torus_point(s, t))
            assert abs(got - np.abs(np.cos(t)).prod()) < 1e-12

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_symmetric_under_inverse(self, field, rng):
        s = sig(3, 2, field)
        for _ in range(20):
            k = haar_sample(s, rng)
            assert abs(alpha_p(s, k) - alpha_p(s, group_inverse(k))) < 1e-12


class TestCosAngle:
    def test_equal_frames(self, rng):
        for field in ALL_FIELDS:
            s = sig(3, 2, field)
            b = act(haar_sample(s, rng), base_point(s))
            assert abs(cos_angle(b, b) - 1.0) < 1e-12

    def test_perpendicular_frames(self, rng):
        for field in ALL_FIELDS:
            s = sig(3, 2, field)
            bo, w = base_point(s), quarter_turn(s)
            for _ in range(10):
                k = haar_sample(s, rng)
                assert cos_angle(act(k, bo), act(k, act(w, bo))) < 1e-12

    def test_circle_case(self):
        s = sig(1, 1, R)
        e1 = base_point(s)
        for theta in np.linspace(0.0, np.pi, 13):
            b = FramePoint(s, np.array([[np.cos(theta)], [np.sin(theta)]]))
            assert abs(cos_angle(b, e1) - abs(np.cos(theta))) < 1e-14

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_agrees_with_cocycle(self, field, rng):
        s = sig(4, 2, field)
        bo = base_point(s)
        for _ in range(20):
            k = haar_sample(s, rng)
            h = haar_sample(s, rng)
            lhs = cos_angle(act(k, bo), act(h, bo))
            rhs = alpha_p(s, group_compose(group_inverse(h), k))
            assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_symmetry(self, field, rng):
        s = sig(3, 2, field)
        bo = base_point(s)
        for _ in range(10):
            b = act(haar_sample(s, rng), bo)
            c = act(haar_sample(s, rng), bo)
            assert abs(cos_angle(b, c) - cos_angle(c, b)) < 1e-12

    def test_signature_mismatch_rejected(self, rng):
        b = base_point(sig(3, 2, R))
        c = base_point(sig(3, 2, C))
        with pytest.raises(ValueError):
            cos_angle(b, c)


class TestComplement:
    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_base_point_complement(self, field):
        s = sig(3, 2, field)
        u = 2 if field is H else 1
        complement = FramePoint(s, np.eye(u * (s.n + 1))[:, u * s.p:])
        moved = act(torus_point(s, np.full(s.p, np.pi / 2.0)), base_point(s))
        assert np.abs(moved.frame - complement.frame).max() < 1e-15
        assert abs(cos_angle(complement, moved) - 1.0) < 1e-12


class TestTorus:
    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_zero_angles_identity(self, field):
        s = sig(4, 2, field)
        g = torus_point(s, np.zeros(s.p))
        size = g.mat.shape[0]
        assert np.abs(g.mat - np.eye(size)).max() < 1e-15

    def test_right_angles_give_swap(self):
        s = sig(3, 2, R)
        w = torus_point(s, np.array([np.pi / 2, np.pi / 2]))
        expected = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
        assert np.abs(w.mat - expected).max() < 1e-15

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_lands_in_compact_group(self, field, rng):
        s = sig(5, 2, field)
        t = rng.uniform(-np.pi, np.pi, s.p)
        g = torus_point(s, t)
        size = g.mat.shape[0]
        assert np.abs(g.mat.conj().T @ g.mat - np.eye(size)).max() < 1e-13


class TestHaar:
    @pytest.mark.parametrize("field", ALL_FIELDS)
    @pytest.mark.parametrize("n,p", [(3, 2), (1, 1), (5, 2)])
    def test_sample_invariants(self, n, p, field, rng):
        s = sig(n, p, field)
        mats = haar_batch(s, rng, 64)
        size = mats.shape[-1]
        gram_err = np.abs(np.einsum("bij,bik->bjk", mats.conj(), mats) - np.eye(size)).max()
        assert gram_err < 1e-10
        dets = np.abs(np.linalg.det(mats))
        if field is not R:
            dets = dets**2  # |det_R| = |det_C|^2 for the realizations
        assert np.abs(dets - 1.0).max() < 1e-10
        if field is H:
            assert quat_structure_error(mats) < 1e-12

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_entry_mean_is_zero(self, field):
        rng = np.random.default_rng(7)
        s = sig(2, 1, field)
        n = 100_000
        vals = haar_batch(s, rng, n)[:, 0, 0]
        parts = np.concatenate([vals.real, vals.imag]) if field is not R else vals.real
        mean = parts.mean()
        stderr = parts.std(ddof=1) / np.sqrt(parts.size)
        assert abs(mean) < 4.0 * stderr

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_left_invariance_of_angle_distribution(self, field):
        # cos_angle(g k b_o, b_o) and cos_angle(k b_o, b_o) must agree in law
        rng = np.random.default_rng(11)
        s = sig(3, 2, field)
        n = 100_000
        u = 2 if field is H else 1
        pe = u * s.p
        g = haar_sample(s, rng).mat

        def angles(mats):
            d = np.abs(np.linalg.det(mats[:, :pe, :pe]))
            return np.sqrt(d) if field is H else d

        base = haar_batch(s, rng, n)
        a1 = angles(base)
        a2 = angles(np.einsum("ij,bjk->bik", g, haar_batch(s, rng, n)))
        ks = stats.ks_2samp(a1, a2)
        crit = 1.628 * np.sqrt(2.0 / n)  # 1% critical value, equal sizes
        assert ks.statistic < crit

    def test_circle_angle_uniform(self):
        rng = np.random.default_rng(3)
        s = sig(1, 1, R)
        mats = haar_batch(s, rng, 100_000)
        theta = np.arctan2(mats[:, 1, 0], mats[:, 0, 0])
        ks = stats.ks_1samp(theta, stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf)
        assert ks.pvalue > 0.01

    def test_haar_sample_wraps_batch(self, rng):
        s = sig(2, 1, C)
        g = haar_sample(s, rng)
        assert isinstance(g, GroupElement)
        assert isinstance(act(g, base_point(s)), FramePoint)


class TestStacks:
    """A GroupElement or FramePoint holds a stack of elements over leading
    axes; every geometry function on a stack equals its per-element calls,
    bit for bit, and a stack is validated as a whole."""

    SHAPE = (3, 4)

    def stacks(self, s):
        mats = haar_batch(s, np.random.default_rng(21), 24)
        k, h = mats.reshape(2, *self.SHAPE, *mats.shape[1:])
        return GroupElement(s, k), GroupElement(s, h)

    @pytest.mark.parametrize("field", ALL_FIELDS)
    @pytest.mark.parametrize("n,p", [(1, 1), (3, 2), (5, 3)])
    def test_stacked_calls_equal_per_element_calls(self, n, p, field):
        s = sig(n, p, field)
        k, h = self.stacks(s)
        bo = base_point(s)
        stacked = {
            "inverse": group_inverse(k).mat,
            "compose": group_compose(k, h).mat,
            "act": act(k, bo).frame,
            "alpha": alpha_p(s, k),
            "cos": cos_angle(act(k, bo), act(h, bo)),
        }
        assert stacked["alpha"].shape == stacked["cos"].shape == self.SHAPE
        for i in np.ndindex(self.SHAPE):
            ki, hi = GroupElement(s, k.mat[i]), GroupElement(s, h.mat[i])
            single = {
                "inverse": group_inverse(ki).mat,
                "compose": group_compose(ki, hi).mat,
                "act": act(ki, bo).frame,
                "alpha": alpha_p(s, ki),
                "cos": cos_angle(act(ki, bo), act(hi, bo)),
            }
            assert isinstance(single["alpha"], float) and isinstance(single["cos"], float)
            for name, value in single.items():
                assert np.array_equal(stacked[name][i], value), (name, i)

    def test_one_element_is_a_stack_of_shape_empty(self):
        s = sig(3, 2, C)
        k, _ = self.stacks(s)
        one = GroupElement(s, k.mat[1, 2])
        assert one.mat.shape == (4, 4)
        assert alpha_p(s, one) == alpha_p(s, k)[1, 2]
        assert alpha_p(s, GroupElement(s, k.mat[1:2, 2:3]))[0, 0] == alpha_p(s, one)

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_one_bad_element_fails_the_stack(self, field):
        s = sig(2, 1, field)
        u = 2 if field is H else 1
        good = haar_batch(s, np.random.default_rng(3), 5)
        cases = [(2.0, "matrix is not special: |det_R| != 1"),
                 (np.nan, "matrix entries must be finite")]
        for scale, message in cases:
            mats = good.copy()
            mats[3] *= scale
            with pytest.raises(ValueError, match=message.replace("|", r"\|")):
                GroupElement(s, mats)
        frames = good[:, :, :u].copy()
        frames[4, 0, 0] = np.inf
        with pytest.raises(ValueError, match="frame entries must be finite"):
            FramePoint(s, frames)
        frames = good[:, :, :u].copy()
        frames[1] *= 1.5
        with pytest.raises(ValueError, match="frame columns are not orthonormal"):
            FramePoint(s, frames)
        with pytest.raises(ValueError, match="expected a"):
            GroupElement(s, good[:, :, :-1])

    def test_one_non_quaternionic_element_fails_the_stack(self):
        s = sig(2, 1, H)
        mats = haar_batch(s, np.random.default_rng(4), 5)
        mats[2, 0, 1] += 1e-3  # breaks the block symmetry of one element
        with pytest.raises(ValueError, match="matrix does not have the quaternionic block structure"):
            GroupElement(s, mats)
        frames = haar_batch(s, np.random.default_rng(4), 5)[:, :, :2]
        frames[2, :, 1] *= 1j  # still orthonormal, no longer a quaternionic column pair
        with pytest.raises(ValueError, match="frame does not have the quaternionic block structure"):
            FramePoint(s, frames)
