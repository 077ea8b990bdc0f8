import numpy as np
import pytest

from coslam.geometry import frame_batch, haar_batch
from coslam.spectral import FieldTag, GrassmannSignature, c_p, eta, nu, sphere_eta
from coslam.transform import (
    ConvergenceError,
    SphereGrid,
    _frame_alpha,
    _gram,
    _ktype_test_values,
    cos_transform_sphere,
    funk_hecke_1d,
    mc_c_p,
    mc_transform_ktype,
    selberg_closed,
    selberg_oracle,
    sin_transform_numeric,
    sphere_grid,
    sphere_quadrature_tolerance,
    zonal_values,
)

from conftest import rel_err

R, C, H = FieldTag.REAL, FieldTag.COMPLEX, FieldTag.QUATERNION


def sig(n, p, field):
    return GrassmannSignature(n, p, field)


# Values computed once with mpmath quadrature of the 1-D eigenvalue integral.
FUNK_HECKE_ORACLE = [
    (2, 2, 2.0, 2.0 / 21.0),
    (3, 4, 3.25, -0.008982384695021852),
    (2, 0, 3.5, 1.0 / 3.0),
]


class TestSphereGrid:
    @pytest.mark.parametrize("n,order", [(1, 16), (2, 12), (2, 64)])
    def test_normalized(self, n, order):
        grid = sphere_grid(n, order)
        assert abs(grid.weights.sum() - 1.0) < 1e-12
        assert np.abs(np.linalg.norm(grid.points, axis=1) - 1.0).max() < 1e-12

    def test_integrates_harmonics_to_zero(self):
        grid = sphere_grid(2, 24)
        t = grid.points[:, 2]
        for m in (1, 2, 3, 4):
            assert abs(grid.weights @ zonal_values(2, m, t)) < 1e-13

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            sphere_grid(3, 8)
        with pytest.raises(ValueError):
            SphereGrid(2, np.zeros((4, 3)), np.full(4, 0.3))


class TestCosTransformSphere:
    def test_constant_gives_c_function(self):
        grid = sphere_grid(2, 64)
        lam = 3.5  # rho + 2
        out = cos_transform_sphere(2, lam, np.ones(len(grid.weights)), grid)
        ref = c_p(sig(2, 1, R), lam).value
        assert np.abs(out - ref).max() < 1e-4

    def test_kills_odd_harmonics(self):
        grid = sphere_grid(2, 32)
        t = grid.points @ np.array([0.0, 0.0, 1.0])
        for m in (1, 3):
            out = cos_transform_sphere(2, 3.5, zonal_values(2, m, t), grid)
            assert np.abs(out).max() < 1e-10
        # degree-1 harmonic about a generic axis
        axis = np.array([1.0, 2.0, -0.5])
        f = grid.points @ (axis / np.linalg.norm(axis))
        out = cos_transform_sphere(2, 3.5, f, grid)
        assert np.abs(out).max() < 1e-10

    def test_zonal_eigenfunction(self):
        grid = sphere_grid(2, 64)
        lam = 3.5
        t = grid.points @ np.array([0.0, 0.0, 1.0])
        f = zonal_values(2, 2, t)
        out = cos_transform_sphere(2, lam, f, grid)
        ref = funk_hecke_1d(2, 2, lam)
        assert np.abs(out - ref * f).max() < 1e-4

    def test_circle_case(self):
        grid = sphere_grid(1, 64)
        lam = 3.0  # rho + 2 on S^1
        t = grid.points @ np.array([1.0, 0.0])
        f = zonal_values(1, 2, t)
        out = cos_transform_sphere(1, lam, f, grid)
        ref = sphere_eta(1, 2, lam).value
        assert np.abs(out - ref * f).max() < 1e-8

    def test_stacked_functions_match_single(self):
        grid = sphere_grid(2, 16)
        t = grid.points[:, 2]
        fs = np.stack([zonal_values(2, m, t) for m in (0, 2, 4)], axis=1)
        stacked = cos_transform_sphere(2, 4.0, fs, grid)
        for i, m in enumerate((0, 2, 4)):
            single = cos_transform_sphere(2, 4.0, fs[:, i], grid)
            assert np.abs(stacked[:, i] - single).max() < 1e-14

    def test_complex_lambda(self):
        grid = sphere_grid(2, 24)
        lam = 2.5 + 1.5j
        out = cos_transform_sphere(2, lam, np.ones(len(grid.weights)), grid)
        ref = c_p(sig(2, 1, R), lam).value
        assert np.abs(out - ref).max() < 1e-3

    def test_divergent_lambda_rejected(self):
        grid = sphere_grid(2, 8)
        with pytest.raises(ValueError):
            cos_transform_sphere(2, 1.0, np.ones(len(grid.weights)), grid)

    def test_doubling_invariance(self):
        # doubling the grid order moves results by less than 10x the
        # documented tolerance, down to lambda = rho + 1
        for lam in (2.5, 3.5):
            tol = sphere_quadrature_tolerance(lam, 2, order=64)
            g32, g64 = sphere_grid(2, 32), sphere_grid(2, 64)
            t32 = g32.points[:, 2]
            t64 = g64.points[:, 2]
            for m in (0, 2):
                f32 = zonal_values(2, m, t32)
                f64 = zonal_values(2, m, t64)
                i32, i64 = np.argmax(t32), np.argmax(t64)
                r32 = cos_transform_sphere(2, lam, f32, g32)[i32] / f32[i32]
                r64 = cos_transform_sphere(2, lam, f64, g64)[i64] / f64[i64]
                ref = funk_hecke_1d(2, m, lam)
                assert abs(r32 - r64) < 10.0 * tol
                assert abs(r64 - ref) < tol


class TestFunkHecke:
    def test_normalization(self):
        assert rel_err(funk_hecke_1d(2, 0, 1.5), 1.0) < 1e-13

    def test_matches_c_function(self, rng):
        for n in (2, 3, 4):
            s = sig(n, 1, R)
            for _ in range(4):
                lam = s.rho + rng.uniform(0.1, 4.0) + 1j * rng.uniform(-1.0, 1.0)
                assert rel_err(funk_hecke_1d(n, 0, lam), c_p(s, lam).value) < 1e-8

    @pytest.mark.parametrize("n,m,lam,expected", FUNK_HECKE_ORACLE)
    def test_frozen_oracle_values(self, n, m, lam, expected):
        assert rel_err(funk_hecke_1d(n, m, lam), expected) < 1e-10

    def test_matches_closed_form_table(self):
        for n in (2, 3, 4):
            rho = (n + 1) / 2.0
            for m in (2, 4, 6):
                for off in (0.5, 1.0, 2.5):
                    fh = funk_hecke_1d(n, m, rho + off)
                    se = sphere_eta(n, m, rho + off).value
                    assert rel_err(fh, se) < 1e-7

    def test_degree_two_vanishes_at_rho_limit(self):
        # closed form has an exact zero at lambda = rho; quadrature at
        # rho + eps must shrink linearly
        v3 = abs(funk_hecke_1d(2, 2, 1.5 + 1e-3))
        v4 = abs(funk_hecke_1d(2, 2, 1.5 + 1e-4))
        assert v3 < 2e-3 and v4 < 2e-4
        assert sphere_eta(2, 2, 1.5).is_zero

    def test_validation(self):
        with pytest.raises(ValueError):
            funk_hecke_1d(2, 3, 2.5)
        with pytest.raises(ValueError):
            funk_hecke_1d(2, 2, 1.0)


class TestMcCp:
    def test_exact_at_rho(self):
        s = sig(3, 2, C)
        est = mc_c_p(s, s.rho, 512, seed=5)
        assert est.mean == 1.0 + 0.0j
        assert est.stderr == 0.0

    def test_sphere_value(self):
        s = sig(2, 1, R)
        est = mc_c_p(s, 3.5, 150_000, seed=21)
        assert abs(est.mean - 1.0 / 3.0) < 3.0 * est.stderr
        assert est.stderr < 0.01 / 3.0

    @pytest.mark.parametrize("field", [R, C, H])
    def test_rank_two_against_closed_form(self, field):
        s = sig(3, 2, field)
        lam = s.rho + 1.0
        est = mc_c_p(s, lam, 100_000, seed=9)
        ref = c_p(s, lam).value
        assert abs(est.mean - ref) < 3.0 * est.stderr

    def test_deterministic_given_seed(self):
        s = sig(3, 2, R)
        a = mc_c_p(s, 3.0, 20_000, seed=33)
        b = mc_c_p(s, 3.0, 20_000, seed=33)
        assert a == b

    def test_worker_split_deterministic(self):
        s = sig(3, 2, R)
        a = mc_c_p(s, 3.0, 20_000, seed=33, workers=4)
        b = mc_c_p(s, 3.0, 20_000, seed=33, workers=4)
        assert a == b
        # different worker counts use different substreams but stay unbiased
        c = mc_c_p(s, 3.0, 20_000, seed=33, workers=1)
        ref = c_p(s, 3.0).value
        assert abs(a.mean - ref) < 4 * a.stderr
        assert abs(c.mean - ref) < 4 * c.stderr

    def test_unbiased_over_seeds(self):
        s = sig(2, 1, R)
        lam = 3.5
        ref = c_p(s, lam).value.real
        means, errs = [], []
        for seed in range(50):
            est = mc_c_p(s, lam, 4000, seed=seed)
            means.append(est.mean.real)
            errs.append(est.stderr)
        pooled_mean = np.mean(means)
        pooled_se = np.sqrt(np.sum(np.square(errs))) / len(means)
        assert abs(pooled_mean - ref) < 3.0 * pooled_se

    def test_validation(self):
        s = sig(3, 2, R)
        with pytest.raises(ValueError):
            mc_c_p(s, 1.0, 100, seed=0)  # below convergence threshold
        with pytest.raises(ValueError):
            mc_c_p(s, 3.0, 0, seed=0)
        with pytest.raises(ValueError):
            mc_c_p(s, 3.0, 10, seed=0, workers=0)


class TestMcKtype:
    def test_zero_type_delegates_to_c_function(self):
        s = sig(3, 2, R)
        assert mc_transform_ktype(s, 3.0, (0, 0), 5000, seed=2) == mc_c_p(s, 3.0, 5000, seed=2)

    def test_sphere_degree_two(self):
        s = sig(2, 1, R)
        lam = 3.5
        est = mc_transform_ktype(s, lam, (2,), 200_000, seed=13)
        ref = sphere_eta(2, 2, lam).value
        assert abs(est.mean - ref) < 3.0 * est.stderr

    def test_rank_two_degree_two(self):
        s = sig(3, 2, R)
        lam = s.rho + 2.0
        est = mc_transform_ktype(s, lam, (2, 0), 200_000, seed=17)
        ref = eta(s, (2, 0), lam).value
        assert abs(est.mean - ref) < 3.0 * est.stderr

    def test_unsupported_type_rejected(self):
        s = sig(3, 2, R)
        with pytest.raises(ValueError):
            mc_transform_ktype(s, 3.0, (2, 2), 100, seed=0)
        with pytest.raises(ValueError):
            mc_transform_ktype(s, 3.0, (4, 0), 100, seed=0)


class TestSinTransform:
    def test_requires_split_rank(self):
        with pytest.raises(ValueError):
            sin_transform_numeric(sig(4, 2, R), 4.0, (0, 0), 100, seed=0)

    def test_zero_type_matches_c_function(self):
        s = sig(3, 2, C)
        lam = s.rho + 1.0
        est = sin_transform_numeric(s, lam, (0, 0), 100_000, seed=23)
        ref = c_p(s, lam).value
        assert abs(est.mean - ref) < 3.0 * est.stderr

    def test_circle_degree_two(self):
        s = sig(1, 1, R)
        lam = s.rho + 2.0
        est = sin_transform_numeric(s, lam, (2,), 150_000, seed=29)
        ref = nu(s, (2,), lam).value
        assert abs(est.mean - ref) < 3.0 * est.stderr
        assert rel_err(ref, -eta(s, (2,), lam).value) < 1e-13

    def test_rank_two_degree_two(self):
        s = sig(3, 2, R)
        lam = s.rho + 2.0
        est = sin_transform_numeric(s, lam, (2, 0), 200_000, seed=31)
        ref = nu(s, (2, 0), lam).value
        assert abs(est.mean - ref) < 3.0 * est.stderr


class TestSelberg:
    def test_rank_one_is_beta(self, rng):
        import math

        got = selberg_closed(1, 0.9, 2.0, 3.0).value
        assert rel_err(got, 1.0 / 12.0) < 1e-13  # B(2, 3), alpha drops out at p=1
        for _ in range(5):
            g1, g2 = rng.uniform(0.2, 4.0, 2)
            beta = math.exp(math.lgamma(g1) + math.lgamma(g2) - math.lgamma(g1 + g2))
            assert rel_err(selberg_closed(1, 1.3, g1, g2).value, beta) < 1e-12

    def test_symmetric_in_exponents(self, rng):
        for _ in range(10):
            a = rng.uniform(0.3, 2.0)
            g1, g2 = rng.uniform(0.3, 3.0, 2)
            x = selberg_closed(2, a, g1, g2).value
            y = selberg_closed(2, a, g2, g1).value
            assert rel_err(x, y) < 1e-12

    def test_half_alpha_unit_exponents(self):
        closed = selberg_closed(2, 0.5, 1.0, 1.0).value.real
        oracle = selberg_oracle(2, 0.5, 1.0, 1.0)
        assert abs(closed - 1.0 / 3.0) < 1e-13  # plain integral of |t1 - t2|
        assert abs(closed - oracle) < 1e-6

    def test_oracle_beta_value(self):
        assert abs(selberg_oracle(1, 1.0, 2.0, 3.0) - 1.0 / 12.0) < 1e-9

    def test_oracle_matches_closed_form(self, rng):
        for _ in range(8):
            a = rng.uniform(0.4, 1.6)
            g1 = rng.uniform(1.0, 3.0)
            g2 = rng.uniform(1.0, 3.0)
            closed = selberg_closed(2, a, g1, g2).value.real
            assert abs(closed - selberg_oracle(2, a, g1, g2)) < 1e-6

    def test_oracle_monotone_in_first_exponent(self):
        vals = [selberg_oracle(2, 0.8, g1, 1.5) for g1 in (1.0, 1.5, 2.0, 2.5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_oracle_raises_when_stalled(self):
        with pytest.raises(ConvergenceError):
            selberg_oracle(2, 0.05, 0.05, 0.05, order=8, max_order=16)

    def test_oracle_validation(self):
        with pytest.raises(ValueError):
            selberg_oracle(3, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            selberg_oracle(2, -1.0, 1.0, 1.0)


class TestSpectralInversion:
    def test_band_limited_round_trip(self, rng):
        # applying the lambda then -lambda eigenvalues multiplies every
        # library coefficient by c_p(lambda) c_p(-lambda)
        for s in (sig(2, 1, R), sig(3, 2, C)):
            mus = [(0,) * s.p, (2,) + (0,) * (s.p - 1)]
            coeffs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            for _ in range(5):
                lam = complex(rng.uniform(-3, 3), rng.uniform(0.5, 2.0))
                scale = (c_p(s, lam) * c_p(s, -lam)).value
                for mu, a in zip(mus, coeffs):
                    double = (eta(s, mu, lam) * eta(s, mu, -lam)).value * a
                    assert rel_err(double, scale * a) < 1e-10


class TestFrameEstimator:
    """The Monte Carlo integrands read the Gaussian p-frame behind each Haar
    sample; they must equal the same integrands read off the Haar sample."""

    COUNT = 512

    @staticmethod
    def haar_integrands(s, mats):
        u = 2 if s.field is H else 1
        pe = u * s.p

        def alpha(block):
            d = np.abs(np.linalg.det(block))
            return np.sqrt(d) if s.field is H else d

        top = mats[:, :pe, :pe]
        sumsq = np.einsum("bij,bij->b", top.conj(), top).real
        if s.field is H:
            sumsq = 0.5 * sumsq
        return alpha(top), alpha(mats[:, pe: 2 * pe, :pe]), sumsq - s.p ** 2 / (s.n + 1.0)

    @pytest.mark.parametrize("field", [R, C, H])
    @pytest.mark.parametrize("n,p", [(2, 1), (3, 2), (1, 1)])
    def test_integrands_match_haar_formulas(self, field, n, p):
        s = sig(n, p, field)
        mats = haar_batch(s, np.random.default_rng(31), self.COUNT)
        frames = frame_batch(s, np.random.default_rng(31), self.COUNT)
        gram = _gram(frames)
        top, below, test = self.haar_integrands(s, mats)
        assert np.abs(_frame_alpha(s, frames, gram, 0) - top).max() < 1e-12
        assert np.abs(_frame_alpha(s, frames, gram, 1) - below).max() < 1e-12
        assert np.abs(_ktype_test_values(s, frames, gram) - test).max() < 1e-12

    @pytest.mark.parametrize("field", [R, C, H])
    @pytest.mark.parametrize("n,p", [(2, 1), (3, 2), (1, 1)])
    def test_frame_draw_advances_stream_like_haar(self, field, n, p):
        s = sig(n, p, field)
        rng_frame, rng_haar = np.random.default_rng(8), np.random.default_rng(8)
        frame_batch(s, rng_frame, 7)
        haar_batch(s, rng_haar, 7)
        assert rng_frame.standard_normal() == rng_haar.standard_normal()
