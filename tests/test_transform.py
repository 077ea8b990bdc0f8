import math
import os
import sys
import threading

import numpy as np
import pytest

from coslam import spectral, transform
from coslam.geometry import _haar_from_ginibre, frame_batch, quat_embed
from coslam.spectral import FieldTag, GrassmannSignature, c_p, eta, nu, sphere_eta
from coslam.transform import (
    ConvergenceError,
    SphereGrid,
    _VIEW_BYTES,
    _frame_integrands,
    _gram_schmidt,
    _kernel_pow,
    _mc_mean,
    _tree_reduce,
    cos_transform_sphere,
    funk_hecke_1d,
    mc_c_p,
    mc_transform_ktype,
    selberg_closed,
    selberg_oracle,
    sin_transform_numeric,
    sphere_grid,
    sphere_quadrature_tolerance,
    worker_streams,
    zonal_values,
)

from conftest import rel_err

R, C, H = FieldTag.REAL, FieldTag.COMPLEX, FieldTag.QUATERNION


def sig(n, p, field):
    return GrassmannSignature(n, p, field)


def documented_frames(s, rng, count):
    """The documented draw: one standard_normal of shape (p, u, n+1, c count),
    c = 2 reals per complex entry, read as (p, u, n+1, count) field entries."""
    u = 2 if s.field is H else 1
    comps = 1 if s.field is R else 2
    normals = rng.standard_normal((s.p, u, s.n + 1, comps * count))
    return normals if s.field is R else normals.view(np.complex128)


def haar_from_frames(s, frames, rng):
    """Haar samples whose first p field columns are the Gram-Schmidt of the
    (p, u, n+1, S) frames: the frames completed on the right by independent
    Gaussian columns, then the phase-fixed QR of geometry."""
    count, u, n1 = frames.shape[-1], frames.shape[1], s.n + 1
    extra = rng.standard_normal((count, u, n1, n1 - s.p))
    if s.field is not R:
        extra = extra + 1j * rng.standard_normal(extra.shape)
    full = np.concatenate([frames.transpose(3, 1, 2, 0), extra], axis=-1)  # (S, u, n+1, n+1)
    return _haar_from_ginibre(s, quat_embed(full[:, 0], full[:, 1]) if u == 2 else full[:, 0])


def test_oracles_never_call_the_closed_forms(monkeypatch):
    """Each oracle integrates on its own: none reaches the Gindikin core,
    the sphere closed form or the lattice recursion it is checked against."""
    called = []

    def forbid(name):
        def closed_form(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"an oracle called spectral.{name}")
        return closed_form

    for name in ("_gindikin_ratio", "sphere_eta", "eta_by_recursion"):
        monkeypatch.setattr(spectral, name, forbid(name))
    s = sig(3, 2, R)
    grid = sphere_grid(2, 8)
    cos_transform_sphere(2, 3.5, zonal_values(2, 2, grid.points[:, 2]), grid)
    funk_hecke_1d(3, 2, 4.0)
    mc_c_p(s, s.rho + 1.0, 1000, seed=0)
    mc_transform_ktype(s, s.rho + 2.0, (2, 0), 1000, seed=0)
    sin_transform_numeric(s, s.rho + 2.0, (2, 0), 1000, seed=0)
    selberg_oracle(2, 1.0, 2.0, 2.0)
    assert called == []


# Values computed once with mpmath quadrature of the 1-D eigenvalue integral.
FUNK_HECKE_ORACLE = [
    (2, 2, 2.0, 2.0 / 21.0),
    (3, 4, 3.25, -0.008982384695021852),
    (2, 0, 3.5, 1.0 / 3.0),
]


_ORACLES = {
    "cos_transform_sphere": lambda lam: cos_transform_sphere(2, lam, np.ones(32), sphere_grid(2, 4)),
    "funk_hecke_1d": lambda lam: funk_hecke_1d(2, 2, lam),
    "mc_c_p": lambda lam: mc_c_p(sig(2, 1, R), lam, 100, seed=0),
    "mc_transform_ktype": lambda lam: mc_transform_ktype(sig(2, 1, R), lam, (2,), 100, seed=0),
    "sin_transform_numeric": lambda lam: sin_transform_numeric(sig(3, 2, R), lam, (0, 0), 100, seed=0),
}


@pytest.mark.parametrize("lam", [math.nan, math.inf, complex(4.0, math.inf), complex(math.nan, 0.0)],
                         ids=["nan", "inf", "inf-imag", "nan-real"])
@pytest.mark.parametrize("oracle", sorted(_ORACLES))
def test_non_finite_lambda_rejected(oracle, lam):
    # Re(lambda) >= rho alone lets inf through, and NaN compares False both ways
    with pytest.raises(ValueError, match="lambda must be finite"):
        _ORACLES[oracle](lam)


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

    @pytest.mark.parametrize("order", [0, -4])
    def test_tolerance_needs_the_grid_order(self, order):
        # the orders sphere_grid rejects
        with pytest.raises(ValueError):
            sphere_grid(2, order)
        with pytest.raises(ValueError, match="order must be >= 1"):
            sphere_quadrature_tolerance(3.5, 2, order=order)

    @pytest.mark.parametrize("lam", [math.nan, complex(3.5, math.nan), math.inf])
    def test_tolerance_needs_a_finite_lambda(self, lam):
        # the lambdas cos_transform_sphere rejects
        grid = sphere_grid(2, 8)
        with pytest.raises(ValueError, match="lambda must be finite"):
            cos_transform_sphere(2, lam, np.ones(len(grid.weights)), grid)
        with pytest.raises(ValueError, match="lambda must be finite"):
            sphere_quadrature_tolerance(lam, 2)


class TestRingSymmetricQuadrature:
    """cos_transform_sphere through ring symmetry against the dense sum."""

    @staticmethod
    def dense(n, lam, f, grid):
        # The quadrature sum over every (target, node) pair, written out.
        expo = complex(lam) - (n + 1) / 2.0
        base = np.abs(grid.points @ grid.points.T)
        kern = np.zeros(base.shape, dtype=complex)
        kern[base > 0.0] = np.exp(expo * np.log(base[base > 0.0]))
        return kern @ (grid.weights[:, None] * f.reshape(len(f), -1))

    @staticmethod
    def rotation(dim, seed):
        q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
        return q * np.sign(np.diag(r))

    @pytest.mark.parametrize("n,order", [(1, 16), (2, 12)])
    @pytest.mark.parametrize("offset", [1.3, 2.6 + 0.9j, 3.7 - 1.8j, 2.0])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_matches_dense_sum(self, n, order, offset, stacked):
        grid = sphere_grid(n, order)
        assert grid.azimuths == 2 * order
        lam = (n + 1) / 2.0 + offset
        rng = np.random.default_rng(order)
        f = rng.standard_normal((len(grid.weights), 3) if stacked else len(grid.weights))
        out = cos_transform_sphere(n, lam, f, grid)
        assert out.dtype == np.complex128 and out.shape == f.shape
        assert np.abs(out.reshape(len(f), -1) - self.dense(n, lam, f, grid)).max() < 1e-13

    @pytest.mark.parametrize("lam", [3.2, 2.9 - 0.7j])
    def test_staggered_rings_match_dense_sum(self, lam):
        # Each ring turned by its own phase: the kernel is then not even in
        # the azimuth offset, so a convolution taken the wrong way round shows.
        grid = sphere_grid(2, 12)
        phase = np.repeat(np.random.default_rng(2).uniform(0.0, 2.0 * np.pi, 12), 24)
        x0, x1, z = grid.points.T
        pts = np.stack([np.cos(phase) * x0 - np.sin(phase) * x1,
                        np.sin(phase) * x0 + np.cos(phase) * x1, z], axis=1)
        staggered = SphereGrid(2, pts, grid.weights, 24)
        f = np.random.default_rng(4).standard_normal((len(pts), 2))
        out = cos_transform_sphere(2, lam, f, staggered)
        assert np.abs(out - self.dense(2, lam, f, staggered)).max() < 1e-13

    def test_complex_values(self):
        grid = sphere_grid(2, 12)
        rng = np.random.default_rng(5)
        f = rng.standard_normal(len(grid.weights)) + 1j * rng.standard_normal(len(grid.weights))
        out = cos_transform_sphere(2, 3.9, f, grid)
        assert np.abs(out - self.dense(2, 3.9, f, grid)[:, 0]).max() < 1e-13

    @pytest.mark.parametrize("n,order", [(1, 16), (2, 12)])
    @pytest.mark.parametrize("lam", [3.8, 3.1 + 1.2j])
    def test_rotated_grid_gives_same_operator(self, n, order, lam):
        # Rotating the nodes by Q (claiming no symmetry) and the function by
        # Q^(-1) leaves every kernel value unchanged.
        grid = sphere_grid(n, order)
        q = self.rotation(n + 1, 17 + n)
        rotated = SphereGrid(n, grid.points @ q.T, grid.weights)
        assert rotated.azimuths == 1

        def f(x):
            return np.stack([np.exp(x[:, 0] - 0.5 * x[:, -1]), x[:, 1] ** 3], axis=1)

        out = cos_transform_sphere(n, lam, lambda y: f(y @ q), rotated)
        assert np.abs(out - cos_transform_sphere(n, lam, f, grid)).max() < 1e-13

    def test_rejects_bad_azimuths(self):
        grid = sphere_grid(2, 12)
        pts, w = grid.points, grid.weights
        for bad in (0, 5, 7):
            with pytest.raises(ValueError):
                SphereGrid(2, pts, w, bad)
        for wrong in (12, 48):  # divides N, but the rings hold 24 nodes
            with pytest.raises(ValueError):
                SphereGrid(2, pts, w, wrong)
        moved = pts.copy()
        moved[30] = pts[31]
        with pytest.raises(ValueError):
            SphereGrid(2, moved, w, 24)
        lifted = pts.copy()  # right azimuth, wrong height
        lifted[30, 2] += 1e-9
        with pytest.raises(ValueError):
            SphereGrid(2, lifted, w, 24)
        with pytest.raises(ValueError):  # rotated about another axis
            SphereGrid(2, pts @ self.rotation(3, 3).T, w, 24)


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
        # n = 1 puts a (1 - t^2)^(-1/2) singularity at t = 1; 0.7i sits on
        # the convergence edge Re(lambda) = rho
        for n in (1, 2, 3, 4):
            rho = (n + 1) / 2.0
            for m in (2, 4, 6, 8, 12):
                for off in (0.5, 1.0, 2.5, 0.7j, 4.0 + 1.5j):
                    fh = funk_hecke_1d(n, m, rho + off)
                    se = sphere_eta(n, m, rho + off).value
                    assert rel_err(fh, se) < 1e-7, (n, m, off)

    def test_raises_when_stalled(self, monkeypatch):
        # with no level above the first there are no two levels to agree
        monkeypatch.setattr(transform, "_FH_MAX_LEVEL", transform._FH_LEVEL)
        with pytest.raises(ConvergenceError, match="Funk-Hecke quadrature"):
            funk_hecke_1d(2, 2, 2.0)

    def test_degree_two_vanishes_at_rho_limit(self):
        # closed form has an exact zero at lambda = rho; quadrature at
        # rho + eps must shrink linearly
        v3 = abs(funk_hecke_1d(2, 2, 1.5 + 1e-3))
        v4 = abs(funk_hecke_1d(2, 2, 1.5 + 1e-4))
        assert v3 < 2e-3 and v4 < 2e-4
        assert sphere_eta(2, 2, 1.5).order < 0

    def test_validation(self):
        with pytest.raises(ValueError):
            funk_hecke_1d(2, 3, 2.5)
        with pytest.raises(ValueError):
            funk_hecke_1d(2, 2, 1.0)

    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_sphere_dimension_validated(self, n):
        # the closed form and the quadrature both need a sphere S^n, n >= 1
        with pytest.raises(ValueError):
            sphere_eta(n, 2, 1.0)
        with pytest.raises(ValueError):
            funk_hecke_1d(n, 2, 5.0)

    def test_integral_floats_accepted(self):
        # both sphere routes read an integral float as its integer
        lam = 3.25 + 0.5j
        assert funk_hecke_1d(2, 2.0, lam) == funk_hecke_1d(2, 2, lam)
        assert funk_hecke_1d(3.0, 4, lam) == funk_hecke_1d(3, 4, lam)
        assert sphere_eta(2.0, 2.0, lam) == sphere_eta(2, 2, lam)


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

    def test_oracle_monotone_in_first_exponent(self):
        vals = [selberg_oracle(2, 0.8, g1, 1.5) for g1 in (1.0, 1.5, 2.0, 2.5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    # Under -W error: every integrand is an exp of logs, so a node at an
    # endpoint must not raise a divide or invalid warning.
    @pytest.mark.filterwarnings("error")
    def test_oracle_matches_closed_form(self, rng):
        cases = [(1 + k % 2, rng.uniform(0.1, 4.0), *rng.uniform(0.1, 6.0, 2)) for k in range(200)]
        cases += [
            (1, 1.0, 0.01, 2.0),  # pins U: a fixed U = 4.5 stalls here
            (1, 1.0, 2.0, 0.01),
            (2, 0.1, 6.0, 0.1),
            (2, 4.0, 6.0, 6.0),
        ]

        def error(p, a, g1, g2):
            closed = selberg_closed(p, a, g1, g2).value.real
            err = abs(closed - selberg_oracle(p, a, g1, g2)) / max(1.0, abs(closed))
            assert math.isfinite(err), (p, a, g1, g2)  # a NaN would pass max()
            return err

        assert max(error(*case) for case in cases) < 1e-12
        # two level doublings, through the (1 - x y)^(-0.95) corner: 9e-12
        assert error(2, 0.05, 0.05, 0.05) < 1e-10

    def test_oracle_raises_when_stalled(self):
        # (2, 0.05, 0.05, 0.05) converges at level 5 from the default start 3
        with pytest.raises(ConvergenceError):
            selberg_oracle(2, 0.05, 0.05, 0.05, level=3, max_level=4)

    def test_oracle_validation(self):
        with pytest.raises(ValueError):
            selberg_oracle(3, 1.0, 1.0, 1.0)
        for x in (-1.0, 0.0, math.nan, math.inf):  # finite positive reals only
            for params in ((x, 1.0, 1.0), (1.0, x, 1.0), (1.0, 1.0, x)):
                for p in (1, 2):
                    with pytest.raises(ValueError):
                        selberg_oracle(p, *params)
        for params in ((1.0, 1e-301, 1.0), (1.0, 1.0, 5e-324)):  # U would overflow sinh
            with pytest.raises(ValueError):
                selberg_oracle(1, *params)
        assert rel_err(selberg_oracle(1, 1.0, 1e-300, 1.0), 1e300) < 1e-12  # B(g, 1) = 1 / g

    def test_transform_imports_nothing_from_scipy(self):
        import ast

        import coslam.transform

        with open(coslam.transform.__file__, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names]
        modules += [node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module]
        assert "numpy" in modules
        assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]
        # The oracles stay independent of the closed forms they check: only
        # the field tag, the K-type wrapper and the Gamma cells of
        # selberg_closed come from spectral, and the module itself never
        # does (`from . import spectral`, `import coslam.spectral`).
        from_spectral = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("spectral"):
                from_spectral.update(alias.name for alias in node.names)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                from_spectral.update(alias.name for alias in node.names
                                     if alias.name.endswith("spectral"))
        assert from_spectral == {"FieldTag", "ktype", "_gamma"}


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
    @pytest.mark.parametrize("n,p", [(2, 1), (3, 2), (1, 1), (4, 2), (6, 2)])
    def test_integrands_match_haar_formulas(self, field, n, p):
        s = sig(n, p, field)
        frames = frame_batch(s, np.random.default_rng(31), self.COUNT)
        mats = haar_from_frames(s, frames, np.random.default_rng(32))
        top, below, test = self.haar_integrands(s, mats)
        assert np.abs(_frame_integrands(s, frames, 0)[0] - top).max() < 1e-12
        assert np.abs(_frame_integrands(s, frames, 1)[0] - below).max() < 1e-12
        assert np.abs(_frame_integrands(s, frames, 0)[1] - test).max() < 1e-12

    @pytest.mark.parametrize("block", [0, 1])
    @pytest.mark.parametrize("field", [R, C, H])
    @pytest.mark.parametrize("n,p", [(2, 1), (3, 2), (6, 2), (5, 3), (7, 4)])
    def test_values_do_not_depend_on_the_view_length(self, n, p, field, block):
        # _stream_sums evaluates a batch in views of any length, a lone
        # sample included; each sample's integrands must be those of the
        # whole 16,384-frame batch, bit for bit.  Short views cover a
        # prefix, every view offset mod 13 among them.
        s = sig(n, p, field)
        frames = frame_batch(s, np.random.default_rng(n * 10 + p), 1 << 14)
        whole = _frame_integrands(s, frames, block)
        for length in (1, 3, 5, 7, 13, 100, 4099):
            stop = frames.shape[-1] if length >= 100 else 208
            views = [_frame_integrands(s, frames[..., i:min(i + length, stop)], block)
                     for i in range(0, stop, length)]
            for got, expected in zip(zip(*views), whole):
                assert np.array_equal(np.concatenate(got), expected[:stop]), length

    @pytest.mark.parametrize("field", [R, C, H])
    @pytest.mark.parametrize("n,p", [(2, 1), (3, 2), (1, 1)])
    def test_frame_draw_is_one_standard_normal_draw(self, field, n, p):
        s = sig(n, p, field)
        rng_frame, rng_ref = np.random.default_rng(8), np.random.default_rng(8)
        assert np.array_equal(frame_batch(s, rng_frame, 7), documented_frames(s, rng_ref, 7))
        assert rng_frame.standard_normal() == rng_ref.standard_normal()


class TestBatchedGramSchmidt:
    """The estimators run one Gram-Schmidt over the field columns of
    samples-last frames (p, u, n+1, S); H columns stay complex (a, b) pairs."""

    @staticmethod
    def realize(frames):
        # (p, u, m, S) frames as stacked (S, u m, u p) realizations
        cols = frames.transpose(3, 1, 2, 0)
        return quat_embed(cols[:, 0], cols[:, 1]) if frames.shape[1] == 2 else cols[:, 0]

    @pytest.mark.parametrize("field", [R, C, H])
    @pytest.mark.parametrize("n,p", [(1, 1), (2, 1), (3, 2), (5, 2), (5, 3), (7, 4)])
    def test_haar_columns_are_the_frame_gram_schmidt(self, n, p, field):
        # The phase-fixed QR behind haar_batch is the Gram-Schmidt of its
        # Ginibre matrix, over H too, so the first p field columns of the
        # Haar sample from [G | X] are the estimators' orthonormalized G.
        s = sig(n, p, field)
        u = 2 if field is H else 1
        frames = frame_batch(s, np.random.default_rng(9), 2048)
        mats = haar_from_frames(s, frames, np.random.default_rng(10))
        q, _ = _gram_schmidt(frames)
        assert np.abs(mats[:, :, :u * p] - self.realize(q)).max() < 1e-13

    @pytest.mark.parametrize("n,p,field", [(5, 3, R), (6, 3, C), (5, 3, H), (7, 2, H)])
    def test_integrands_match_haar_formulas_large_p(self, n, p, field):
        s = sig(n, p, field)
        frames = frame_batch(s, np.random.default_rng(44), 2048)
        mats = haar_from_frames(s, frames, np.random.default_rng(45))
        top, below, test = TestFrameEstimator.haar_integrands(s, mats)
        alpha_top, test_values = _frame_integrands(s, frames, 0)
        assert np.abs(alpha_top - top).max() < 1e-12
        assert np.abs(_frame_integrands(s, frames, 1)[0] - below).max() < 1e-12
        assert np.abs(test_values - test).max() < 1e-12

    @pytest.mark.parametrize("field", [R, C, H])
    def test_frames_are_orthonormalized(self, field):
        s = sig(5, 3, field)
        q, norms = _gram_schmidt(frame_batch(s, np.random.default_rng(2), 256))
        real = self.realize(q)
        eye = np.eye(real.shape[-1])
        assert np.abs(real.conj().transpose(0, 2, 1) @ real - eye).max() < 1e-14
        gram = self.realize(frame_batch(s, np.random.default_rng(2), 256))
        gram = gram.conj().transpose(0, 2, 1) @ gram
        dets = np.abs(np.linalg.det(gram)) ** (0.25 if field is H else 0.5)
        assert np.abs(norms / dets - 1.0).max() < 1e-13

    NEAR_SINGULAR = {
        # [[1, 1], [1, 1 + 1e-8]]: det_K is fl(1 + 1e-8) - 1 exactly, in every field
        "ones": ([[1.0, 1.0], [1.0, 1.0 + 1e-8]], (1.0 + 1e-8) - 1.0),
        # [[0, 1], [1e-8, 1]]: an exact zero in the (0, 0) entry, |det_K| = 1e-8
        "zero-corner": ([[0.0, 1.0], [1e-8, 1.0]], 1e-8),
    }

    @pytest.mark.parametrize("field", [R, C, H])
    @pytest.mark.parametrize("block", [0, 1])
    @pytest.mark.parametrize("layout", sorted(NEAR_SINGULAR))
    def test_near_singular_top_block(self, field, block, layout):
        # The p x p block at `block` (the top rows, or the rows below them
        # for the sine transform) is a fixed near-singular real matrix B,
        # B[r, j] in row r of column j; every other row is Gaussian.
        s = sig(3, 2, field)
        count = 64
        entries, det_block = self.NEAR_SINGULAR[layout]
        rows = slice(2 * block, 2 * block + 2)
        frames = frame_batch(s, np.random.default_rng(5), count)
        frames[:, :, rows] = 0.0
        frames[:, 0, rows] = np.asarray(entries).T[:, :, None]
        real = self.realize(frames)
        gram = real.conj().transpose(0, 2, 1) @ real
        root = np.abs(np.linalg.det(gram)) ** (0.25 if field is H else 0.5)
        alpha, test = _frame_integrands(s, frames, block)
        assert np.abs(alpha - det_block / root).max() < 1e-12
        assert np.abs(alpha * root / det_block - 1.0).max() < 1e-6
        # the second sweep keeps even the near-singular block orthonormal
        q_block = self.realize(_gram_schmidt(frames[:, :, rows])[0])
        eye = np.eye(q_block.shape[-1])
        assert np.abs(q_block.conj().transpose(0, 2, 1) @ q_block - eye).max() < 1e-14
        top = real[:, :real.shape[-1]]  # the top p field rows
        sumsq = np.einsum("bij,bji->b", top, np.linalg.solve(gram, top.conj().transpose(0, 2, 1)))
        sumsq = sumsq.real * (0.5 if field is H else 1.0)
        assert np.abs(test - (sumsq - s.p ** 2 / (s.n + 1.0))).max() < 1e-12

    @staticmethod
    def haar_mean(kind, s, mu, lam, samples, seed, workers, batch=1 << 14):
        # The documented realization: SeedSequence(seed).spawn(workers),
        # contiguous chunks, 2**14-sample frame draws, read through full
        # Haar matrices completed from each frame.
        expo = lam - s.rho
        total = 0.0
        streams = np.random.SeedSequence(seed).spawn(workers)
        completion = np.random.default_rng(0)
        for w, child in enumerate(streams):
            rng = np.random.default_rng(child)
            left = samples // workers + (w < samples % workers)
            while left:
                take = min(batch, left)
                mats = haar_from_frames(s, documented_frames(s, rng, take), completion)
                top, below, test = TestFrameEstimator.haar_integrands(s, mats)
                vals = (below if kind == "sin" else top).astype(complex) ** expo
                if any(mu):
                    vals = vals * test / (s.p * s.q / (s.n + 1.0))
                total += vals.sum()
                left -= take
        return total / samples

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("kind,n,p,field,mu", [
        ("c_p", 2, 1, R, (0,)),
        ("c_p", 3, 2, H, (0, 0)),
        ("ktype", 3, 2, C, (2, 0)),
        ("ktype", 5, 3, R, (2, 0, 0)),
        ("sin", 3, 2, R, (2, 0)),
        ("sin", 3, 2, H, (0, 0)),
    ])
    def test_estimates_pin_the_haar_realization(self, kind, n, p, field, mu, workers):
        s = sig(n, p, field)
        lam = s.rho + 1.0 + 0.5j
        samples, seed = 20_000, 123
        if kind == "c_p":
            est = mc_c_p(s, lam, samples, seed, workers=workers)
        elif kind == "ktype":
            est = mc_transform_ktype(s, lam, mu, samples, seed, workers=workers)
        else:
            est = sin_transform_numeric(s, lam, mu, samples, seed, workers=workers)
        ref = self.haar_mean(kind, s, mu, lam, samples, seed, workers)
        assert est.samples == samples
        assert rel_err(est.mean, ref) < 1e-12


class TestConcurrentStreams:
    """The worker streams run concurrently on a thread pool, each in its own
    workspace; every estimate equals a serial loop over the same streams."""

    BATCH = 1 << 14

    @classmethod
    def serial(cls, s, value_fn, samples, seed, workers):
        # The documented realization, one stream after another: whole
        # 2**14-sample frame batches, per-stream sums, the fixed-order tree.
        parts = []
        for w, rng in enumerate(worker_streams(seed, workers)):
            count = samples // workers + (w < samples % workers)
            s1, s2 = 0.0 + 0.0j, 0.0
            for start in range(0, count, cls.BATCH):
                take = min(cls.BATCH, count - start)
                vals = value_fn(frame_batch(s, rng, take))
                s1 += complex(vals.sum())
                s2 += float(np.abs(vals) ** 2 @ np.ones(take))
            parts.append((s1, s2, count))
        s1, s2, n = _tree_reduce(parts)
        var = max(s2 - abs(s1) ** 2 / n, 0.0) / (n - 1) if n > 1 else 0.0
        return s1 / n, math.sqrt(var / n)

    @staticmethod
    def values(kind, s, mu, lam):
        expo = lam - s.rho
        base = s.p * s.q / (s.n + 1.0)

        def fn(frames):
            alpha, test = _frame_integrands(s, frames, 1 if kind == "sin" else 0)
            kern = _kernel_pow(alpha, expo)
            return kern * test / base if any(mu) else kern
        return fn

    @staticmethod
    def estimate(kind, s, mu, lam, samples, seed, workers):
        if kind == "c_p":
            return mc_c_p(s, lam, samples, seed, workers=workers)
        if kind == "ktype":
            return mc_transform_ktype(s, lam, mu, samples, seed, workers=workers)
        return sin_transform_numeric(s, lam, mu, samples, seed, workers=workers)

    CASES = [
        ("c_p", 2, 1, R, (0,)),
        ("c_p", 3, 2, C, (0, 0)),
        ("c_p", 3, 2, H, (0, 0)),
        ("ktype", 3, 2, C, (2, 0)),
        ("ktype", 3, 2, H, (2, 0)),
        ("sin", 3, 2, R, (2, 0)),
        ("sin", 3, 2, H, (0, 0)),
    ]

    @pytest.mark.parametrize("samples,workers", [(40_000, 1), (40_000, 2), (40_000, 3),
                                                 (40_000, 5), (2, 3)])
    @pytest.mark.parametrize("kind,n,p,field,mu", CASES)
    def test_estimates_equal_serial_streams(self, kind, n, p, field, mu, samples, workers):
        s = sig(n, p, field)
        lam = s.rho + 1.0 + 0.5j
        est = self.estimate(kind, s, mu, lam, samples, 321, workers)
        mean, stderr = self.serial(s, self.values(kind, s, mu, lam), samples, 321, workers)
        assert est.samples == samples
        assert est.mean == mean
        assert est.stderr == stderr

    @pytest.mark.parametrize("n,p,field", [(2, 1, R), (3, 2, C), (3, 2, H)])
    def test_last_partial_batch_equals_serial_streams(self, n, p, field):
        # 50,000 samples per stream: three whole batches, then 848 samples
        # drawn into the contiguous prefix of the stream's workspace.
        s = sig(n, p, field)
        lam = s.rho + 1.0 + 0.5j
        est = mc_c_p(s, lam, 100_000, 321, workers=2)
        assert 50_000 % self.BATCH == 848
        mean, stderr = self.serial(s, self.values("c_p", s, (0,) * p, lam), 100_000, 321, 2)
        assert (est.mean, est.stderr) == (mean, stderr)

    def test_threads_bounded_by_usable_cpus(self):
        s = sig(3, 2, C)
        fn = self.values("c_p", s, (0, 0), s.rho + 1.0)
        idents = set()

        def recording(frames):
            idents.add(threading.get_ident())
            return fn(frames)

        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:
            cpus = os.cpu_count() or 1
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the streams as finely as possible
        try:
            est = _mc_mean(s, recording, 64 * 300, 11, 64)
        finally:
            sys.setswitchinterval(switch)
        assert 1 <= len(idents) <= min(64, cpus)
        assert (est.mean, est.stderr) == self.serial(s, fn, 64 * 300, 11, 64)

    def test_error_in_a_stream_stops_the_others(self):
        # Stream 0 fails on its first view; stream 1 must not run its
        # 30 batches to the end before the error reaches the caller.
        s = sig(3, 2, C)
        samples, seed = 2 * 30 * self.BATCH, 5
        frames = frame_batch(s, worker_streams(seed, 2)[0], self.BATCH)
        views = self.BATCH // (_VIEW_BYTES // frames[..., 0].nbytes)
        first = frames[..., :self.BATCH // views]
        fn = self.values("c_p", s, (0, 0), s.rho + 1.0)
        calls = []

        def failing(frames):
            if np.array_equal(frames, first):
                raise RuntimeError("stream 0 fails")
            calls.append(1)
            return fn(frames)

        with pytest.raises(RuntimeError, match="stream 0 fails"):
            _mc_mean(s, failing, samples, seed, 2)
        assert views > 1
        assert len(calls) < 30 * views // 2


class TestFrameDraw:
    """frame_batch is one standard_normal call on the (p, u, n+1, count)
    frames; a given `out` must be C-contiguous, and the estimators hand it
    the contiguous prefix of one flat workspace."""

    @pytest.mark.parametrize("field", [R, C, H])
    @pytest.mark.parametrize("count", [0, 1, 16_383, 16_384, 16_387])
    def test_fill_with_and_without_out(self, field, count):
        s = sig(3, 2, field)
        ref_rng = np.random.default_rng(17)
        ref = documented_frames(s, ref_rng, count)
        after = ref_rng.standard_normal()
        work = np.full(math.prod(ref.shape[:-1]) * 16_400, np.nan, dtype=ref.dtype)
        prefix = work[:ref.size].reshape(ref.shape)
        for out in (prefix, None):
            rng = np.random.default_rng(17)
            frames = frame_batch(s, rng, count, out)
            assert out is None or frames is out
            assert np.array_equal(frames, ref)
            assert rng.standard_normal() == after
        assert np.isnan(work[ref.size:]).all()

    @pytest.mark.parametrize("field", [R, C, H])
    def test_non_contiguous_out_rejected(self, field):
        s = sig(3, 2, field)
        full = frame_batch(s, np.random.default_rng(3), 64)
        fortran = np.empty(full.shape[::-1], dtype=full.dtype).T
        for out in (full[..., :63], full[..., ::2], fortran):
            with pytest.raises(ValueError):
                frame_batch(s, np.random.default_rng(3), out.shape[-1], out)
        with pytest.raises(ValueError):  # contiguous, but not the shape of the draw
            frame_batch(s, np.random.default_rng(3), 32, full)

    @pytest.mark.parametrize("n,p,field", [(2, 1, R), (3, 2, R), (3, 2, C), (3, 2, H)])
    def test_top_block_mass_is_the_dimension_ratio(self, n, p, field):
        # |Q_top|_F^2 of a Haar p-frame has mean p^2/(n+1): each of the
        # p^2 entries of the top block has mean square 1/(n+1).
        s = sig(n, p, field)
        rng = np.random.default_rng(2024)
        vals = np.concatenate([
            np.einsum("pums,pums->s", q[:, :, :p].conj(), q[:, :, :p]).real
            for q, _ in (_gram_schmidt(frame_batch(s, rng, 1 << 14)) for _ in range(8))])
        assert len(vals) == 1 << 17
        stderr = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - p ** 2 / (n + 1.0)) < 4.0 * stderr
