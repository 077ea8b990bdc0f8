import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

from coslam.scalar import GammaPole, QuadratureRule1D, gauss_legendre, gegenbauer, log_gamma

from conftest import rel_err

# Reference values computed once with mpmath at 40 digits.
LOG_GAMMA_ORACLE = [
    (3.7 + 2.1j, 0.7853469580738222 + 2.583012925115262j),
    (12.25 - 7.5j, 15.863756020670643 - 18.937341781143855j),
]


class TestLogGamma:
    def test_gamma_one_is_zero(self):
        assert abs(log_gamma(1.0)) < 1e-15

    def test_gamma_half(self):
        assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-15

    @pytest.mark.parametrize("z,expected", LOG_GAMMA_ORACLE)
    def test_against_high_precision_oracle(self, z, expected):
        got = log_gamma(z)
        assert rel_err(got, expected) < 1e-12
        assert rel_err(cmath.exp(got), cmath.exp(expected)) < 1e-12

    def test_exp_accuracy_on_working_strip(self):
        # relative error of exp(log_gamma) <= 1e-13 on Re z in [0.5, 50],
        # |Im z| <= 50, against the arbitrary-precision reference
        mp.mp.dps = 30
        worst = 0.0
        for re in np.linspace(0.5, 50.0, 12):
            for im in np.linspace(-50.0, 50.0, 9):
                z = complex(re, im)
                ref = mp.gamma(mp.mpc(z.real, z.imag))
                got = cmath.exp(log_gamma(z))
                worst = max(worst, abs(got - complex(ref)) / abs(complex(ref)))
        assert worst < 1e-13

    def test_principal_branch_right_half_plane(self):
        mp.mp.dps = 30
        for z in (2.3 + 9.0j, 0.6 - 3.2j, 17.0 + 0.25j):
            ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
            assert abs(log_gamma(z) - ref) < 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 40])
    def test_pole_signal_at_nonpositive_integers(self, k):
        with pytest.raises(GammaPole):
            log_gamma(complex(-k, 0.0))
        with pytest.raises(GammaPole):
            log_gamma(complex(-k + 3e-15, -3e-15))
        # just off the pole is fine
        log_gamma(complex(-k + 1e-9, 0.0))

    def test_reflection_formula(self, rng):
        # exp(lg(z)) exp(lg(1-z)) == pi / sin(pi z), 100 random off-axis points
        worst = 0.0
        for _ in range(100):
            z = complex(rng.uniform(-8, 8), rng.uniform(0.1, 6) * rng.choice([-1, 1]))
            lhs = cmath.exp(log_gamma(z)) * cmath.exp(log_gamma(1 - z))
            rhs = math.pi / cmath.sin(math.pi * z)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        assert worst < 1e-11

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.5, 40.0), st.floats(-40.0, 40.0))
    def test_recurrence(self, re, im):
        z = complex(re, im)
        lhs = cmath.exp(log_gamma(z + 1))
        rhs = z * cmath.exp(log_gamma(z))
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestGegenbauer:
    @settings(max_examples=80, deadline=None)
    @given(st.floats(-0.45, 5.0), st.floats(-1.0, 1.0))
    def test_base_cases(self, nu, t):
        assert gegenbauer(0, nu, t) == 1.0
        assert abs(gegenbauer(1, nu, t) - 2.0 * nu * t) < 1e-14

    def test_degree_four_legendre_point(self):
        # C_4^(1/2) is the Legendre polynomial (35 t^4 - 30 t^2 + 3)/8;
        # at t = 0.3 that is exactly 0.0729375
        assert abs(gegenbauer(4, 0.5, 0.3) - 0.0729375) < 1e-14

    def test_matches_expanded_legendre(self):
        t = np.linspace(-1, 1, 11)
        p4 = (35 * t**4 - 30 * t**2 + 3) / 8
        assert np.abs(gegenbauer(4, 0.5, t) - p4).max() < 1e-13

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.5])
    def test_orthogonality(self, nu):
        # weight (1 - t^2)^(nu - 1/2) handled exactly by Gauss-Jacobi nodes
        x, w = roots_jacobi(64, nu - 0.5, nu - 0.5)
        for m, k in [(0, 2), (1, 3), (2, 4), (3, 5), (2, 6)]:
            val = w @ (gegenbauer(m, nu, x) * gegenbauer(k, nu, x))
            assert abs(val) < 1e-10

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            gegenbauer(-1, 0.5, 0.0)


class TestGaussLegendre:
    def test_order_one(self):
        rule = gauss_legendre(1)
        assert np.allclose(rule.nodes, [0.0], atol=1e-15)
        assert np.allclose(rule.weights, [2.0], atol=1e-15)

    def test_order_two(self):
        rule = gauss_legendre(2)
        assert np.allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-15)

    def test_t20_integral(self):
        rule = gauss_legendre(16)
        assert abs(rule.nodes**20 @ rule.weights - 2.0 / 21.0) < 1e-13

    @pytest.mark.parametrize("order", [3, 8, 16, 48])
    def test_monomial_exactness(self, order):
        rule = gauss_legendre(order)
        for deg in range(0, 2 * order, 2):
            exact = 2.0 / (deg + 1)
            assert abs(rule.nodes**deg @ rule.weights - exact) < 1e-13

    def test_invariants(self):
        rule = gauss_legendre(64)
        assert abs(rule.weights.sum() - 2.0) < 1e-12
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)

    def test_rejects_bad_rules(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)
        with pytest.raises(ValueError):
            QuadratureRule1D(nodes=[0.5, -0.5], weights=[1.0, 1.0])
        with pytest.raises(ValueError):
            QuadratureRule1D(nodes=[-0.5, 0.5], weights=[1.0, 0.5])
