import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

from coslam.scalar import gauss_legendre, gegenbauer, log_gamma

from conftest import rel_err

# Reference values computed once with mpmath at 40 digits.
LOG_GAMMA_ORACLE = [
    (3.7 + 2.1j, 0.7853469580738222 + 2.583012925115262j),
    (12.25 - 7.5j, 15.863756020670643 - 18.937341781143855j),
]


def lg(z):
    """log Gamma at a point off the poles."""
    pole, out = log_gamma(z, 0.0)
    assert not pole.any()
    return complex(out)


class TestLogGamma:
    def test_gamma_one_is_zero(self):
        assert abs(lg(1.0)) < 1e-15

    def test_gamma_half(self):
        assert abs(lg(0.5) - math.log(math.sqrt(math.pi))) < 1e-15

    @pytest.mark.parametrize("z,expected", LOG_GAMMA_ORACLE)
    def test_against_high_precision_oracle(self, z, expected):
        got = lg(z)
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
                got = cmath.exp(lg(z))
                worst = max(worst, abs(got - complex(ref)) / abs(complex(ref)))
        assert worst < 1e-13

    def test_principal_branch_right_half_plane(self):
        mp.mp.dps = 30
        for z in (2.3 + 9.0j, 0.6 - 3.2j, 17.0 + 0.25j):
            ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
            assert abs(lg(z) - ref) < 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 40])
    def test_pole_signal_at_nonpositive_integers(self, k):
        # on the pole, within 1e-14 of it, and just off it
        pole, out = log_gamma([complex(-k, 0.0), complex(-k + 3e-15, -3e-15),
                               complex(-k + 1e-9, 0.0)], 0.0)
        assert pole.tolist() == [True, True, False]
        # the residue of Gamma at -k is (-1)^k / k!
        assert abs(np.exp(out[0]) * (-1) ** k * math.factorial(k) - 1.0) < 1e-13

    @pytest.mark.parametrize("z", [2.5, [2.5, -1.0], [[0.5 + 1.0j], [-3.0]]])
    def test_one_return_form(self, z):
        # (pole flags, logs), both of z's shape, with or without a pole
        pole, out = log_gamma(z, 0.0)
        assert pole.shape == out.shape == np.shape(z)
        assert pole.dtype == bool and out.dtype == complex

    def test_reflection_formula(self, rng):
        # exp(lg(z)) exp(lg(1-z)) == pi / sin(pi z), 100 random off-axis points
        worst = 0.0
        for _ in range(100):
            z = complex(rng.uniform(-8, 8), rng.uniform(0.1, 6) * rng.choice([-1, 1]))
            lhs = cmath.exp(lg(z)) * cmath.exp(lg(1 - z))
            rhs = math.pi / cmath.sin(math.pi * z)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        assert worst < 1e-11

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.5, 40.0), st.floats(-40.0, 40.0))
    def test_recurrence(self, re, im):
        z = complex(re, im)
        lhs = cmath.exp(lg(z + 1))
        rhs = z * cmath.exp(lg(z))
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
        nodes, weights = gauss_legendre(1)
        assert np.allclose(nodes, [0.0], atol=1e-15)
        assert np.allclose(weights, [2.0], atol=1e-15)

    def test_order_two(self):
        nodes, weights = gauss_legendre(2)
        assert np.allclose(nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        assert np.allclose(weights, [1.0, 1.0], atol=1e-15)

    def test_t20_integral(self):
        nodes, weights = gauss_legendre(16)
        assert abs(nodes**20 @ weights - 2.0 / 21.0) < 1e-13

    @pytest.mark.parametrize("order", [3, 8, 16, 48])
    def test_monomial_exactness(self, order):
        nodes, weights = gauss_legendre(order)
        for deg in range(0, 2 * order, 2):
            exact = 2.0 / (deg + 1)
            assert abs(nodes**deg @ weights - exact) < 1e-13

    def test_invariants(self):
        nodes, weights = gauss_legendre(64)
        assert abs(weights.sum() - 2.0) < 1e-12
        assert np.all(np.diff(nodes) > 0)
        assert np.all(weights > 0)

    def test_rejects_bad_rules(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)
