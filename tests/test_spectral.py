import itertools
import math

import numpy as np
import pytest

from coslam.spectral import (
    FieldTag,
    GrassmannSignature,
    KType,
    SpectralArray,
    c_p,
    enumerate_ktypes,
    eta,
    eta_by_recursion,
    eta_step_ratio,
    gindikin_gamma,
    ktype,
    nu,
    omega,
    rho_k,
    selberg_closed,
    sphere_eta,
)
from coslam.verify import all_signatures, generic_lambdas

from conftest import rel_err

R, C, H = FieldTag.REAL, FieldTag.COMPLEX, FieldTag.QUATERNION


def sig(n, p, field):
    return GrassmannSignature(n, p, field)


class TestTypes:
    def test_field_dimensions(self):
        assert (R.d, C.d, H.d) == (1, 2, 4)
        assert FieldTag.from_label("h") is H
        with pytest.raises(ValueError):
            FieldTag.from_label("Q")

    def test_signature_derived_quantities(self):
        s = sig(3, 2, C)
        assert s.q == 2 and s.d == 2 and s.rho == 4.0
        assert s.split_rank_equal

    def test_signature_validation(self):
        with pytest.raises(ValueError):
            sig(3, 3, R)  # p > q
        with pytest.raises(ValueError):
            sig(0, 1, R)

    @pytest.mark.parametrize("n,p", [(2.5, 1), (3, 1.5), (math.nan, 1), (3, math.inf), ("3", 1)])
    def test_signature_dimensions_must_be_integral(self, n, p):
        # Gr_1(R^3.5) and Gr_1.5(R^4) do not exist
        with pytest.raises(ValueError, match="need integral n and p"):
            sig(n, p, R)

    def test_signature_reads_integral_floats_as_ints(self):
        s = sig(3.0, np.int64(1), R)
        assert s == sig(3, 1, R) and type(s.n) is int and type(s.p) is int
        assert s.label() == "Gr_1(R^4)"

    def test_ktype_validation(self):
        s = sig(3, 2, R)
        assert ktype(s, (4, 2)).degree == 6
        assert ktype(s, (2, -2)).degree == 0  # signed tail allowed over R, p=q
        with pytest.raises(ValueError):
            ktype(s, (1, 0))  # odd
        with pytest.raises(ValueError):
            ktype(s, (2, 4))  # not decreasing
        with pytest.raises(ValueError):
            ktype(s, (2, -4))  # |m_p| > m_{p-1}
        with pytest.raises(ValueError):
            ktype(sig(3, 2, C), (2, -2))  # signed tail only over R with p=q
        with pytest.raises(ValueError):
            ktype(sig(4, 2, R), (2, -2))  # p != q

    def test_ktype_entries_must_be_integral(self):
        s = sig(4, 2, C)
        assert KType((np.int64(2), 0.0)).m == (2, 0)
        assert ktype(s, np.array([2.0, 0.0])).m == (2, 0)
        assert eta(s, np.array([[2.0, 0.0]]), 3 + 1j)[0] == eta(s, (2, 0), 3 + 1j)
        for bad in ((2.9, 0), (2, 0.5), (float("nan"), 0), (float("inf"), 0)):
            for make in (KType, lambda m: ktype(s, m), lambda m: eta(s, m, 3 + 1j)):
                with pytest.raises(ValueError):
                    make(bad)


class TestGindikinGamma:
    def test_single_factor(self):
        assert rel_err(gindikin_gamma(1, 1, (2,)).value, 1.0) < 1e-14

    def test_integer_values(self):
        # Gamma(2) * Gamma(1) = 1
        assert rel_err(gindikin_gamma(2, 2, (2, 2)).value, 1.0) < 1e-14

    def test_pole_marker(self):
        v = gindikin_gamma(2, 1, (0.5, 0.5))
        assert v.order == 1

    def test_pole_covariance_scan(self):
        # marker is a pole exactly when some v_j - (d/2)(j-1) is in {0,-1,...}
        grid = [x / 2.0 for x in range(-6, 7)]
        for p, d in [(1, 1), (2, 1), (2, 2), (2, 4), (3, 2)]:
            for v in itertools.product(grid, repeat=p):
                expected = sum(
                    1
                    for j, vj in enumerate(v)
                    if (vj - 0.5 * d * j) <= 0 and float(vj - 0.5 * d * j).is_integer()
                )
                got = gindikin_gamma(p, d, v)
                if expected:
                    assert got.order == expected, (p, d, v)
                else:
                    assert got.order == 0, (p, d, v)

    def test_argument_length_checked(self):
        with pytest.raises(ValueError):
            gindikin_gamma(2, 1, (1.0,))


class TestLattice:
    def test_enumerate_degree_zero(self):
        for s in (sig(3, 2, R), sig(5, 3, H)):
            assert [k.m for k in enumerate_ktypes(s, 0)] == [(0,) * s.p]

    def test_enumerate_generic_rank_two(self):
        assert [k.m for k in enumerate_ktypes(sig(4, 2, R), 2)] == [(0, 0), (2, 0)]

    def test_enumerate_real_split_includes_signed(self):
        types = [k.m for k in enumerate_ktypes(sig(3, 2, R), 4)]
        assert types == [(0, 0), (2, 0), (4, 0), (2, 2), (2, -2)]

    def test_enumerate_real_circle(self):
        types = [k.m for k in enumerate_ktypes(sig(1, 1, R), 4)]
        assert types == [(0,), (2,), (-2,), (4,), (-4,)]


def rho_k_from_roots(s):
    # Independent oracle: half sum of the positive compact roots with their
    # multiplicities d (e_i +/- e_j), d(q-p) (e_i) and d-1 (2 e_i).
    half = np.zeros(s.p)
    for i in range(s.p):
        for j in range(i + 1, s.p):
            for signj in (+1, -1):
                root = np.zeros(s.p)
                root[i] += 1
                root[j] += signj
                half += s.d * root
        root = np.zeros(s.p)
        root[i] = 1
        half += s.d * (s.q - s.p) * root
        root = np.zeros(s.p)
        root[i] = 2
        half += (s.d - 1) * root
    return half / 2.0


class TestRhoKOmega:
    def test_rho_k_direct_values(self):
        assert rho_k(sig(2, 1, R)) == (0.5,)
        assert rho_k(sig(3, 2, R)) == (1.0, 0.0)

    def test_rho_k_against_root_data(self):
        for s in all_signatures(7):
            assert np.allclose(rho_k(s), rho_k_from_roots(s), atol=1e-12)

    def test_omega_zero(self):
        for s in all_signatures(4):
            assert omega(s, (0,) * s.p) == 0.0

    def test_omega_sphere_value(self):
        assert abs(omega(sig(2, 1, R), (2,)) - 2.0) < 1e-14

    def test_omega_casimir_oracle(self, rng):
        # <mu + 2 rho_k, mu> with rho_k taken from the root-data oracle
        for s in all_signatures(5):
            rk = rho_k_from_roots(s)
            scale = s.p * s.q / (2.0 * (s.n + 1))
            for mu in enumerate_ktypes(s, 8):
                m = np.array(mu.m, dtype=float)
                expected = scale * float(m @ (m + 2.0 * rk))
                assert abs(omega(s, mu) - expected) < 1e-10

    def test_omega_positive_on_nontrivial_types(self):
        for s in (sig(1, 1, R), sig(3, 2, R), sig(4, 2, C), sig(5, 3, H)):
            for mu in enumerate_ktypes(s, 20):
                if not mu.is_zero:
                    assert omega(s, mu) > 0.0, (s, mu)


class TestCFunction:
    def test_normalized_at_rho(self):
        for s in all_signatures(8):
            assert abs(c_p(s, s.rho).value - 1.0) < 1e-13

    def test_sphere_value(self):
        # Gamma(1.5)/Gamma(0.5) * Gamma(1.5)/Gamma(2.5) = (1/2)(2/3) = 1/3,
        # confirmed independently by the 1-D quadrature oracle and Monte Carlo
        assert rel_err(c_p(sig(2, 1, R), 3.5).value, 1.0 / 3.0) < 1e-13

    def test_positive_on_real_axis_beyond_rho(self, rng):
        for s in all_signatures(5):
            for _ in range(5):
                lam = s.rho + rng.uniform(0.01, 6.0)
                v = c_p(s, lam).value
                assert abs(v.imag) < 1e-12 * abs(v)
                assert v.real > 0.0


class TestEta:
    def test_zero_type_is_c_function(self, rng):
        for s in all_signatures(5):
            for lam in generic_lambdas(rng, 5):
                assert rel_err(eta(s, (0,) * s.p, lam).value, c_p(s, lam).value) < 1e-13

    def test_sphere_formula_matches_rank_one_closed_form(self, rng):
        for n in (2, 3, 4, 5):
            s = sig(n, 1, R)
            for m in (0, 2, 4, 6):
                for lam in generic_lambdas(rng, 20):
                    a = sphere_eta(n, m, lam).value
                    b = eta(s, (m,), lam).value
                    assert rel_err(a, b) < 1e-12

    def test_functional_equation(self, rng):
        sigs = all_signatures(5)
        for _ in range(50):
            s = sigs[rng.integers(len(sigs))]
            pool = enumerate_ktypes(s, 8)
            mu = pool[rng.integers(len(pool))]
            lam = generic_lambdas(rng, 1)[0]
            lhs = (eta(s, mu, lam) * eta(s, mu, -lam)).value
            rhs = (c_p(s, lam) * c_p(s, -lam)).value
            assert rel_err(lhs, rhs) < 1e-11

    def test_removable_singularities_match_nearby_limit(self):
        # exact Laurent cancellation vs numerical limit along the real axis
        cases = [
            (sig(3, 2, R), (2, 0), 4.0, 1.0 / 18.0),
            (sig(3, 2, R), (2, 2), 4.0, 1.0 / 30.0),
        ]
        for s, mu, lam0, frozen in cases:
            exact = eta(s, mu, lam0).value
            assert rel_err(exact, frozen) < 1e-12
            near = eta(s, mu, lam0 + 1e-7).value
            assert rel_err(near, exact) < 1e-5

    def test_corrected_sign_structure(self, rng):
        # for real lambda > rho + max(m): eta > 0, and the Gamma-ratio factor
        # Prod_j ((-lam+rho)/2 - (d/2)(j-1))_(m_j/2) carries sign (-1)^(|mu|/2)
        for s in (sig(2, 1, R), sig(3, 2, C), sig(5, 2, H)):
            for mu in enumerate_ktypes(s, 8):
                lam = s.rho + max(mu.m, default=0) + rng.uniform(0.3, 3.0)
                v = eta(s, mu, lam).value
                assert abs(v.imag) < 1e-10 * max(abs(v), 1e-30)
                assert v.real > 0.0
                ratio = 1.0
                for j, mj in enumerate(mu.m):
                    a = (-lam + s.rho) / 2.0 - 0.5 * s.d * j
                    for k in range(mj // 2):
                        ratio *= a + k
                if ratio != 0.0:
                    assert np.sign(ratio) == (-1.0) ** (mu.degree // 2)

    def test_exceptional_signed_types_match_unsigned(self, rng):
        # over R with p = q the closed form as written satisfies the same
        # step relations, so the signed tail gives the same value
        for s in (sig(1, 1, R), sig(3, 2, R), sig(5, 3, R)):
            for mu in enumerate_ktypes(s, 8):
                if mu.m[-1] >= 0:
                    continue
                flipped = mu.m[:-1] + (-mu.m[-1],)
                for lam in generic_lambdas(rng, 5):
                    assert rel_err(eta(s, mu, lam).value, eta(s, flipped, lam).value) < 1e-11


class TestStepRatio:
    def test_sphere_formula(self, rng):
        s = sig(2, 1, R)
        for lam in generic_lambdas(rng, 10):
            got = eta_step_ratio(s, (0,), 0, lam).value
            assert rel_err(got, (lam - 1.5) / (lam + 1.5)) < 1e-14

    def test_zero_marker_at_numerator_root(self):
        s = sig(4, 2, C)
        mu = (4, 2)
        j = 0
        lam = mu[j] + s.rho - s.d * j  # numerator root, exactly representable
        v = eta_step_ratio(s, mu, j, lam)
        assert v.order == -1

    def test_pole_marker_at_denominator_root(self):
        s = sig(4, 2, C)
        lam = -(0 + s.rho - 0.0)
        v = eta_step_ratio(s, (0, 0), 0, lam)
        assert v.order == 1

    def test_step_leaving_lattice_rejected(self):
        with pytest.raises(ValueError):
            eta_step_ratio(sig(4, 2, C), (2, 2), 1, 1.0 + 1.0j)  # (2,4) not dominant

    @pytest.mark.parametrize("lam", [math.inf, math.nan, complex(2.0, math.inf)])
    def test_non_finite_lambda_rejected(self, lam):
        # as every other closed form: the ratio has no Gamma term to overflow
        with pytest.raises(ValueError, match="lambda must be finite"):
            eta_step_ratio(sig(4, 2, C), (2, 0), 0, lam)

    @pytest.mark.parametrize("j", [-1, 2])
    def test_index_out_of_range_rejected(self, j):
        # j = -1 would index the last coordinate but shift by d*j with j = -1
        with pytest.raises(ValueError):
            eta_step_ratio(sig(4, 2, C), (2, 0), j, 3.3 + 0.7j)

    def test_product_consistency_sweep(self, rng):
        # eta_step_ratio * eta(mu) == eta(mu + 2 e_j) on 50 random cases
        sigs = all_signatures(5)
        done = 0
        while done < 50:
            s = sigs[rng.integers(len(sigs))]
            pool = enumerate_ktypes(s, 8)
            mu = pool[rng.integers(len(pool))]
            j = int(rng.integers(s.p))
            up = list(mu.m)
            up[j] += 2
            try:
                up_t = ktype(s, up)
            except ValueError:
                continue
            lam = generic_lambdas(rng, 1)[0]
            lhs = (eta_step_ratio(s, mu, j, lam) * eta(s, mu, lam)).value
            rhs = eta(s, up_t, lam).value
            assert rel_err(lhs, rhs) < 1e-10
            done += 1


def all_monotone_paths(s, mu):
    """Every lattice path 0 -> mu whose steps each add one +/-2 in the right
    direction for the target coordinate (test-side oracle, small mu only)."""
    target = mu.m

    def extend(cur):
        if cur == target:
            yield []
            return
        for j in range(s.p):
            if cur[j] == target[j]:
                continue
            step = 2 if target[j] > cur[j] else -2
            nxt = list(cur)
            nxt[j] += step
            nxt = tuple(nxt)
            try:
                ktype(s, nxt)
            except ValueError:
                continue
            for rest in extend(nxt):
                yield [(cur, nxt)] + rest

    return list(extend((0,) * s.p))


class TestRecursion:
    def test_empty_path_is_c_function(self, rng):
        for s in all_signatures(4):
            for lam in generic_lambdas(rng, 3):
                assert rel_err(eta_by_recursion(s, (0,) * s.p, lam).value,
                               c_p(s, lam).value) < 1e-13

    def test_matches_closed_form(self, rng):
        for s in all_signatures(5):
            lams = generic_lambdas(rng, 4)
            for mu in enumerate_ktypes(s, 10):
                for lam in lams:
                    a = eta(s, mu, lam).value
                    b = eta_by_recursion(s, mu, lam).value
                    assert rel_err(b, a) < 1e-10, (s, mu, lam)

    @pytest.mark.parametrize(
        "s,mu",
        [
            (sig(4, 2, C), (4, 2)),
            (sig(3, 2, R), (2, 2)),
            (sig(3, 2, R), (2, -2)),
            (sig(5, 3, H), (4, 2, 2)),
        ],
    )
    def test_path_independence(self, s, mu, rng):
        mu = ktype(s, mu)
        paths = all_monotone_paths(s, mu)
        assert len(paths) >= 1
        for lam in generic_lambdas(rng, 3):
            ref = eta_by_recursion(s, mu, lam).value
            for path in paths:
                got = eta_by_recursion(s, mu, lam, path=path).value
                assert rel_err(got, ref) < 1e-10

    def test_bad_path_rejected(self):
        s = sig(4, 2, C)
        with pytest.raises(ValueError):
            eta_by_recursion(s, (2, 2), 1.0 + 1.0j, path=[((0, 0), (0, 2)), ((0, 2), (2, 2))])
        # on Gr_1(R^4): a path that stops short, one that jumps, no path, and
        # steps that do not chain
        for path in ([((0,), (2,))], [((0,), (4,))], [], [((0,), (2,)), ((0,), (2,))]):
            with pytest.raises(ValueError):
                eta_by_recursion(sig(3, 1, R), (4,), 1.0 + 1.0j, path=path)


class TestNu:
    def test_requires_split_rank(self):
        with pytest.raises(ValueError):
            nu(sig(4, 2, R), (2, 0), 2.0 + 1.0j)

    def test_zero_type(self, rng):
        for s in (sig(1, 1, R), sig(3, 2, C), sig(3, 2, H)):
            for lam in generic_lambdas(rng, 5):
                assert rel_err(nu(s, (0,) * s.p, lam).value, c_p(s, lam).value) < 1e-12

    def test_degree_two_sign_flip(self, rng):
        for s in (sig(1, 1, R), sig(3, 2, R), sig(3, 2, C)):
            mu = (2,) + (0,) * (s.p - 1)
            for lam in generic_lambdas(rng, 5):
                assert rel_err(nu(s, mu, lam).value, -eta(s, mu, lam).value) < 1e-12

    def test_direct_formula_agrees_with_signed_eta(self, rng):
        # the two computation paths must coincide on every type
        for s in (sig(1, 1, R), sig(3, 2, R), sig(3, 2, C), sig(3, 2, H)):
            for mu in enumerate_ktypes(s, 8):
                for lam in generic_lambdas(rng, 3):
                    direct = nu(s, mu, lam).value
                    via_eta = (-1.0) ** (mu.degree // 2) * eta(s, mu, lam).value
                    assert rel_err(direct, via_eta) < 1e-11

    def test_functional_equation_inherited(self, rng):
        s = sig(3, 2, C)
        for mu in enumerate_ktypes(s, 6):
            lam = generic_lambdas(rng, 1)[0]
            lhs = (nu(s, mu, lam) * nu(s, mu, -lam)).value
            rhs = (c_p(s, lam) * c_p(s, -lam)).value
            assert rel_err(lhs, rhs) < 1e-11


class TestSphereEta:
    def test_m_zero_reduces_to_plain_gamma_ratio(self, rng):
        import cmath

        from coslam.scalar import log_gamma

        for n in (2, 3, 4):
            rho = (n + 1) / 2.0
            for lam in generic_lambdas(rng, 5):
                _, lg = log_gamma([rho, 0.5, (lam - rho + 1) / 2.0, (lam + rho) / 2.0], 0.0)
                expected = cmath.exp(lg[0] - lg[1] + lg[2] - lg[3])
                assert rel_err(sphere_eta(n, 0, lam).value, expected) < 1e-13

    def test_zero_at_rho_for_degree_two(self):
        v = sphere_eta(2, 2, 1.5)
        assert v.order < 0 and v.value == 0.0

    def test_polynomial_form_at_half_integer_points(self):
        # lambda = rho + 2 sits on a would-be 0/0 of the Gamma-quotient form
        assert rel_err(sphere_eta(2, 2, 3.5).value, 2.0 / 15.0) < 1e-13

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            sphere_eta(2, 3, 2.0)


class TestSelbergClosed:
    def test_rank_one_is_beta(self, rng):
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
        # the plain integral of |t1 - t2| over the unit square
        assert abs(selberg_closed(2, 0.5, 1.0, 1.0).value.real - 1.0 / 3.0) < 1e-13


class TestSpectralValue:
    def test_product_order_arithmetic(self):
        pole = SpectralArray(2, 0j)
        zero = SpectralArray(-1, 0j)
        assert (pole * zero).order == 1
        assert (pole * zero * zero).order == 0
        assert (zero / pole).order == -3

    def test_cancellation_keeps_coefficient(self):
        a = SpectralArray(1, np.log(2.0))
        b = SpectralArray(1, np.log(4.0))
        assert rel_err((a / b).value, 0.5) < 1e-14

    def test_finite_round_trip(self):
        v = SpectralArray(0, np.log(-3.25 + 0.5j))
        assert rel_err(v.value, -3.25 + 0.5j) < 1e-15
        assert str(v) == str(v.value)
        assert str(SpectralArray(3, 0j)) == "pole(order=3)"
        assert str(SpectralArray(-2, 0j)) == "zero(order=2)"

    def test_value_of_pole_raises(self):
        with pytest.raises(ValueError):
            SpectralArray(1, 0j).value
        assert SpectralArray(0, 0j).order == 0  # a finite value has signed order 0


class TestNearHyperplane:
    """Real lambdas within ~1e-3 of a singular hyperplane, where the relative
    error is the rounding of each Gamma argument over its distance to the
    pole; checked against the Gindikin-Gamma formula in 50-digit mpmath."""

    @staticmethod
    def mp_value(s, mu, lam, kind):
        import mpmath as mp

        d, p = s.d, s.p
        zero = (0,) * p
        lam = mp.mpf(lam)
        rho = mp.mpf(d * (s.n + 1)) / 2

        def gind(twice, shifts, inverse=False):
            g = mp.rgamma if inverse else mp.gamma
            out = mp.mpf(1)
            for j in range(p):
                out *= g((twice + shifts[j]) / 2 - mp.mpf(d) * j / 2)
            return out

        head = gind(d * (s.n + 1), zero) * gind(d * p, zero, True) * gind(lam - rho + d * p, zero)
        if kind == "cp":
            return head * gind(lam + rho, zero, True)
        sign = -1 if (sum(mu) // 2) % 2 else 1
        return sign * head * (gind(-lam + rho, mu) * gind(-lam + rho, zero, True)
                              * gind(lam + rho, mu, True))

    @pytest.mark.parametrize("n,p,lam,kind", [
        (5, 2, 3.9990740186607683, "cp"),
        (7, 3, -9.99797989068024, "eta"),
    ])
    def test_matches_mpmath(self, n, p, lam, kind):
        import mpmath as mp

        s = sig(n, p, FieldTag.QUATERNION)
        mu = (0,) * p
        got = (c_p(s, lam) if kind == "cp" else eta(s, mu, lam)).value
        with mp.workdps(50):
            ref = self.mp_value(s, mu, lam, kind)
            err = float(abs(mp.mpc(got) - ref) / abs(ref))
        assert err <= 1e-12
