"""The vectorized closed-form core: array calls against scalar calls, the
compensated arguments near singular hyperplanes, and the accuracy contract
against 50-digit mpmath."""

import operator
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coslam import spectral
from coslam.scalar import log_gamma
from coslam.spectral import FieldTag, GrassmannSignature, c_p, enumerate_ktypes, eta, nu
from coslam.verify import all_signatures

R, C, H = FieldTag.REAL, FieldTag.COMPLEX, FieldTag.QUATERNION


def sig(n, p, field):
    return GrassmannSignature(n, p, field)


def mp_closed_form(s, mu, lam, kind):
    """The Gindikin-Gamma formula of c_p / eta / nu at lambda, in mpmath."""
    d, p = s.d, s.p
    zero = (0,) * p
    mu = zero if mu is None else tuple(mu)
    rho = mp.mpf(d * (s.n + 1)) / 2

    def gind(twice, shifts, inverse=False):
        g = mp.rgamma if inverse else mp.gamma
        out = mp.mpf(1)
        for j in range(p):
            out *= g((twice + shifts[j]) / 2 - mp.mpf(d) * j / 2)
        return out

    if kind == "cp":
        return (gind(d * (s.n + 1), zero) * gind(d * p, zero, True)
                * gind(lam - rho + d * p, zero) * gind(lam + rho, zero, True))
    if kind == "eta":
        sign = -1 if (sum(mu) // 2) % 2 else 1
        head = gind(d * (s.n + 1), zero) * gind(d * p, zero, True) * gind(lam - rho + d * p, zero)
    else:
        sign = 1
        head = gind(2 * rho, zero) * gind(rho, zero, True) * gind(lam, zero)
    return sign * head * (gind(-lam + rho, mu) * gind(-lam + rho, zero, True)
                          * gind(lam + rho, mu, True))


def closed_form(s, mu, lam, kind):
    if kind == "cp":
        return c_p(s, lam)
    return (eta if kind == "eta" else nu)(s, mu, lam)


def mp_rel_err(sv, s, mu, lam, kind):
    """Relative error of a finite SpectralValue against 50-digit mpmath,
    taken in log form so that no double-precision overflow can intervene."""
    with mp.workdps(50):
        ref = mp_closed_form(s, mu, mp.mpc(lam.real, lam.imag), kind)
        return float(abs(mp.exp(mp.mpc(sv.log_coeff) - mp.log(ref)) - 1))


def mp_order(s, mu, lam, kind):
    """Laurent order at lambda from the slope of log|value| at lambda + h."""
    with mp.workdps(50):
        lam = mp.mpc(lam.real, lam.imag)
        v1 = mp_closed_form(s, mu, lam + mp.mpf("1e-30"), kind)
        v2 = mp_closed_form(s, mu, lam + mp.mpf("1e-35"), kind)
        return -float((mp.log(abs(v2)) - mp.log(abs(v1))) / mp.log(mp.mpf("1e-5")))


# Grids with step 1/4 hit every singular hyperplane (they sit at integer
# and half-integer lambda), so they cross poles, zeros and removable points.
REAL_GRID = np.linspace(-12.0, 12.0, 97)
GRIDS = [REAL_GRID, REAL_GRID + 0.7j, np.concatenate([REAL_GRID[::8], REAL_GRID[::8] - 2.5j])]

IDENTITY_SIGS = [sig(2, 1, R), sig(5, 3, R), sig(3, 2, R), sig(4, 2, C), sig(3, 2, C),
                 sig(5, 2, H), sig(3, 2, H), sig(7, 3, H)]


class TestArrayEqualsScalar:
    @pytest.mark.parametrize("s", IDENTITY_SIGS, ids=GrassmannSignature.label)
    def test_c_p_grid(self, s):
        for grid in GRIDS:
            values = c_p(s, grid)
            assert values.shape == grid.shape
            for lam, v in zip(grid, values):
                assert v == c_p(s, lam), (s, lam)
        signs = {np.sign(v.laurent_order) for v in c_p(s, REAL_GRID)}
        assert 1 in signs and 0 in signs

    @pytest.mark.parametrize("s", IDENTITY_SIGS, ids=GrassmannSignature.label)
    def test_eta_and_nu_over_ktypes(self, s):
        mus = enumerate_ktypes(s, 8)
        lams = np.concatenate([REAL_GRID[::6], [s.rho, -s.rho, s.rho + 2.0, 1.5 - 2.0j]])
        kinds = [eta, nu] if s.split_rank_equal else [eta]
        for fn in kinds:
            table = fn(s, mus, lams)
            assert table.shape == (len(mus), len(lams))
            signs = set()
            for mu, row in zip(mus, table):
                for lam, v in zip(lams, row):
                    assert v == fn(s, mu, lam), (fn.__name__, s, mu, lam)
                    signs.add(np.sign(v.laurent_order))
                # one K-type over the lambdas, and all K-types at one lambda
                assert list(fn(s, mu, lams)) == list(row)
            assert list(fn(s, mus, lams[3])) == list(table[:, 3])
            assert {1, -1, 0} <= signs

    def test_scalar_calls_return_one_value(self):
        s = sig(3, 2, C)
        assert isinstance(c_p(s, 5.0), spectral.SpectralValue)
        assert isinstance(eta(s, (2, 0), np.complex128(5.0 + 1.0j)), spectral.SpectralValue)
        assert isinstance(nu(s, spectral.KType((2, 2)), 3.25), spectral.SpectralValue)

    def test_shapes_and_empty_inputs(self):
        s = sig(4, 2, C)
        assert c_p(s, np.ones((2, 3))).shape == (2, 3)
        assert eta(s, [(0, 0), (2, 0)], np.ones((2, 3))).shape == (2, 2, 3)
        assert eta(s, (2, 0), []).shape == (0,)
        assert eta(s, [], [1.0, 2.0]).shape == (0, 2)

    def test_invalid_inputs_rejected(self):
        s = sig(4, 2, C)
        with pytest.raises(ValueError):
            eta(s, [(0, 0), (1, 0)], 2.0)
        with pytest.raises(ValueError):
            c_p(s, [1.0, np.inf])
        with pytest.raises(ValueError):
            nu(s, [(0, 0)], [1.0])

    def test_blocked_evaluation_is_identical(self, monkeypatch):
        s = sig(5, 3, R)
        mus = enumerate_ktypes(s, 6)
        lams = np.concatenate([REAL_GRID, REAL_GRID + 0.3j])
        whole = eta(s, mus, lams)
        monkeypatch.setattr(spectral, "_BLOCK", 100)
        blocked = eta(s, mus, lams)
        assert (blocked == whole).all()

    def test_no_runtime_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in IDENTITY_SIGS:
                mus = enumerate_ktypes(s, 6)
                for grid in GRIDS:
                    eta(s, mus, grid)
                    c_p(s, grid)


class TestLogGammaArrays:
    def test_elementwise_equals_scalar(self):
        z = np.array([0.5, 3.25, -2.5, -7.75, 2.0 + 3.0j, -4.5 - 0.25j, -2.0 + 1.0j,
                      40.0 + 49.0j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pole, out = log_gamma(z, 0.0)
        assert not pole.any()
        for zi, oi in zip(z, out):
            assert oi == log_gamma(zi, 0.0)[1]

    def test_poles_are_marked(self):
        z = np.array([1.5, -3.0, 0.0 + 2e-15j])
        pole, out = log_gamma(z, np.log(0.5 + 0j))
        assert pole.tolist() == [False, True, True]
        # Gamma(z(lambda)) with z' = 1/2 at the pole -3: residue -1/6 over 1/2
        assert abs(np.exp(out[1]) + 1.0 / 3.0) < 1e-15 and abs(np.exp(out[2]) - 2.0) < 1e-15
        assert out[0] == log_gamma(1.5, 0.0)[1]

    @pytest.mark.parametrize("k", [0, 1, 3, 9])
    @pytest.mark.parametrize("dist", [3e-4, 2e-9, 7e-13])
    def test_residual_near_pole(self, k, dist):
        # z + residual lies `dist` from the pole -k; z alone is rounded
        x = mp.mpf(-k) + mp.mpf(dist) + mp.mpf("1.3e-17")
        z = float(x)
        residual = float(x - z)
        got = complex(log_gamma(z, 0.0, residual)[1])
        with mp.workdps(50):
            err = abs(mp.exp(mp.mpc(got) - mp.loggamma(x)) - 1)
        assert err < 1e-14


NEAR_SIGS = [sig(5, 2, H), sig(7, 3, H), sig(4, 2, C), sig(5, 3, R)]


def singular_lambdas(s, mu):
    """Real lambdas where a lambda-dependent Gindikin factor of eta sits on
    a pole: sign * lambda + c_j = -2k (c_j from the closed form)."""
    d, p, rho = s.d, s.p, s.rho
    out = set()
    for sign, const, shifted in [(+1, -rho + d * p, False), (-1, rho, True),
                                 (-1, rho, False), (+1, rho, True)]:
        for j in range(p):
            cj = const + (mu[j] if shifted else 0) - d * j
            for k in range(0, 12):
                out.add(sign * (-2.0 * k - cj))
    return sorted(x for x in out if -10.0 <= x <= 10.0)


class TestNearHyperplaneSweep:
    """Distances 1e-3 ... 1e-12 on both sides of singular hyperplanes, where
    the rounding of each Gamma argument used to be divided by the distance."""

    @pytest.mark.parametrize("s", NEAR_SIGS, ids=GrassmannSignature.label)
    @pytest.mark.parametrize("kind", ["cp", "eta"])
    def test_matches_mpmath(self, s, kind):
        mu = (0,) * s.p if kind == "cp" else (2,) + (0,) * (s.p - 1)
        planes = singular_lambdas(s, mu)
        planes = planes[:: max(1, len(planes) // 5)]
        lams = np.array([x + side * 10.0 ** -e for x in planes
                         for e in range(3, 13) for side in (-1.0, 1.0)])
        values = c_p(s, lams) if kind == "cp" else eta(s, mu, lams)
        worst = 0.0
        for lam, v in zip(lams, values):
            assert v.is_finite, (s, kind, lam)
            worst = max(worst, mp_rel_err(v, s, mu, complex(lam), kind))
        assert worst <= 1e-13, (s, kind, worst)


@st.composite
def contract_cases(draw):
    sigs = all_signatures(7)
    s = sigs[draw(st.integers(0, len(sigs) - 1))]
    kind = draw(st.sampled_from(["cp", "eta", "nu"] if s.split_rank_equal else ["cp", "eta"]))
    mus = enumerate_ktypes(s, 6)
    mu = None if kind == "cp" else mus[draw(st.integers(0, len(mus) - 1))].m
    lam = complex(draw(st.floats(-40.0, 40.0)), draw(st.floats(-50.0, 50.0)))
    return s, mu, lam, kind


class TestAccuracyContract:
    """The documented domain: n <= 7, |Re lambda| <= 40, |Im lambda| <= 50."""

    @settings(max_examples=150, deadline=None)
    @given(contract_cases())
    def test_against_mpmath(self, case):
        s, mu, lam, kind = case
        v = closed_form(s, mu, lam, kind)
        if v.is_finite:
            assert mp_rel_err(v, s, mu, lam, kind) <= 1e-12, case
        else:
            # Markers stand for the singular hyperplane within 2e-14 (a Gamma
            # argument within 1e-14 of a pole); hyperplanes sit at
            # half-integer real lambda.
            plane = complex(round(2.0 * lam.real) / 2.0, 0.0)
            assert abs(lam - plane) <= 2e-14, case
            expected = v.order if v.is_pole else -v.order
            assert abs(mp_order(s, mu, plane, kind) - expected) < 0.01, case


def finite_cell_value(order, log):
    """SpectralValue(order, log).value, or None where it has no finite double."""
    try:
        return spectral.SpectralValue(order, log).value
    except OverflowError:
        return None


# finite and zero-marker cells, with logs up to and past log(DBL_MAX / 4)
FINITE_CELLS = st.lists(
    st.tuples(st.sampled_from([0, 0, 0, -1, -2]),
              st.builds(complex, st.one_of(st.floats(-760.0, 709.8), st.floats(708.0, 709.8)),
                        st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300))))
    .filter(lambda cell: finite_cell_value(*cell) is not None), min_size=1, max_size=40)


class TestSpectralArray:
    """The array result of c_p/eta/nu/eta_by_recursion/sphere_eta and its
    algebra: its edge shapes, its cells, its products and its blocked
    evaluation."""

    def test_empty_lambda_axis(self):
        values = eta(sig(4, 2, C), (2, 0), [])
        assert values.shape == (0,) and len(values) == 0 and list(values) == []
        assert (values == values).shape == (0,)
        assert values.prod() == spectral.SpectralValue(0, 0j)

    def test_empty_ktype_axis(self):
        values = eta(sig(4, 2, C), [], [1.0, 2.0])
        assert values.shape == (0, 2) and len(values) == 0 and list(values) == []
        assert values.order.shape == values.log.shape == (0, 2)
        assert (values == values).shape == (0, 2)
        assert values.prod() == spectral.SpectralValue(0, 0j)

    def test_cells_rows_and_columns(self):
        s = sig(3, 2, R)
        mus = enumerate_ktypes(s, 4)
        lams = np.array([0.5, 2.5, 1.0 + 0.5j])
        table = nu(s, mus, lams)
        assert isinstance(table[1, 2], spectral.SpectralValue)
        assert table[1, 2] == nu(s, mus[1], lams[2])
        column = table[:, 0]
        assert isinstance(column, spectral.SpectralArray) and column.shape == (len(mus),)
        assert list(column) == [nu(s, mu, lams[0]) for mu in mus]
        assert (table == table).all() and not (table == nu(s, mus, lams + 1.0)).all()
        with pytest.raises(ValueError):
            table.log[0, 0] = 0.0  # the columns are read-only

    def test_prod_multiplies_cells_in_order(self):
        s = sig(5, 2, H)
        lams = np.array([[1.25 + 0.5j, -2.0], [3.5, 0.75 - 1.0j]])
        values = c_p(s, lams)
        cells = [c_p(s, lam) for lam in lams.ravel()]
        assert values.prod() == cells[0] * cells[1] * cells[2] * cells[3]

    def test_mul_div_and_prod_over_an_axis(self):
        s = sig(5, 2, H)
        lams = np.array([[1.25 + 0.5j, -2.0, 0.5], [3.5, 0.75 - 1.0j, s.rho]])
        a, b = c_p(s, lams), eta(s, (2, 0), lams)
        for got, expected in ((a * b, lambda x, y: x * y), (a / b, lambda x, y: x / y)):
            assert got.shape == lams.shape
            assert all(got[i] == expected(a[i], b[i]) for i in np.ndindex(lams.shape))
        rows = a.prod(axis=1)
        assert rows.shape == (2,) and list(rows) == [a[0].prod(), a[1].prod()]
        assert a.prod(axis=0).shape == (3,) and (a.prod(axis=-1) == rows).all()
        one = spectral.SpectralValue(0, 0j)
        assert list(eta(s, [], [1.0, 2.0]).prod(axis=0)) == [one, one]

    def test_orders_cancel_in_a_quotient(self):
        # Gamma(0)/Gamma(-1) = -1: both cells are simple poles
        g = spectral._gamma([0.0, -1.0])
        assert g[0].is_pole and g[1].is_pole
        ratio = (g[:1] / g[1:]).prod()
        assert ratio.is_finite and abs(ratio.value + 1.0) < 1e-15
        zero = spectral._linear([0.0, 2.0], 0.5)
        assert zero[0] == spectral.SpectralValue(-1, np.log(0.5))
        assert zero[1] == spectral.SpectralValue(0, np.log(2.0))

    def test_value_and_array_combine_cell_by_cell(self):
        s = sig(5, 2, H)
        lams = np.array([[1.25 + 0.5j, -2.0, 0.5], [3.5, 0.75 - 1.0j, s.rho]])
        values = eta(s, (2, 0), lams)
        scalars = (c_p(s, 2.0 + 0.5j), spectral.SpectralValue(2, np.log(3.0)),
                   spectral.SpectralValue(-1, -1.0j))
        for v in scalars:
            for got, cell in ((v * values, lambda x: v * x), (values * v, lambda x: x * v),
                              (v / values, lambda x: v / x), (values / v, lambda x: x / v)):
                assert isinstance(got, spectral.SpectralArray) and got.shape == lams.shape
                assert all(got[i] == cell(values[i]) for i in np.ndindex(lams.shape))
        same = values == values[0, 1]
        assert same.shape == lams.shape and same[0, 1] and not same[0, 0]
        grid = c_p(s, [1.0, 2.0])
        assert list(c_p(s, 2.0) * grid) == [c_p(s, 2.0) * g for g in grid]

    def test_mixed_operands_are_not_implemented(self):
        values = c_p(sig(4, 2, C), [1.5, 2.5])
        for other in (2.0, np.ones(2)):
            assert values.__mul__(other) is NotImplemented
            assert values.__truediv__(other) is NotImplemented
        with pytest.raises(TypeError):
            values * 2.0
        with pytest.raises(TypeError):
            values / 2.0

    def test_numpy_on_the_left_defers(self):
        # numpy must not walk the cells: == falls back to identity, and
        # arithmetic with a bare ndarray is unsupported in either order.
        values = c_p(sig(4, 1, C), [1.0, 2.0])
        assert (np.ones(2) == values) is False
        assert (values == np.ones(2)) is False
        assert (np.ones(2) != values) is True
        for op in (operator.mul, operator.truediv):
            with pytest.raises(TypeError, match="'numpy.ndarray' and 'SpectralArray'"):
                op(np.ones(2), values)
            with pytest.raises(TypeError):
                op(values, np.ones(2))

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_block_split_equals_whole(self, monkeypatch, block):
        s = sig(7, 3, H)
        lams = np.concatenate([REAL_GRID, REAL_GRID - 1.5j])
        mus = enumerate_ktypes(s, 4)
        whole_cp, whole_eta = c_p(s, lams), eta(s, mus, lams)
        monkeypatch.setattr(spectral, "_BLOCK", block)
        for whole, split in ((whole_cp, c_p(s, lams)), (whole_eta, eta(s, mus, lams))):
            assert np.array_equal(split.order, whole.order)
            assert np.array_equal(split.log, whole.log)

    @pytest.mark.parametrize("s", [sig(4, 2, C), sig(3, 2, R), sig(5, 3, H)],
                             ids=GrassmannSignature.label)
    def test_recursion_over_lambda_array(self, s):
        lams = np.concatenate([REAL_GRID[::8], [s.rho, 1.5 - 2.0j, -0.25 + 0.7j]])
        for mu in enumerate_ktypes(s, 6):
            values = spectral.eta_by_recursion(s, mu, lams)
            assert values.shape == lams.shape
            assert list(values) == [spectral.eta_by_recursion(s, mu, lam) for lam in lams]

    def test_recursion_over_ktype_sequence(self, rng):
        # every signature with n <= 4 and every K-type up to degree 8, the
        # signed ones over R with p = q included; paths of 0 to 4 steps
        for s in all_signatures(4):
            mus = enumerate_ktypes(s, 8)
            lams = np.concatenate([rng.uniform(-4, 4, 3) + 1j * rng.uniform(0.4, 2.5, 3),
                                   [s.rho, 2.0]])
            values = spectral.eta_by_recursion(s, mus, lams)
            assert values.shape == (len(mus), len(lams))
            for mu, row in zip(mus, values):
                one = spectral.eta_by_recursion(s, mu, lams)
                assert (row.order == one.order).all() and (row.log == one.log).all(), (s, mu)
            at_one = spectral.eta_by_recursion(s, mus, lams[0])
            assert list(at_one) == [spectral.eta_by_recursion(s, mu, lams[0]) for mu in mus]

    def test_recursion_long_paths_over_ktype_sequence(self):
        # paths of up to 12 steps, past numpy's 8-term pairwise block
        s = sig(3, 2, R)
        mus = enumerate_ktypes(s, 24)
        lams = np.array([1.5 - 2.0j, -0.25 + 0.7j])
        values = spectral.eta_by_recursion(s, mus, lams)
        assert all((values[i] == spectral.eta_by_recursion(s, mu, lams)).all()
                   for i, mu in enumerate(mus))

    def test_recursion_custom_path_needs_one_ktype(self):
        s = sig(3, 1, R)
        path = [((0,), (2,)), ((2,), (4,))]
        assert spectral.eta_by_recursion(s, (4,), 1.0 + 1.0j, path=path) == \
            spectral.eta_by_recursion(s, (4,), 1.0 + 1.0j)
        for mus in ([(4,)], [(4,), (2,)], []):
            with pytest.raises(ValueError, match="custom path needs a single K-type"):
                spectral.eta_by_recursion(s, mus, 1.0 + 1.0j, path=path)

    def test_value_of_every_cell(self):
        s = sig(3, 2, R)
        mus = enumerate_ktypes(s, 6)
        lams = np.array([0.5, 2.0, 4.0, 1.0 + 0.5j, -3.0 + 1.25j])  # zeros at 2 and 4
        table = eta(s, mus, lams)
        values = table.value
        assert values.shape == table.shape and values.dtype == complex
        assert values.tolist() == [[cell.value for cell in row] for row in table]
        assert (values[table.order < 0] == 0).all() and (table.order < 0).any()
        with pytest.raises(ValueError, match="pole has no finite value"):
            c_p(s, [2.0, 1.0]).value  # c_p of Gr_2(R^4) has a pole at 1

    def test_value_names_the_first_non_finite_cell_in_c_order(self):
        nan = complex("nan")
        logs = np.array([[0.5j, 1.0, nan], [800.0 + 0.5j, -2.0, 3.0j]])
        cells = spectral.SpectralArray(np.zeros((2, 3), dtype=int), logs)
        # (0, 2) precedes (1, 0) in C order, though not in column order
        with pytest.raises(OverflowError, match=r"^\|value\| = exp\(nan\) exceeds the "
                                                r"double-precision range$"):
            cells.value
        with pytest.raises(OverflowError, match=r"^\|value\| = exp\(800\) exceeds"):
            cells[::-1].value
        with pytest.raises(OverflowError, match=r"exp\(800\)"):  # a transposed view
            spectral.SpectralArray(cells.order.T, cells.log.T).value
        # a zero marker's log is never asked for
        assert spectral.SpectralArray(np.array([-1, 0]), np.array([nan, 0.0])).value.tolist() \
            == [0j, 1 + 0j]
        for at in np.ndindex(logs.shape):  # a pole anywhere is the error
            orders = np.zeros(logs.shape, dtype=int)
            orders[at] = 1
            with pytest.raises(ValueError, match="pole has no finite value"):
                spectral.SpectralArray(orders, logs).value

    @settings(max_examples=200, deadline=None)
    @given(FINITE_CELLS)
    @example([(0, complex(708.5, 1.0)), (0, complex(709.7, -0.0)), (-1, complex(800.0, 0.0)),
              (0, complex(-745.1, 2.0)), (-2, complex("nan"))])
    def test_value_is_each_cells_value_bit_for_bit(self, cells):
        # cmath.exp takes exp(log - 1) * e past log(DBL_MAX / 4), about 708.4
        orders, logs = zip(*cells)
        values = spectral.SpectralArray(np.array(orders), np.array(logs)).value
        expected = np.array([finite_cell_value(*cell) for cell in cells])
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_sphere_eta_over_lambda_array(self, n):
        rho = (n + 1) / 2.0
        lams = np.concatenate([REAL_GRID[::4], [rho, rho + 2.0, 1.5 - 2.0j]])
        for m in (0, 2, 4, 6):
            values = spectral.sphere_eta(n, m, lams)
            assert values.shape == lams.shape
            assert list(values) == [spectral.sphere_eta(n, m, lam) for lam in lams]
            assert spectral.sphere_eta(n, m, lams.reshape(2, -1)).shape == (2, len(lams) // 2)

    def test_omega_over_ktypes(self):
        # the loop form of the Casimir sum, summed left to right in j
        for s in all_signatures(6):
            mus = enumerate_ktypes(s, 8)
            expected = []
            for mu in mus:
                total = 0
                for j, mj in enumerate(mu.m):
                    total = total + (mj * mj + 2.0 * mj * spectral.rho_k(s)[j])
                expected.append(s.p * s.q / (2.0 * (s.n + 1)) * total)
            assert spectral.omega(s, mus).tolist() == expected
            assert [spectral.omega(s, mu) for mu in mus] == expected
