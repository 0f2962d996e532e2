"""Elliptic kernel tests.

Oracles, in order of independence:
* a power-series evaluation of K(m) (no AGM anywhere in it),
* mpmath at 40 digits for point values of sn/cn/dn,
* scipy.special.ellipj/ellipk on random grids,
* the closed forms at m = 0 and m = 1.
The library must agree with all of them; the algebraic identities are then
property-tested with hypothesis.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import example, given, settings, strategies as st

import landen_kdv.elliptic as elliptic_module
import landen_kdv.landen as landen_module
from landen_kdv import DomainError, complete_K, jacobi_sn_cn_dn
from landen_kdv.elliptic import _agm, _modulus, complete_E

# the kernel's two outputs: all three of sn, cn, dn, and dn alone
OUTPUTS = pytest.mark.parametrize("dn_only", [False, True], ids=["jacobi_sn_cn_dn", "_dn"])

mpmath.mp.dps = 40


def series_K(m: float, terms: int = 200) -> float:
    # K(m) = (pi/2) * sum_n [ (2n)! / (2^2n (n!)^2) ]^2 m^n
    total = 0.0
    coeff = 1.0
    for n in range(terms):
        total += coeff * coeff * m**n
        coeff *= (2 * n + 1) / (2 * n + 2)
    return math.pi / 2.0 * total


class TestCompleteK:
    def test_k_zero_is_half_pi(self):
        assert complete_K(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_against_series_oracle(self):
        for m in (0.05, 0.2, 0.5, 0.7):
            assert complete_K(m) == pytest.approx(series_K(m), rel=1e-13)

    def test_frozen_half_value(self):
        assert complete_K(0.5) == pytest.approx(1.8540746773013719, rel=1e-14)

    def test_against_scipy(self):
        for m in np.linspace(0.0, 0.99, 34):
            assert complete_K(float(m)) == pytest.approx(float(sps.ellipk(m)), rel=1e-13)

    def test_against_mpmath_near_one(self):
        for m in (0.999, 1.0 - 1e-9, 1.0 - 1e-12):
            expected = float(mpmath.ellipk(mpmath.mpf(m)))
            assert complete_K(m) == pytest.approx(expected, rel=1e-12)

    def test_strictly_increasing(self):
        values = [complete_K(m) for m in np.linspace(0.0, 0.99, 100)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, float("nan")])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            complete_K(bad)


class TestCompleteE:
    def test_e_zero_is_half_pi(self):
        assert complete_E(0.0) == math.pi / 2

    def test_against_scipy(self):
        for m in np.linspace(0.0, 0.99, 34):
            assert complete_E(float(m)) == pytest.approx(float(sps.ellipe(m)), rel=1e-13)

    def test_against_mpmath_near_one(self):
        for m in (0.999, 1.0 - 1e-9, 1.0 - 1e-12):
            expected = float(mpmath.ellipe(mpmath.mpf(m)))
            assert complete_E(m) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, float("nan")])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            complete_E(bad)

    def test_one_agm_run_equals_the_two_run_formula(self):
        for m in (1e-300, 1e-12, 0.1, 0.5, 0.9, 1.0 - 1e-9, 1.0 - 2.0**-52):
            two_runs = complete_K(m) * (1.0 - _agm(math.sqrt(1.0 - m))[1])
            assert complete_E(m) == two_runs

    def test_agm_runs(self, monkeypatch):
        runs = [0]

        def counted(b):
            runs[0] += 1
            return _agm(b)

        caches = (landen_module.landen_map, elliptic_module._modulus)

        def cold():
            for cache in caches:
                cache.cache_clear()
            runs[0] = 0

        for module in (elliptic_module, landen_module):
            monkeypatch.setattr(module, "_agm", counted)
        try:
            cold()
            complete_E(0.5)
            complete_K(0.5)
            assert runs[0] == 1
            # the nome: K(m) and E(m) together, K(1 - m), then E(m~)
            cold()
            landen_module._nome(5, 0.5)
            assert runs[0] == 3
            # a cold map: the kernel finds K(m) and the ladder in the entry
            # the nome filled, so it adds no run
            cold()
            landen_module.landen_map(5, 0.5)
            assert runs[0] == 3
        finally:
            cold()


class TestJacobiPointValues:
    def test_origin(self):
        for m in (0.0, 0.3, 0.9, 1.0):
            assert jacobi_sn_cn_dn(0.0, m) == (0.0, 1.0, 1.0)

    def test_quarter_period(self):
        for m in (0.1, 0.5, 0.9):
            s, c, d = jacobi_sn_cn_dn(complete_K(m), m)
            assert s == pytest.approx(1.0, abs=1e-12)
            assert c == pytest.approx(0.0, abs=1e-12)
            assert d == pytest.approx(math.sqrt(1.0 - m), abs=1e-12)

    def test_m_zero_closed_forms(self):
        x = np.linspace(-20.0, 20.0, 401)
        s, c, d = jacobi_sn_cn_dn(x, 0.0)
        assert np.max(np.abs(s - np.sin(x))) < 1e-13
        assert np.max(np.abs(c - np.cos(x))) < 1e-13
        assert np.max(np.abs(d - 1.0)) < 1e-13

    def test_m_one_closed_forms(self):
        x = np.linspace(-20.0, 20.0, 401)
        s, c, d = jacobi_sn_cn_dn(x, 1.0)
        assert np.max(np.abs(s - np.tanh(x))) < 1e-13
        assert np.max(np.abs(c - 1.0 / np.cosh(x))) < 1e-13
        assert np.max(np.abs(d - 1.0 / np.cosh(x))) < 1e-13

    def test_m_one_far_tails_do_not_warn(self):
        # cosh overflows past |x| ~ 710; sech is then 0, with no
        # RuntimeWarning (the pytest filter turns one into an error)
        assert jacobi_sn_cn_dn(1000.0, 1.0) == (1.0, 0.0, 0.0)
        s, c, d = jacobi_sn_cn_dn(np.array([-1e4, 1e4]), 1.0)
        assert list(s) == [-1.0, 1.0]
        assert list(c) == [0.0, 0.0] and list(d) == [0.0, 0.0]

    def test_against_mpmath_points(self):
        for x in (-7.3, -1.0, 0.4, 2.2, 15.9):
            for m in (0.1, 0.5, 0.95, 1.0 - 1e-12):
                k = mpmath.sqrt(m)
                s, c, d = jacobi_sn_cn_dn(x, m)
                assert s == pytest.approx(float(mpmath.ellipfun("sn", x, k=k)), abs=4e-15)
                assert c == pytest.approx(float(mpmath.ellipfun("cn", x, k=k)), abs=4e-15)
                assert d == pytest.approx(float(mpmath.ellipfun("dn", x, k=k)), abs=4e-15)

    def test_against_scipy_grid(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-25.0, 25.0, 300)
        for m in (0.05, 0.4, 0.8, 0.99):
            s, c, d = jacobi_sn_cn_dn(x, m)
            s2, c2, d2, _ = sps.ellipj(x, m)
            assert np.max(np.abs(s - s2)) < 5e-12
            assert np.max(np.abs(c - c2)) < 5e-12
            assert np.max(np.abs(d - d2)) < 5e-12

    def test_scalar_and_array_forms_agree(self):
        xs = [0.3, 1.7, -4.1]
        arr = jacobi_sn_cn_dn(np.asarray(xs), 0.6)
        for i, x in enumerate(xs):
            s, c, d = jacobi_sn_cn_dn(x, 0.6)
            assert isinstance(s, float)
            assert (s, c, d) == (arr[0][i], arr[1][i], arr[2][i])

    @pytest.mark.parametrize("bad_m", [-0.2, 1.01, float("inf")])
    def test_bad_modulus(self, bad_m):
        with pytest.raises(DomainError):
            jacobi_sn_cn_dn(0.5, bad_m)

    def test_bad_argument(self):
        with pytest.raises(DomainError):
            jacobi_sn_cn_dn(float("nan"), 0.5)


class TestKernelArrays:
    @pytest.mark.parametrize("m", [0.0, 0.5, 1.0])
    def test_input_is_not_written(self, m):
        for x in (np.linspace(-30.0, 30.0, 257), np.linspace(-5.0, 5.0, 60).reshape(3, 20)):
            before = x.copy()
            jacobi_sn_cn_dn(x, m)
            assert np.array_equal(x, before)

    @pytest.mark.parametrize("convert", [
        list, lambda v: v.astype(np.int64), lambda v: v.astype(np.float32),
        lambda v: np.asarray(v[1])], ids=["list", "int", "float32", "0-d"])
    @pytest.mark.parametrize("m", [0.0, 0.5, 1.0])
    @OUTPUTS
    def test_other_inputs_give_the_float64_bits(self, dn_only, m, convert):
        x = convert(np.array([-41.0, -0.5, 0.0, 3.0, 7.25]))
        before = np.array(x, copy=True)
        got = jacobi_sn_cn_dn(x, m, dn_only=dn_only)
        expected = jacobi_sn_cn_dn(np.asarray(x, dtype=float), m, dn_only=dn_only)
        assert type(got) is type(expected)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
        assert np.array_equal(x, before) and np.asarray(x).dtype == before.dtype

    @pytest.mark.parametrize("convert", [
        list, lambda v: v.astype(np.float32), lambda v: np.asarray(v[1])],
        ids=["list", "float32", "0-d"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @OUTPUTS
    def test_other_inputs_are_refused_as_float64(self, dn_only, bad, convert):
        # an int array holds no non-finite value, so it has no refusal case
        x = convert(np.array([0.5, bad]))
        with pytest.raises(DomainError) as as_float64:
            jacobi_sn_cn_dn(np.asarray(x, dtype=float), 0.5, dn_only=dn_only)
        with pytest.raises(DomainError) as given:
            jacobi_sn_cn_dn(x, 0.5, dn_only=dn_only)
        assert str(given.value) == str(as_float64.value)

    @pytest.mark.parametrize("m", [0.0, 0.5, 1.0])
    def test_scalar_forms_return_python_floats(self, m):
        results = [jacobi_sn_cn_dn(x, m) for x in (0.7, np.float64(0.7), np.asarray(0.7))]
        for triple in results:
            assert all(type(v) is float for v in triple)
            assert triple == results[0]

    @pytest.mark.parametrize("m", [0.0, 1e-9, 0.3, 0.9, 1.0 - 1e-9, 1.0])
    def test_stacked_rows_match_one_dimensional_calls(self, m):
        x = np.random.default_rng(3).uniform(-40.0, 40.0, (5, 97))
        stacked = jacobi_sn_cn_dn(x, m)
        for values in stacked:
            assert values.shape == x.shape
        for i, row in enumerate(x):
            for values, one_d in zip(stacked, jacobi_sn_cn_dn(row, m)):
                assert np.array_equal(values[i], one_d)


class TestDnOnly:
    """dn_only=True, the kernel output of the callers that read dn alone, is
    the three-output dn bit for bit: it runs the same sn chain in the same
    order."""

    @given(m=st.floats(0.0, 1.0), x=st.floats(-1e4, 1e4), seed=st.integers(0, 2**32 - 1))
    @example(m=0.0, x=0.0, seed=0)
    @example(m=5e-324, x=1e4, seed=1)
    @example(m=1.0 - 1e-12, x=-7.3, seed=2)
    @example(m=1.0, x=800.0, seed=3)
    @settings(max_examples=200, deadline=None)
    def test_equals_the_full_kernel_bit_for_bit(self, m, x, seed):
        d = jacobi_sn_cn_dn(x, m, dn_only=True)
        assert type(d) is float and d == jacobi_sn_cn_dn(x, m)[2]
        rng = np.random.default_rng(seed)
        for shape in ((4, 3, 64), (4, 64)):
            # magnitudes from 1 to 1e4, so both the seed and the reduction vary
            xs = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(0.0, 4.0, shape)
            before = xs.copy()
            d = jacobi_sn_cn_dn(xs, m, dn_only=True)
            assert np.array_equal(xs, before)
            assert d.shape == shape
            assert np.array_equal(d, jacobi_sn_cn_dn(xs, m)[2])

    @pytest.mark.parametrize("m", [0.0, 1e-17, 1e-16, 0.5, 1.0])
    @pytest.mark.parametrize("x", [0.7, np.asarray(-41.0), [-41.0, 0.0, 0.7, 3.0]],
                             ids=["scalar", "0-d", "list"])
    def test_each_input_form_and_degenerate_modulus(self, x, m):
        # m <= 1e-16 leaves the ladder empty; m = 1 takes the hyperbolic branch
        d, full = jacobi_sn_cn_dn(x, m, dn_only=True), jacobi_sn_cn_dn(x, m)[2]
        assert type(d) is type(full)
        assert np.asarray(d).tobytes() == np.asarray(full).tobytes()

    @pytest.mark.parametrize("x, m", [
        (float("nan"), 0.5), (float("inf"), 0.5), (np.array([0.0, -np.inf]), 0.0),
        (np.array([[0.3], [np.nan]]), 1.0),
        (0.5, -0.1), (0.5, 1.01), (0.5, float("nan")), (0.5, float("inf")),
    ])
    def test_refuses_what_the_full_kernel_refuses(self, x, m):
        with pytest.raises(DomainError) as full:
            jacobi_sn_cn_dn(x, m)
        with pytest.raises(DomainError) as dn_only:
            jacobi_sn_cn_dn(x, m, dn_only=True)
        assert str(dn_only.value) == str(full.value)


class TestAlgebraicInvariants:
    @given(
        x=st.floats(-50.0, 50.0, allow_nan=False),
        m=st.floats(0.0, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_identities(self, x, m):
        s, c, d = jacobi_sn_cn_dn(x, m)
        assert abs(s * s + c * c - 1.0) < 1e-12
        assert abs(m * s * s + d * d - 1.0) < 1e-12

    @given(x=st.floats(-30.0, 30.0), m=st.floats(0.0, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_dn_bounds(self, x, m):
        d = jacobi_sn_cn_dn(x, m)[2]
        assert math.sqrt(1.0 - m) - 1e-12 <= d <= 1.0 + 1e-12

    @given(x=st.floats(-20.0, 20.0), m=st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_periodicity(self, x, m):
        big_k = complete_K(m)
        assert jacobi_sn_cn_dn(x + 2 * big_k, m)[2] == pytest.approx(
            jacobi_sn_cn_dn(x, m)[2], abs=1e-11)
        assert jacobi_sn_cn_dn(x + 4 * big_k, m)[0] == pytest.approx(
            jacobi_sn_cn_dn(x, m)[0], abs=1e-11)

    @given(x=st.floats(-20.0, 20.0), m=st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_quarter_period_shift_product(self, x, m):
        big_k = complete_K(m)
        d0 = jacobi_sn_cn_dn(x, m)[2]
        d1 = jacobi_sn_cn_dn(x + big_k, m)[2]
        assert d0 * d1 == pytest.approx(math.sqrt(1.0 - m), abs=1e-11)


def test_modulus_ladder_cache_is_bounded():
    # float keys never repeat in a parameter sweep; the cache must not grow
    # with the sweep
    maxsize = _modulus.cache_info().maxsize
    assert maxsize is not None
    for j in range(maxsize + 10):
        jacobi_sn_cn_dn(0.3, 0.25 + 0.5 * j / maxsize)
    assert _modulus.cache_info().currsize <= maxsize


@OUTPUTS
def test_kernel_looks_its_modulus_up_once(dn_only):
    # K(m) for the argument reduction and the ladder come from one entry
    def lookups():
        info = _modulus.cache_info()
        return info.hits + info.misses

    before = lookups()
    jacobi_sn_cn_dn(np.linspace(0.0, 5.0, 7), 0.3, dn_only=dn_only)
    assert lookups() - before == 1
