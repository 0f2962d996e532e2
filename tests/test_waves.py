"""Wave-family tests.

Point values that follow from dn(0) = 1 and dn(K) = sqrt(1-m) anchor the
profiles; scipy's ellipj then recomputes the full superposition from its
definition as an independent oracle.  Translation and periodicity invariants
are property-tested.
"""

import math

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings, strategies as st

from landen_kdv import (
    A_constant,
    DnWaveParams,
    DomainError,
    PmWaveParams,
    TOLERANCES,
    complete_K,
    landen_map,
    u_p,
    u_pm,
)
from landen_kdv.verify import _as_written, _upm_dn2_identity_metric
from landen_kdv.waves import _pm_as_dn2


class TestDnWaveParams:
    def test_velocity_coefficient(self):
        params = DnWaveParams(alpha=1.3, beta=-0.2, m=0.6, p=3)
        expected = 8 - 4 * 0.6 - 6 * -0.2 + 12 * A_constant(3, 0.6)
        assert params.b_p == pytest.approx(expected, rel=1e-13)
        assert params.velocity == pytest.approx(expected * 1.3**2, rel=1e-13)

    def test_single_wave_velocity_has_no_offset_constant(self):
        params = DnWaveParams(alpha=1.0, beta=0.5, m=0.5)
        assert params.b_p == pytest.approx(8 - 4 * 0.5 - 6 * 0.5, rel=1e-14)

    def test_spatial_period(self):
        params = DnWaveParams(alpha=2.0, beta=0.0, m=0.5, p=2)
        assert params.spatial_period == pytest.approx(complete_K(0.5) / 2.0, rel=1e-14)

    def test_shifts(self):
        shifts = landen_map(3, 0.5).shifts
        assert len(shifts) == 3
        assert shifts[0] == 0.0
        assert shifts[1] == pytest.approx(2 * complete_K(0.5) / 3, rel=1e-14)
        # the soliton has no period, and p = 1 needs none
        assert landen_map(1, 1.0).shifts == (0.0,)

    def test_natural_grid_spans_periods(self):
        params = DnWaveParams(alpha=1.0, beta=0.0, m=0.5, p=2)
        grid = params.natural_grid(n=128, periods=3)
        assert grid.N == 128
        assert grid.L == pytest.approx(3 * params.spatial_period, rel=1e-14)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0, "beta": 0.0, "m": 0.5},
            {"alpha": -1.0, "beta": 0.0, "m": 0.5},
            {"alpha": 1.0, "beta": 0.0, "m": -0.1},
            {"alpha": 1.0, "beta": 0.0, "m": 1.2},
            {"alpha": 1.0, "beta": 0.0, "m": 0.5, "p": 0},
            {"alpha": 1.0, "beta": 0.0, "m": 0.0, "p": 2},
            {"alpha": 1.0, "beta": 0.0, "m": 1.0, "p": 2},
            {"alpha": 1e200, "beta": 0.0, "m": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            DnWaveParams(**kwargs)


class TestDnWaveValues:
    def test_origin_single(self):
        params = DnWaveParams(alpha=1.0, beta=0.0, m=0.5)
        assert u_p(0.0, 0.0, params) == pytest.approx(-2.0, abs=1e-14)

    def test_origin_pair(self):
        params = DnWaveParams(alpha=1.0, beta=0.0, m=0.5, p=2)
        # dn^2(0) + dn^2(K) = 1 + (1 - m)
        assert u_p(0.0, 0.0, params) == pytest.approx(-3.0, abs=1e-13)

    def test_offset_enters_linearly(self):
        base = DnWaveParams(alpha=1.5, beta=0.0, m=0.5)
        lifted = DnWaveParams(alpha=1.5, beta=0.8, m=0.5)
        x = np.linspace(0, 3, 50)
        assert np.allclose(
            u_p(x, 0.0, lifted), u_p(x, 0.0, base) + 0.8 * 1.5**2, atol=1e-12)

    def test_scipy_recomputation(self):
        params = DnWaveParams(alpha=1.2, beta=-0.3, m=0.65, p=3)
        x = np.linspace(-2, 2, 101)
        t = 0.17
        big_k = complete_K(0.65)
        phase = 1.2 * (x - params.b_p * 1.2**2 * t)
        total = np.zeros_like(x)
        for i in range(3):
            dn = sps.ellipj(phase + 2 * i * big_k / 3, 0.65)[2]
            total += dn * dn
        expected = -2 * 1.2**2 * total + -0.3 * 1.2**2
        assert np.max(np.abs(u_p(x, t, params) - expected)) < 5e-12

    def test_amplitude_bounds(self):
        for p in (1, 2, 4):
            params = DnWaveParams(alpha=1.4, beta=0.3, m=0.8, p=p)
            grid = params.natural_grid(n=256)
            u = params.sample(grid, 0.0) - 0.3 * 1.4**2
            lo, hi = -2 * p * 1.4**2, -2 * p * 1.4**2 * (1 - 0.8)
            assert np.all(u >= lo - 1e-12)
            assert np.all(u <= hi + 1e-12)

    def test_soliton_form_at_unit_modulus(self):
        params = DnWaveParams(alpha=1.0, beta=0.0, m=1.0)
        x = np.linspace(-6, 6, 201)
        t = 0.05
        expected = -2.0 / np.cosh(x - 4 * t) ** 2
        assert np.max(np.abs(u_p(x, t, params) - expected)) < 1e-13

    def test_flat_limit_at_zero_modulus(self):
        params = DnWaveParams(alpha=1.5, beta=0.2, m=0.0)
        x = np.linspace(-3, 3, 41)
        assert np.allclose(u_p(x, 0.4, params), -2 * 1.5**2 + 0.2 * 1.5**2, atol=1e-13)

    def test_sample_matches_pointwise_evaluation(self):
        params = DnWaveParams(alpha=1.0, beta=0.1, m=0.5, p=2)
        grid = params.natural_grid(n=64)
        assert np.array_equal(params.sample(grid, 0.3), u_p(grid.x, 0.3, params))

    @given(
        p=st.integers(1, 4),
        m=st.floats(0.05, 0.95),
        alpha=st.floats(0.5, 2.0),
        x=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_spatial_periodicity(self, p, m, alpha, x):
        params = DnWaveParams(alpha=alpha, beta=0.0, m=m, p=p)
        period = params.spatial_period
        assert u_p(x + period, 0.0, params) == pytest.approx(
            u_p(x, 0.0, params), abs=1e-11)

    @given(
        p=st.integers(1, 3),
        m=st.floats(0.1, 0.9),
        dt=st.floats(0.0, 0.5),
        x=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_rigid_translation(self, p, m, dt, x):
        params = DnWaveParams(alpha=1.0, beta=0.2, m=m, p=p)
        v = params.velocity
        assert u_p(x + v * dt, dt, params) == pytest.approx(
            u_p(x, 0.0, params), abs=1e-10)


class TestPmWaves:
    def test_origin_values(self):
        for sign in (+1, -1):
            params = PmWaveParams(alpha=1.0, m=0.5, sign=sign)
            assert u_pm(0.0, 0.0, params) == pytest.approx(
                sign * math.sqrt(0.5), abs=1e-14)

    def test_scalar_rule_follows_u_p(self):
        # a float only when x and t are both scalars, as for u_p
        params = PmWaveParams(alpha=1.3, m=0.5, sign=1)
        ts = np.array([[0.0], [0.1]])
        out = u_pm(0.5, ts, params)
        assert isinstance(out, np.ndarray) and out.shape == (2, 1)
        assert out[1, 0] == u_pm(0.5, 0.1, params)
        assert isinstance(u_pm(0.5, 0.1, params), float)
        dn_params = DnWaveParams(alpha=1.3, beta=0.0, m=0.5)
        assert u_p(0.5, ts, dn_params).shape == (2, 1)

    def test_linear_coefficient(self):
        params = PmWaveParams(alpha=1.3, m=0.4, sign=1)
        assert params.q1 == -1.4
        assert params.velocity == pytest.approx(-1.4 * 1.3**2, rel=1e-14)
        assert _as_written(params).velocity == pytest.approx(-1.4 * 1.3, rel=1e-14)

    def test_spatial_period(self):
        params = PmWaveParams(alpha=2.0, m=0.5, sign=1)
        assert params.spatial_period == pytest.approx(4 * complete_K(0.5) / 2, rel=1e-14)

    def test_full_period_translation(self):
        params = PmWaveParams(alpha=1.0, m=0.5, sign=-1)
        x = np.linspace(-2, 2, 101)
        period = params.spatial_period
        assert np.max(np.abs(u_pm(x + period, 0.0, params) - u_pm(x, 0.0, params))) < 1e-11

    def test_half_period_is_not_a_period(self):
        # cn and dn both flip sign structure over 2K, so the mixed term does
        # not repeat until 4K
        params = PmWaveParams(alpha=1.0, m=0.5, sign=1)
        x = np.linspace(-2, 2, 101)
        half = params.spatial_period / 2
        assert np.max(np.abs(u_pm(x + half, 0.0, params) - u_pm(x, 0.0, params))) > 0.1

    def test_scipy_recomputation(self):
        params = PmWaveParams(alpha=1.3, m=0.6, sign=-1)
        x = np.linspace(-3, 3, 101)
        t = 0.21
        phase = 1.3 * (x - -1.6 * 1.3**2 * t)
        s, c, d, _ = sps.ellipj(phase, 0.6)
        expected = 1.3**2 * (0.6 * s * s - math.sqrt(0.6) * c * d)
        assert np.max(np.abs(u_pm(x, t, params) - expected)) < 5e-12

    def test_scalings_coincide_at_unit_alpha(self):
        params = PmWaveParams(alpha=1.0, m=0.7, sign=1)
        grid = params.natural_grid(n=128)
        for t in (0.0, 0.3, 1.1):
            assert np.array_equal(_as_written(params).sample(grid, t),
                                  params.sample(grid, t))

    def test_scalings_separate_away_from_unit_alpha(self):
        params = PmWaveParams(alpha=1.3, m=0.5, sign=1)
        grid = params.natural_grid(n=128)
        gap = np.max(np.abs(_as_written(params).sample(grid, 0.5)
                            - params.sample(grid, 0.5)))
        assert gap > 0.01

    def test_constant_at_unit_modulus_plus_sign(self):
        # m = 1: m sn^2 + sqrt(m) cn dn = tanh^2 + sech^2 = 1
        params = PmWaveParams(alpha=1.2, m=1.0, sign=1)
        x = np.linspace(-5, 5, 101)
        assert np.max(np.abs(u_pm(x, 0.7, params) - 1.44)) < 1e-13

    def test_sampler_wraps_profile(self):
        params = PmWaveParams(alpha=1.0, m=0.5, sign=1)
        grid = params.natural_grid(n=128)
        assert np.array_equal(params.sample(grid, 0.2), u_pm(grid.x, 0.2, params))

    @given(m=st.floats(0.1, 0.95), dt=st.floats(0.0, 0.4), x=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_rigid_translation_standard_scaling(self, m, dt, x):
        params = PmWaveParams(alpha=1.3, m=m, sign=1)
        v = params.velocity
        assert u_pm(x + v * dt, dt, params) == pytest.approx(
            u_pm(x, 0.0, params), abs=1e-10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0, "m": 0.5, "sign": 1},
            {"alpha": 1.0, "m": 0.0, "sign": 1},
            {"alpha": 1.0, "m": 1.1, "sign": 1},
            {"alpha": 1.0, "m": 0.5, "sign": 0},
            {"alpha": 1.0, "m": 0.5, "sign": 2},
            {"alpha": 1e200, "m": 0.5, "sign": 1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            PmWaveParams(**kwargs)


class TestPmAsDn2:
    """u_pm is a dn^2 wave at the ascending-Landen parameter m1 = 4k/(1 + k)^2."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("m", [1e-6, 0.2, 0.5, 0.8, 0.95])
    def test_single_wave_identity_under_scipy(self, m, sign):
        params = PmWaveParams(alpha=0.9, m=m, sign=sign)
        dn_params, offset = _pm_as_dn2(params, 1)
        x = np.linspace(-4.0, 4.0, 201)
        s, c, d, _ = sps.ellipj(0.9 * x, m)
        u = 0.81 * (m * s * s + sign * math.sqrt(m) * c * d)
        _, _, d1, _ = sps.ellipj(dn_params.alpha * (x + offset), dn_params.m)
        rhs = -2.0 * dn_params.alpha**2 * d1**2 + dn_params.beta * dn_params.alpha**2
        assert np.max(np.abs(u - rhs)) < 1e-12

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_p_term_sum_is_u_p(self, p, sign):
        params = PmWaveParams(alpha=1.3, m=0.6, sign=sign)
        dn_params, offset = _pm_as_dn2(params, p)
        x = np.linspace(-3.0, 3.0, 121)
        total = sum(u_pm(x + i * params.spatial_period / p, 0.0, params) for i in range(p))
        assert np.max(np.abs(total - u_p(x + offset, 0.0, dn_params))) < 1e-12

    @pytest.mark.parametrize("alpha", [0.4, 1.0, 1.3, 2.5])
    @pytest.mark.parametrize("m", [1e-9, 0.2, 0.5, 0.8, 0.99, 1.0])
    def test_velocity_is_the_dn2_velocity(self, m, alpha):
        params = PmWaveParams(alpha=alpha, m=m, sign=-1)
        if (m, alpha) == (0.99, 2.5):
            # 1 - m1 = 6.3e-6 is under this alpha's floor of 1.8e-5: the
            # dn^2 form would miss u_pm by 1.5e-10, so it is refused
            with pytest.raises(DomainError):
                _pm_as_dn2(params, 1)
            return
        dn_velocity = _pm_as_dn2(params, 1)[0].velocity
        assert dn_velocity == pytest.approx(params.velocity, rel=1e-14)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("m", [0.995, 1.0 - 1e-8])
    def test_refuses_where_dn_at_m1_is_too_coarse(self, m, sign):
        # the dn^2 form misses u_pm by 2.0e-10 at m = 0.995 and by 3.3 at
        # 1 - 1e-8, against the 1e-10 identity tolerance
        with pytest.raises(DomainError):
            _pm_as_dn2(PmWaveParams(alpha=1.3, m=m, sign=sign), 1)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("alpha", [0.5, 1.3, 2.0, 2.5, 4.0, 8.0])
    def test_refuses_or_meets_identity_tolerance(self, alpha, sign):
        # the gap grows as alpha^2 / (1 - m1); a floor on 1 - m1 alone
        # served 18 forms of this grid that miss 1e-10, the worst by 2.0e-9
        # (alpha = 8, m = 0.991) and 3.9e-10 at alpha = 4, m = 0.99
        served = 0
        for m in (0.9, 0.95, 0.97, 0.98, 0.99, 0.991, 0.995, 0.999):
            try:
                gap = _upm_dn2_identity_metric(alpha, m, sign, 256)
            except DomainError:
                continue
            served += 1
            assert gap <= TOLERANCES["dn2_identity"], (m, gap)
        assert served >= 1

    def test_unit_modulus(self):
        # the - branch is the soliton; the + branch is the constant alpha^2
        # and has no period to offset by
        dn_params, offset = _pm_as_dn2(PmWaveParams(alpha=1.2, m=1.0, sign=-1), 1)
        assert (dn_params.m, offset) == (1.0, 0.0)
        with pytest.raises(DomainError):
            _pm_as_dn2(PmWaveParams(alpha=1.2, m=1.0, sign=1), 1)
