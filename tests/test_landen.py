"""Transformation-map tests.

The p = 2 constants have closed forms, so those come first as exact oracles.
The general-p map is then cross-checked against scipy's ellipj, which shares
no code with the in-repo elliptic kernel: if the identity
dn(x, m~) = gamma * sum_i dn(gamma x + s_i, m) holds under scipy evaluation,
the constants are right independent of our sn/cn/dn.  m~ itself is checked
against mpmath's (theta_2/theta_3)^4 at the target nome q^p.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings, strategies as st

import landen_kdv.landen as landen_module
from landen_kdv import (
    ConsistencyError,
    DomainError,
    DnWaveParams,
    LandenMap,
    A_constant,
    complete_K,
    dn2_landen_rhs,
    dn_landen_rhs,
    jacobi_sn_cn_dn,
    landen_map,
    transform_params,
)
from landen_kdv.verify import _dn_identity_metric


def oracle_gap(p, m):
    """|A| gap between the shift lattice (the map's A) and the nome relation."""
    return abs(landen_map(p, m).A - landen_module._nome(p, m)[3])


def scipy_dn(x, m):
    return sps.ellipj(np.asarray(x, dtype=float), m)[2]


class TestTwoTermClosedForms:
    @given(m=st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_gamma_and_modulus(self, m):
        kp = math.sqrt(1.0 - m)
        lmap = landen_map(2, m)
        assert lmap.gamma == pytest.approx(1.0 / (1.0 + kp), rel=1e-12)
        assert lmap.m_tilde == pytest.approx(((1.0 - kp) / (1.0 + kp)) ** 2, rel=1e-12, abs=1e-15)

    @given(m=st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_cyclic_constant(self, m):
        lmap = landen_map(2, m)
        assert lmap.a == pytest.approx((2.0 * math.sqrt(1.0 - m),), rel=1e-11)


class TestOneTermIdentityMap:
    # the closed interval: m = 0 and m = 1 need no shift lattice
    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9, 0.0, 1.0])
    def test_exact_passthrough(self, m):
        lmap = landen_map(1, m)
        assert lmap.gamma == 1.0
        assert lmap.m_tilde == m
        assert lmap.shifts == (0.0,)
        assert lmap.a == ()
        assert lmap.A == 0.0
        assert lmap.cyclic_sum == 0.0


class TestFrozenValues:
    def test_two_term_half(self):
        lmap = landen_map(2, 0.5)
        assert lmap.gamma == pytest.approx(0.5857864376269049, abs=1e-15)
        assert lmap.m_tilde == pytest.approx(0.029437251522859434, abs=1e-15)
        assert lmap.a[0] == pytest.approx(math.sqrt(2.0), abs=1e-13)

    def test_three_term_half_offset(self):
        assert A_constant(3, 0.5) == pytest.approx(-0.46788982501387144, abs=1e-12)


class TestMapStructure:
    @given(p=st.integers(2, 8), m=st.floats(0.01, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, p, m):
        lmap = landen_map(p, m)
        assert 0.0 < lmap.gamma < 1.0
        assert 0.0 < lmap.m_tilde < m
        assert len(lmap.shifts) == p
        assert lmap.shifts[0] == 0.0
        assert all(b > a for a, b in zip(lmap.shifts, lmap.shifts[1:]))
        assert len(lmap.a) == p - 1
        for r in range(1, p):
            assert lmap.a[r - 1] == pytest.approx(lmap.a[p - r - 1], abs=1e-10)

    @given(p=st.integers(1, 8), m=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_period_contraction(self, p, m):
        lmap = landen_map(p, m)
        assert complete_K(lmap.m_tilde) * p * lmap.gamma == pytest.approx(
            complete_K(m), rel=1e-12)


class TestIdentityUnderScipy:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("m", [0.2, 0.7])
    def test_dn_sum_identity(self, p, m):
        lmap = landen_map(p, m)
        x = np.linspace(0.0, 2.0 * complete_K(lmap.m_tilde), 201)
        lhs = scipy_dn(x, lmap.m_tilde)
        rhs = lmap.gamma * sum(
            scipy_dn(lmap.gamma * x + s, m) for s in lmap.shifts)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("p", [2, 4])
    def test_cyclic_constants_on_real_grid(self, p):
        m = 0.6
        lmap = landen_map(p, m)
        x = np.linspace(-3.0, 3.0, 401)
        d = np.stack([scipy_dn(x + s, m) for s in lmap.shifts])
        for r in range(1, p):
            values = np.sum(d * np.roll(d, -r, axis=0), axis=0)
            assert np.std(values) < 1e-10
            assert np.mean(values) == pytest.approx(lmap.a[r - 1], abs=1e-10)

    def test_cyclic_sums_rows_hold_the_constants(self):
        lmap = landen_map(5, 0.7)
        probes = np.linspace(-3.0, 3.0, 7)
        lattice = landen_module._dn_on_lattice(probes, lmap.shifts, 0.7)
        sums = landen_module.cyclic_sums(lattice)
        assert sums.shape == (4, 7)
        assert np.max(np.abs(sums - np.asarray(lmap.a)[:, None])) < 1e-12
        lattice = landen_module._dn_on_lattice(probes, (0.0,), 0.7)
        assert landen_module.cyclic_sums(lattice).shape == (0, 7)


class TestConstancyRefusal:
    """_cyclic_constants refuses a lattice whose cyclic sums drift with x."""

    P, M = 6, 0.4

    def lattice(self, row, size):
        shifts = landen_map(self.P, self.M).shifts
        d = landen_module._dn_on_lattice(landen_module._PROBES, shifts, self.M)
        d[row] += size * np.sin(3.0 * landen_module._PROBES)
        return d

    @pytest.mark.parametrize("row", [0, 4])
    def test_drifting_row_is_refused(self, row):
        # a perturbed dn row enters every pairing, so r = 1 fails first
        with pytest.raises(ConsistencyError, match=r"a_6\(1\) varies with x at m=0\.4"):
            landen_module._cyclic_constants(self.P, self.M, self.lattice(row, 1e-6))

    def test_rounding_sized_drift_passes(self):
        a = landen_module._cyclic_constants(self.P, self.M, self.lattice(2, 1e-13))
        assert np.allclose(a, landen_map(self.P, self.M).a, rtol=0.0, atol=1e-12)

    def test_refusal_names_the_first_drifting_r(self, monkeypatch):
        original = landen_module.cyclic_sums

        def drifting(d):
            sums = original(d)
            sums[[2, 4]] += 1e-6 * np.cos(landen_module._PROBES)
            return sums

        monkeypatch.setattr(landen_module, "cyclic_sums", drifting)
        with pytest.raises(ConsistencyError, match=r"a_6\(3\) varies"):
            landen_module._cyclic_constants(self.P, self.M, self.lattice(0, 0.0))


class TestRhsHelpers:
    @pytest.mark.parametrize("p,m", [(1, 0.5), (2, 0.5), (3, 0.8), (6, 0.3)])
    def test_dn_rhs_matches_target_modulus(self, p, m):
        lmap = landen_map(p, m)
        x = np.linspace(-5.0, 5.0, 301)
        target = jacobi_sn_cn_dn(x, lmap.m_tilde)[2]
        assert np.max(np.abs(dn_landen_rhs(x, lmap) - target)) < 1e-10

    @pytest.mark.parametrize("p,m", [(1, 0.5), (2, 0.5), (4, 0.7)])
    def test_dn2_rhs_matches_squared_target(self, p, m):
        lmap = landen_map(p, m)
        x = np.linspace(-5.0, 5.0, 301)
        target = jacobi_sn_cn_dn(x, lmap.m_tilde)[2] ** 2
        assert np.max(np.abs(dn2_landen_rhs(x, lmap) - target)) < 1e-10


class TestOffsetConstant:
    def test_one_term_offset_vanishes(self):
        assert A_constant(1, 0.37) == 0.0

    @pytest.mark.parametrize("p,m", [(2, 0.5), (3, 0.7), (5, 0.9)])
    def test_lattice_and_nome_A_agree(self, p, m):
        assert oracle_gap(p, m) < 1e-8

    @given(p=st.integers(2, 16), m=st.floats(1e-6, 0.999))
    @settings(max_examples=40, deadline=None)
    def test_lattice_and_nome_A_agree_sweep(self, p, m):
        assert oracle_gap(p, m) < 1e-10

    @pytest.mark.parametrize("p,m", [(5, 1e-17), (8, 5e-324)])
    def test_nome_oracle_survives_vanishing_m(self, p, m):
        # 1 - m rounds to 1 here, so K(1 - m) must not be taken through it
        assert oracle_gap(p, m) < 1e-13

    @pytest.mark.parametrize("p,m", [(5, 0.3), (8, 0.3), (8, 0.7), (8, 0.9)])
    def test_corrupted_lattice_raises_on_flat_superpositions(self, p, m, monkeypatch):
        # the superposed profile here oscillates by under 1e-5 of its mean, so
        # a cross-check that reads A off the profile would have nothing to see
        original = landen_module._cyclic_constants

        def corrupted(*args):
            a = original(*args)
            return (a[0] + 1e-6,) + a[1:]

        landen_map.cache_clear()
        monkeypatch.setattr(landen_module, "_cyclic_constants", corrupted)
        try:
            with pytest.raises(ConsistencyError):
                landen_map(p, m)
        finally:
            landen_map.cache_clear()

    @pytest.mark.parametrize("column, match", [
        (0, r"gamma\(6, 0\.4\) from the nome misses the lattice by nan"),
        (3, r"a_6\(1\) varies with x at m=0\.4: std nan"),
    ], ids=["witness-column", "probe-column"])
    def test_nan_in_the_lattice_raises(self, column, match, monkeypatch):
        # every gate compares as not (value <= tol), so a NaN fails it
        original = landen_module._dn_on_lattice

        def with_nan(*args):
            d = original(*args)
            d[2, column] = np.nan
            return d

        landen_map.cache_clear()
        monkeypatch.setattr(landen_module, "_dn_on_lattice", with_nan)
        try:
            with pytest.raises(ConsistencyError, match=match):
                landen_map(6, 0.4)
        finally:
            landen_map.cache_clear()

    def test_disagreeing_oracles_raise(self, monkeypatch):
        original = landen_module._nome
        landen_map.cache_clear()
        monkeypatch.setattr(landen_module, "_nome",
                            lambda p, m: original(p, m)[:3] + (123.0,))
        with pytest.raises(ConsistencyError):
            landen_map(3, 0.31)
        landen_map.cache_clear()


class TestNomeFirstMap:
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7, 8, 13, 16, 32])
    def test_m_tilde_matches_mpmath(self, p):
        # m~ spans 5.7e-17 at (8, 0.1) and 1.6e-294 at (32, 1e-8); a lattice
        # formula that cancels to ~gamma^2 ulps gets the small ones wrong
        ms = (1e-8, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99,
              1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12)
        with mpmath.workdps(40):
            for m in ms:
                q_tilde = mpmath.qfrom(m=mpmath.mpf(m)) ** p
                expected = (mpmath.jtheta(2, 0, q_tilde) / mpmath.jtheta(3, 0, q_tilde)) ** 4
                got = landen_map(p, m).m_tilde
                assert abs(got / expected - 1) <= 1e-12, (p, m, got, float(expected))


class TestNomeMutations:
    """Corrupt one output of the nome at (3, 0.5) and see which check fails."""

    @pytest.fixture
    def corrupt_nome(self, monkeypatch):
        original = landen_module._nome

        def corrupt(index, factor):
            def corrupted(p, m):
                out = list(original(p, m))
                out[index] *= factor
                return tuple(out)
            monkeypatch.setattr(landen_module, "_nome", corrupted)

        landen_map.cache_clear()
        yield corrupt
        landen_map.cache_clear()

    @pytest.mark.parametrize("factor", [1.0 + 1e-9, 1.0 - 1e-9])
    def test_gamma_error_fails_the_witness(self, corrupt_nome, factor):
        # both A determinations take the nome's gamma, so only the
        # lattice witness at x = 0 can see a gamma error
        corrupt_nome(1, factor)
        with pytest.raises(ConsistencyError, match=r"gamma\(3, 0\.5\)"):
            landen_map(3, 0.5)

    def test_m_tilde_error_fails_the_dn_identity(self, corrupt_nome):
        assert _dn_identity_metric(3, 0.5) < 1e-14
        landen_map.cache_clear()
        corrupt_nome(2, 1.0 + 1e-6)
        assert _dn_identity_metric(3, 0.5) > 1e-10


class TestTransformParams:
    def test_alpha_rescale(self):
        lmap = landen_map(2, 0.5)
        out = transform_params(1.0, 0.0, lmap)
        assert isinstance(out, DnWaveParams)
        assert out.p == 1
        assert out.alpha == pytest.approx(1.0 + math.sqrt(0.5), rel=1e-13)
        assert out.m == lmap.m_tilde

    def test_one_term_velocity_and_offset(self):
        lmap = landen_map(1, 0.4)
        out = transform_params(1.3, -0.2, lmap)
        assert out.velocity == pytest.approx((8 - 4 * 0.4 - 6 * -0.2) * 1.3**2, rel=1e-13)
        assert out.beta == pytest.approx(-0.2, rel=1e-13)
        # the single wave's own p = 1 speed is the superposition's b_p * alpha^2
        for p in (1, 2, 3, 5, 8):
            single = transform_params(1.3, -0.2, landen_map(p, 0.4))
            assert single.velocity == pytest.approx(
                DnWaveParams(alpha=1.3, beta=-0.2, m=0.4, p=p).velocity, rel=1e-12)

    def test_two_term_offset_shift(self):
        lmap = landen_map(2, 0.5)
        out = transform_params(1.0, 0.0, lmap)
        g = lmap.gamma
        assert out.beta == pytest.approx(2.0 * g * g * math.sqrt(2.0), rel=1e-12)

    def test_rejects_nonpositive_alpha(self):
        lmap = landen_map(2, 0.5)
        with pytest.raises(DomainError):
            transform_params(0.0, 0.0, lmap)


class TestValidationAndCache:
    @pytest.mark.parametrize("p,m", [(0, 0.5), (-1, 0.5), (2, 0.0), (2, 1.0), (2, 1.3),
                                     (1, 1.3), (1, -0.1)])
    def test_rejects_bad_inputs(self, p, m):
        with pytest.raises(DomainError):
            landen_map(p, m)

    def test_map_is_cached(self):
        assert landen_map(2, 0.5) is landen_map(2, 0.5)

    def test_refusal_does_not_depend_on_call_history(self):
        # (2.0, 0.5) == (2, 0.5) and (True, m) == (1, m) as untyped cache
        # keys; warm or cold, p refuses them
        landen_map.cache_clear()
        landen_map(2, 0.5)
        landen_map(1, 0.3)
        with pytest.raises(DomainError, match="p must be an integer"):
            landen_map(2.0, 0.5)
        with pytest.raises(DomainError, match="p must be an integer"):
            DnWaveParams(alpha=1.0, beta=0.0, m=0.5, p=2.0)
        with pytest.raises(DomainError, match="p must be an integer"):
            landen_map(True, 0.3)

    def test_map_is_frozen(self):
        lmap = landen_map(2, 0.5)
        with pytest.raises(AttributeError):
            lmap.gamma = 0.0
        assert isinstance(lmap, LandenMap)
