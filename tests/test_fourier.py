"""Fourier layer tests.

numpy.fft appears here and only here, as the reference transform for the
in-repo four-step implementation.  Everything downstream of this file trusts
landen_kdv.fourier.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landen_kdv import (
    DomainError,
    PeriodicGrid,
    fft,
    ifft,
    spectral_derivative,
)
from landen_kdv.fourier import (
    _four_step,
    _plan,
    drop_noise_floor,
    fit_traveling_velocity,
    high_mode_energy_fraction,
    kept_modes,
    signed_modes,
    wavenumbers,
)


def floored_spectrum(values):
    """The spectrum high_mode_energy_fraction reads: transformed, then floored."""
    return drop_noise_floor(fft(values))


class TestTransformAgainstNumpy:
    @pytest.mark.parametrize("n", [2, 8, 64, 256, 1024, 4096, 8192])
    def test_forward_matches(self, n):
        # angles reduced mod n before exp: measured 6e-16 and 9e-16 of
        # max|ref| at n = 4096 and 8192; without the reduction, 2.0e-14
        # and 3.0e-14
        rng = np.random.default_rng(n)
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ours = fft(a)
        ref = np.fft.fft(a)
        assert np.max(np.abs(ours - ref)) < 5e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [2, 4, 128, 512, 8192])
    def test_inverse_matches(self, n):
        rng = np.random.default_rng(n + 1)
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.max(np.abs(ifft(a) - np.fft.ifft(a))) < 1e-13

    @pytest.mark.parametrize("n", [2, 64, 256, 8192])
    @pytest.mark.parametrize("hermitian", [False, True])
    def test_inverse_is_the_conjugated_forward_exactly(self, n, hermitian):
        # the conjugated plan reproduces conj(fft(conj(a))) / n exactly; an
        # exact zero may change sign, so the imaginary parts compare by value
        # and the real parts, which every caller keeps, bit for bit
        rng = np.random.default_rng(n + 2)
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if hermitian:
            a = fft(a.real)
        ours = ifft(a)
        ref = np.conj(fft(np.conj(a))) / n
        assert np.array_equal(ours, ref)
        assert np.array_equal(ours.real.view(np.uint64), ref.real.view(np.uint64))

    @pytest.mark.parametrize("n", [1 << e for e in range(6, 14)])
    def test_plan_from_one_table_is_the_per_entry_formula(self, n):
        # read from one table of n roots, every plan entry is the root of its
        # own reduced angle, exp(-2 pi i (j k mod size) / size), bit for bit
        def roots(rows, cols, size):
            jk = np.outer(np.arange(rows), np.arange(cols)) % size
            return np.exp(-2j * np.pi * jk / size)

        n1 = 1 << ((n.bit_length() - 1) // 2)
        n2 = n // n1
        left, twiddle, right = roots(n1, n1, n1), roots(n1, n2, n), roots(n2, n2, n2)
        expected = ((left, twiddle, right),
                    (np.conj(left), np.conj(twiddle) / n, np.conj(right)))
        for plan, ref in zip(_plan(n), expected):
            for ours, theirs in zip(plan, ref):
                assert ours.shape == theirs.shape
                assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))

    @pytest.mark.parametrize("n", [256, 512])
    def test_square_plan_shares_its_dft_matrix(self, n):
        # n1 == n2 at n = 256: one matrix serves as left and right, and the
        # inverse plan conjugates it once
        square = n == 256
        for left, _, right in _plan(n):
            assert (right is left) == square

    @pytest.mark.parametrize("n", [1 << e for e in range(6, 14)])
    def test_plan_dft_matrices_are_symmetric(self, n):
        # what lets _four_step take right @ cols.T for (cols @ right).T
        for left, _, right in _plan(n):
            for dft in (left, right):
                transpose = np.ascontiguousarray(dft.T)
                assert np.array_equal(dft.view(np.uint64), transpose.view(np.uint64))

    @pytest.mark.parametrize("n", [1 << e for e in range(6, 14)])
    def test_four_step_equals_the_transposed_product(self, n):
        # the product written in natural order is the old transposed one,
        # bit for bit.  At n = 4 and 8 (two-row products) BLAS picks another
        # kernel and the last bit can differ, at the same accuracy.
        rng = np.random.default_rng(n + 3)
        for plan in _plan(n):
            left, twiddle, right = plan
            for _ in range(20):
                for a in (rng.standard_normal(n),
                          rng.standard_normal(n) + 1j * rng.standard_normal(n)):
                    cols = left @ a.reshape(left.shape[0], -1) * twiddle
                    transposed = (cols @ right).T.ravel()
                    ours = _four_step(a, plan)
                    assert np.array_equal(ours.view(np.uint64),
                                          transposed.view(np.uint64))

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(256)
        assert np.max(np.abs(ifft(fft(a)) - a)) < 1e-13

    def test_parseval(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        lhs = np.sum(np.abs(a) ** 2)
        rhs = np.sum(np.abs(fft(a)) ** 2) / 128
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_linearity(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal(64)
        b = rng.standard_normal(64)
        combined = fft(2.0 * a - 0.5j * b)
        assert np.max(np.abs(combined - (2.0 * fft(a) - 0.5j * fft(b)))) < 1e-12

    def test_delta_impulse(self):
        a = np.zeros(16)
        a[0] = 1.0
        assert np.max(np.abs(fft(a) - 1.0)) < 1e-15

    @pytest.mark.parametrize("n", [0, 3, 6, 100])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(DomainError):
            fft(np.zeros(n))

    def test_rejects_2d(self):
        with pytest.raises(DomainError):
            fft(np.zeros((4, 4)))


class TestModeBookkeeping:
    def test_signed_modes_order(self):
        assert list(signed_modes(8)) == [0, 1, 2, 3, -4, -3, -2, -1]

    def test_wavenumbers_scale(self):
        k = wavenumbers(8, 2 * np.pi)
        assert np.allclose(k, signed_modes(8).astype(float))
        assert np.allclose(wavenumbers(8, np.pi), 2.0 * k)

    def test_drop_noise_floor(self):
        u_hat = np.array([1.0, 1e-20, 0.5, 1e-15], dtype=complex)
        cleaned = drop_noise_floor(u_hat)
        assert cleaned[1] == 0.0 and cleaned[3] == 0.0
        assert cleaned[0] == 1.0 and cleaned[2] == 0.5

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_kept_modes_is_the_two_thirds_band(self, n):
        j = signed_modes(n)
        kept = kept_modes(n)
        assert np.array_equal(kept, np.abs(j) < n // 3)
        # at n = 256 the largest kept index is 84, under the bound 85.3
        assert np.max(np.abs(j[kept])) == n // 3 - 1
        # a product of two kept modes folds back only onto discarded ones
        pairs = j[kept][:, None] + j[kept][None, :]
        landed = pairs % n
        assert not np.any(kept[landed[pairs != j[landed]]])

    def test_high_mode_fraction_smooth_field(self):
        x = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        assert high_mode_energy_fraction(floored_spectrum(np.cos(x))) < 1e-28

    def test_high_mode_fraction_ignores_mean(self):
        x = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        steep = np.cos(25 * x) + np.cos(x)
        assert high_mode_energy_fraction(floored_spectrum(7.0 + steep)) == pytest.approx(
            high_mode_energy_fraction(floored_spectrum(steep)), rel=1e-12)

    def test_high_mode_fraction_flags_steep_field(self):
        x = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        assert high_mode_energy_fraction(floored_spectrum(np.cos(25 * x))) > 0.9

    def test_high_mode_fraction_ignores_roundoff_debris(self):
        # debris under the drop floor is not high-mode content, whatever the
        # spectrum of its last bits
        x = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        field = 7.0 + np.cos(x) + 1e-15 * np.cos(25 * x)
        assert high_mode_energy_fraction(floored_spectrum(field)) == 0.0


class TestSpectralDerivative:
    def test_first_derivative_of_sine(self):
        n, length = 128, 2 * np.pi
        x = np.linspace(0, length, n, endpoint=False)
        du = spectral_derivative(np.sin(3 * x), length, 1)
        assert np.max(np.abs(du - 3 * np.cos(3 * x))) < 1e-12

    def test_third_derivative(self):
        n, length = 256, 4.0
        x = np.linspace(0, length, n, endpoint=False)
        kx = 2 * np.pi * 2 / length
        u = np.cos(kx * x)
        d3 = spectral_derivative(u, length, 3)
        assert np.max(np.abs(d3 - kx**3 * np.sin(kx * x))) < 1e-10

    def test_constant_field_has_zero_derivative(self):
        du = spectral_derivative(np.full(64, 4.2), 1.0, 1)
        assert np.max(np.abs(du)) == 0.0

    def test_noise_floor_suppresses_roundoff_growth(self):
        # without thresholding, k^3 amplifies the ~1e-16 rubble under an
        # analytic spectrum by ~N^3
        length = 2 * np.pi
        x = np.linspace(0, length, 512, endpoint=False)
        u = np.exp(np.sin(x))
        exact = (np.cos(x) ** 3 - 3 * np.cos(x) * np.sin(x) - np.cos(x)) * u
        d3 = spectral_derivative(u, length, 3)
        assert np.max(np.abs(d3 - exact)) < 1e-9

    def test_odd_order_zeroes_nyquist(self):
        n = 64
        x = np.linspace(0, 2 * np.pi, n, endpoint=False)
        u = np.cos((n // 2) * x)
        assert np.max(np.abs(spectral_derivative(u, 2 * np.pi, 1))) < 1e-10

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_validation(self, order):
        with pytest.raises(DomainError):
            spectral_derivative(np.zeros(64), 1.0, order)


class TestPeriodicGrid:
    def test_basic_geometry(self):
        grid = PeriodicGrid(N=128, L=4.0)
        assert grid.spacing == pytest.approx(4.0 / 128)
        assert grid.x[0] == 0.0
        assert grid.x[-1] == pytest.approx(4.0 - grid.spacing)
        assert grid.k[1] == pytest.approx(2 * np.pi / 4.0)

    @pytest.mark.parametrize("n", [32, 100, 0])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(DomainError):
            PeriodicGrid(N=n, L=1.0)

    @pytest.mark.parametrize("n", [64.0, "64", True, None])
    def test_rejects_non_integral_sizes(self, n):
        with pytest.raises(DomainError, match="must be an integer"):
            PeriodicGrid(N=n, L=1.0)

    def test_accepts_numpy_integer_size(self):
        assert PeriodicGrid(N=np.int64(64), L=1.0).x.size == 64

    def test_rejects_bad_length(self):
        # True is not a length of 1, and "1" is refused like 0.0, not with
        # math's TypeError; a numpy float is a length
        for L in (0.0, True, np.True_, "1", 1j, None):
            with pytest.raises(DomainError, match="grid length must be positive"):
                PeriodicGrid(N=64, L=L)
        assert PeriodicGrid(N=64, L=np.float64(2.0)).spacing == 2.0 / 64


class TestVelocityFit:
    def test_recovers_advection_speed_of_trig_wave(self):
        # for u = a + b cos(kx), u_xxx - 6 u u_x - V u_x = 0 has the exact
        # solution V = -k^2 - 6a + (3b cos term mismatch) ... only the
        # single-harmonic linearized case is exact: b small makes the fit
        # approach -k^2 - 6a
        length = 2 * np.pi
        x = np.linspace(0, length, 256, endpoint=False)
        u = 0.5 + 1e-6 * np.cos(x)
        v = fit_traveling_velocity(u, length)
        assert v == pytest.approx(-1.0 - 3.0, abs=1e-5)

    def test_galilean_shift(self):
        # the least-squares formula is exactly Galilean: adding a constant c
        # shifts the fitted speed by -6c
        length = 2 * np.pi
        x = np.linspace(0, length, 256, endpoint=False)
        u = np.cos(x) + 0.3 * np.sin(2 * x)
        v0 = fit_traveling_velocity(u, length)
        v1 = fit_traveling_velocity(u + 2.5, length)
        assert v1 == pytest.approx(v0 - 6 * 2.5, abs=1e-9)

    def test_rejects_constant_field(self):
        with pytest.raises(DomainError):
            fit_traveling_velocity(np.full(128, 3.0), 1.0)

    @given(shift=st.floats(-10.0, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_mean_invariance_of_oscillation_handling(self, shift):
        length = 2 * np.pi
        x = np.linspace(0, length, 128, endpoint=False)
        u = np.cos(x)
        v0 = fit_traveling_velocity(u, length)
        v1 = fit_traveling_velocity(u + shift, length)
        assert v1 - (v0 - 6 * shift) == pytest.approx(0.0, abs=1e-8)
