"""Fourier layer tests.

numpy.fft is the reference transform for the in-repo four-step
implementation here; test_evolve.py borrows its inverse once, to rebuild the
oscillation independently of the real pair.  Everything else downstream of
this file trusts landen_kdv.fourier.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import landen_kdv.fourier as fourier_module

from landen_kdv import (
    DnWaveParams,
    DomainError,
    EvolverConfig,
    PeriodicGrid,
    TravelingProfile,
    evolve_trajectory,
    fft,
    kdv_residual,
    spectral_derivative,
    translation_lag,
)
from landen_kdv.fourier import (
    DROP_FLOOR,
    _half_layout,
    _half_modes,
    _irfft,
    _plan,
    _rfft,
    drop_noise_floor,
    fit_traveling_velocity,
    high_mode_energy_fraction,
    kept_modes,
    wavenumbers,
)


def floored_spectrum(values):
    """The half spectrum high_mode_energy_fraction reads: transformed, then floored."""
    return drop_noise_floor(_rfft(values))


def per_entry_plans(n):
    """The real plans of size n, each entry exp(-2 pi i (j k mod s) / s) on its own."""
    def roots(rows, cols, size):
        jk = np.outer(np.arange(rows), np.arange(cols)) % size
        return np.exp(-2j * np.pi * jk / size)

    n1 = 1 << ((n.bit_length() - 1) // 2)
    n2 = n // n1
    rows = n2 // 2 + 1
    left, twiddle, right = roots(n1, n1, n1), roots(n2, n1, n), roots(n2, n2, n2)
    weights = np.append(np.full(rows - 1, 2.0), 1.0)
    return ((left.view(float), twiddle, right[:rows]),
            (np.conj(right)[:, :rows] * weights, np.conj(twiddle) / n,
             left.view(float)))


def assert_plan_bits(plan, ref):
    """Each matrix of plan is C-contiguous and has ref's shape and bits."""
    for ours, theirs in zip(plan, ref, strict=True):
        theirs = np.ascontiguousarray(theirs)
        assert ours.shape == theirs.shape and ours.flags.c_contiguous
        assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))


class TestTransformAgainstNumpy:
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 256, 1024, 4096, 8192])
    def test_forward_matches(self, n):
        # angles reduced mod n before exp: over n = 1..8192 the real forward's
        # Hermitian extension measured at most 9.0e-16 of max|ref| on real
        # input and 7.5e-16 on complex input; without the reduction the
        # error at n = 4096 and 8192 is about 30x larger
        rng = np.random.default_rng(n)
        for a in (rng.standard_normal(n),
                  rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            ours = fft(a)
            ref = np.fft.fft(a)
            assert ours.shape == (n,)
            assert np.max(np.abs(ours - ref)) < 5e-15 * np.max(np.abs(ref))

    def test_complex_input_calls_fft_once(self, monkeypatch):
        # a complex array goes through fft's private route as its real and
        # imaginary fields, never back through the public name, so a wrapper
        # on fourier.fft, as the benchmark's tracer installs, counts one call
        count = [0]
        original = fourier_module.fft

        def counted(a):
            count[0] += 1
            return original(a)

        monkeypatch.setattr(fourier_module, "fft", counted)
        rng = np.random.default_rng(11)
        fourier_module.fft(rng.standard_normal(256) + 1j * rng.standard_normal(256))
        assert count[0] == 1

    @pytest.mark.parametrize("n", [2, 4, 128, 512, 8192])
    def test_inverse_matches(self, n):
        # the package's one inverse, the real one, against numpy's complex
        # inverse of the Hermitian spectrum that the half spectrum stands for
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal(n)
        x -= np.mean(x)
        half, full = np.fft.rfft(x), np.fft.fft(x)
        half[0] = full[0] = 0.0
        ours = _irfft(half)
        ref = np.fft.ifft(full)
        assert np.max(np.abs(ref.imag)) < 1e-15
        assert np.max(np.abs(ours - ref.real)) < 5e-15 * np.max(np.abs(ref.real))

    @pytest.mark.parametrize("n", [256, 512])
    def test_square_plan_shares_its_dft_matrix(self, n):
        # n1 == n2 at n = 256: one matrix serves as left and right
        forward_left, _, forward_right = _plan(n)[0]
        assert np.shares_memory(forward_left, forward_right) == (n == 256)

    @pytest.mark.parametrize("n", [1 << e for e in range(6, 14)])
    def test_plan_from_one_table_is_the_per_entry_formula(self, n):
        # read from one table of n roots, every forward entry is the root of
        # its own reduced angle, exp(-2 pi i (j k mod size) / size), bit for
        # bit: left as floats, the twiddles in (j2, k1) order and the first
        # n2/2 + 1 rows of right
        assert_plan_bits(_plan(n)[0], per_entry_plans(n)[0])

    @pytest.mark.parametrize("n", [1 << e for e in range(6, 14)])
    def test_plan_dft_matrices_are_symmetric(self, n):
        # the inverse reads the columns of conj(right) where the forward
        # reads its rows, and left is used both ways: both DFT matrices must
        # equal their transposes, bit for bit
        (forward_left, _, forward_right), (inverse_right, _, _) = _plan(n)
        left = forward_left.view(complex)
        assert np.array_equal(left.view(np.uint64), left.T.copy().view(np.uint64))
        rows = forward_right.shape[0]
        square = forward_right[:, :rows]
        assert np.array_equal(square.view(np.uint64), square.T.copy().view(np.uint64))
        weights = np.append(np.full(rows - 1, 2.0), 1.0)
        columns = np.ascontiguousarray(np.conj(forward_right).T * weights)
        assert np.array_equal(inverse_right.view(np.uint64), columns.view(np.uint64))

    @pytest.mark.parametrize("n", [1 << e for e in range(6, 14)])
    def test_real_plans_are_the_per_entry_formula(self, n):
        # both real plans, bit for bit: the forward as above; the inverse the
        # first n2/2 + 1 columns of conj(right) with the weights 2 (1 at
        # Nyquist) folded in, the conjugated twiddles / n and left as floats
        for plan, ref in zip(_plan(n), per_entry_plans(n), strict=True):
            assert_plan_bits(plan, ref)
        # one left matrix serves the forward's first product and the
        # inverse's last
        assert _plan(n)[0][0] is _plan(n)[1][2]

    @pytest.mark.parametrize("n", [2, 4, 8, 64, 128, 256, 512, 1024, 2048, 4096])
    def test_real_forward_matches(self, n):
        # the half spectrum is rfft's, to the forward's accuracy
        rng = np.random.default_rng(n + 4)
        x = rng.standard_normal(n)
        ours = _rfft(x)
        ref = np.fft.rfft(x)
        assert ours.shape == ref.shape
        assert np.max(np.abs(ours - ref)) < 5e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [2, 4, 8, 64, 128, 256, 512, 1024, 2048, 4096])
    def test_real_inverse_matches(self, n):
        # the inverse of a half spectrum with a zero mean entry is irfft's;
        # the Nyquist entry's imaginary part is dropped, as irfft drops it
        rng = np.random.default_rng(n + 5)
        x_hat = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
        x_hat[0] = 0.0
        before = x_hat.copy()
        ours = _irfft(x_hat)
        assert ours.dtype == float and ours.shape == (n,)
        ref = np.fft.irfft(x_hat, n)
        assert np.max(np.abs(ours - ref)) < 5e-15 * np.max(np.abs(ref))
        assert np.array_equal(x_hat, before)

    @pytest.mark.parametrize("n", [64, 256, 512, 4096])
    def test_real_round_trip_of_a_zero_mean_field(self, n):
        rng = np.random.default_rng(n + 6)
        x = rng.standard_normal(n)
        x -= np.mean(x)
        x_hat = _rfft(x)
        x_hat[0] = 0.0
        assert np.max(np.abs(_irfft(x_hat) - x)) < 5e-15 * np.max(np.abs(x))

    @pytest.mark.parametrize("n", [1 << e for e in range(14)])
    def test_half_modes(self, n):
        # rfft's n/2 + 1 modes: 0..n/2 - 1 in order, then Nyquist as -n/2;
        # _rfft returns that many entries and _irfft reads back that many
        modes = _half_modes(n)
        assert modes.size == n // 2 + 1
        assert np.array_equal(modes[:n // 2], np.arange(n // 2))
        assert modes[-1] == -(n // 2)
        assert _half_layout(modes)[0] == n
        assert _rfft(np.ones(n)).size == modes.size
        assert _irfft(np.zeros(modes.size, dtype=complex)).shape == (n,)

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(256)
        assert np.max(np.abs(np.fft.ifft(fft(a)) - a)) < 1e-13

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
        # the half layout at n = 8: modes 0..3, then Nyquist as -4
        assert list(_half_modes(8)) == [0, 1, 2, 3, -4]

    def test_wavenumbers_scale(self):
        k = wavenumbers(8, 2 * np.pi)
        assert np.allclose(k, _half_modes(8).astype(float))
        assert np.allclose(wavenumbers(8, np.pi), 2.0 * k)
        assert np.array_equal(PeriodicGrid(N=64, L=np.pi).k, wavenumbers(64, np.pi))

    @pytest.mark.parametrize("n", [0, 3, 6, 100])
    def test_mode_tables_refuse_non_power_of_two(self, n):
        for table in (_half_modes, kept_modes, lambda n: wavenumbers(n, 1.0)):
            with pytest.raises(DomainError, match="power of two"):
                table(n)
        with pytest.raises(DomainError, match="power of two"):
            spectral_derivative(np.ones(n), 1.0)

    @pytest.mark.parametrize("size", [0, 4, 6])
    def test_half_spectrum_readers_refuse_a_malformed_size(self, size):
        # a half spectrum has n/2 + 1 entries: 4 and 6 would be fields of
        # 6 and 10 samples
        u_hat = np.ones(size, dtype=complex)
        for reader in (drop_noise_floor, high_mode_energy_fraction, _irfft):
            with pytest.raises(DomainError, match="power of two"):
                reader(u_hat)

    def test_drop_noise_floor(self):
        # the half spectrum of n = 4: mean, mode 1 and Nyquist
        u_hat = np.array([1.0, 1e-20, 0.5], dtype=complex)
        cleaned = drop_noise_floor(u_hat)
        assert cleaned[1] == 0.0
        assert cleaned[0] == 1.0 and cleaned[2] == 0.5

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_kept_modes_is_the_two_thirds_band(self, n):
        j = _half_modes(n)
        kept = kept_modes(n)
        assert np.array_equal(kept, np.abs(j) < n // 3)
        # at n = 256 the largest kept index is 84, under the bound 85.3
        assert np.max(np.abs(j[kept])) == n // 3 - 1
        # a product of two kept modes, either sign, folds back only onto
        # discarded ones: a sum past the signed range lands n away
        band = np.unique(np.concatenate((j[kept], -j[kept])))
        pairs = band[:, None] + band[None, :]
        landed = (pairs + n // 2) % n - n // 2
        assert not np.any(np.abs(landed[landed != pairs]) < n // 3)

    @pytest.mark.parametrize("n", [2, 4, 8, 64, 256, 1024, 4096])
    def test_weighted_half_norm_is_the_full_norm(self, n):
        # by Parseval the weights rebuild the full spectrum's norm, Nyquist
        # content included, so the drop floor keeps its calibration
        rng = np.random.default_rng(n + 7)
        x = 3.0 + rng.standard_normal(n) + np.cos(np.pi * np.arange(n))
        x_hat = _rfft(x)
        size, weights = _half_layout(x_hat)
        ref = np.linalg.norm(np.fft.fft(x))
        assert size == n
        assert np.sqrt(weights @ np.abs(x_hat) ** 2) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("p, m, alpha, beta", [
        (1, 0.5, 1.0, 0.0), (3, 0.6, 1.0, -1.0), (13, 0.5, 1.0, 0.0)],
        ids=["criterion-7-single", "criterion-7-three-copy", "flat-13"])
    def test_floor_zeroes_the_modes_numpy_puts_under_it(self, p, m, alpha, beta):
        # the same level, DROP_FLOOR eps ||fft(u)|| / sqrt(n), read on
        # numpy's full spectrum: the same modes of rfft's fall under it
        params = DnWaveParams(alpha=alpha, beta=beta, m=m, p=p)
        grid = params.natural_grid(n=256)
        u = params.sample(grid, 0.0)
        n = grid.N
        ours = floored_spectrum(u)
        level = DROP_FLOOR * np.finfo(float).eps * np.linalg.norm(np.fft.fft(u)) / np.sqrt(n)
        assert np.array_equal(ours == 0.0, np.abs(np.fft.rfft(u)) < level)

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

    @staticmethod
    def _steep_spectrum():
        # top-third content, and debris the floor drops at scale 1
        x = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        u_hat = _rfft(np.cos(x) + 1e-3 * np.cos(30 * x))
        assert np.any((drop_noise_floor(u_hat) == 0.0) & (u_hat != 0.0))
        return u_hat

    # 2^530 |u_hat| squares past the float range and 2^-560 |u_hat| under it
    @pytest.mark.parametrize("k", [530, -560])
    def test_drop_noise_floor_scales_with_the_field(self, k):
        u_hat = self._steep_spectrum()
        assert np.array_equal(drop_noise_floor(2.0**k * u_hat), 2.0**k * drop_noise_floor(u_hat))

    @pytest.mark.parametrize("k", [530, -560])
    def test_high_mode_fraction_is_scale_free(self, k):
        u_hat = drop_noise_floor(self._steep_spectrum())
        assert high_mode_energy_fraction(2.0**k * u_hat) == high_mode_energy_fraction(u_hat)


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
        # one sample is a constant field too: its half spectrum has one entry
        for order in (1, 2):
            assert np.array_equal(spectral_derivative(np.array([4.2]), 1.0, order), [0.0])

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

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("nyquist", [0.0, 0.25])
    def test_real_pair_derivatives_match_numpy(self, n, order, nyquist):
        # numpy's real pair on a spectrum floored at the same level; its
        # irfft ignores the Nyquist entry's imaginary part, which an odd
        # order makes the whole entry.  Measured: at most 3.2e-13 of
        # max|reference|
        length = 3.0
        x = length * np.arange(n) / n
        u = 0.3 + np.exp(np.sin(2 * np.pi * x / length)) + nyquist * np.cos(np.pi * np.arange(n))
        full = np.fft.fft(u)
        level = DROP_FLOOR * np.finfo(float).eps * np.linalg.norm(full) / np.sqrt(n)
        u_hat = np.fft.rfft(u)
        u_hat[np.abs(u_hat) < level] = 0.0
        assert (u_hat[-1] != 0.0) == (nyquist != 0.0)
        k = 2 * np.pi / length * np.arange(n // 2 + 1)
        ref = np.fft.irfft((1j * k) ** order * u_hat, n)
        ours = spectral_derivative(u, length, order)
        assert np.max(np.abs(ours - ref)) < 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("order", [0, -1, 2.5, 1.0, True, np.True_, "1", None])
    def test_order_validation(self, order):
        # 2.5 gave a fractional power of ik and True acted as 1
        with pytest.raises(DomainError, match="order must be an integer >= 1"):
            spectral_derivative(np.zeros(64), 1.0, order)

    def test_numpy_integer_order_is_an_order(self):
        x = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        assert np.array_equal(spectral_derivative(np.sin(x), 2 * np.pi, np.int64(3)),
                              spectral_derivative(np.sin(x), 2 * np.pi, 3))

    @pytest.mark.parametrize("length", [0.0, -1.0, np.nan, np.inf, True, "1", 1j, None])
    def test_length_validation(self, length):
        # 0 divided by zero; -1, nan and True returned numbers
        with pytest.raises(DomainError, match="length must be positive"):
            spectral_derivative(np.zeros(64), length)


def on_grid(n=64):
    """A real field on n points of [0, 2 pi): the first mode plus a mean."""
    return 0.5 + np.cos(2 * np.pi * np.arange(n) / n)


GRID = PeriodicGrid(N=64, L=2 * np.pi)

# the doors through which a real field on GRID enters the package, each
# with the name its refusals give the field
DOORS = {
    "spectral_derivative": ("values", lambda u: spectral_derivative(u, 2 * np.pi)),
    "fit_traveling_velocity": ("values", lambda u: fit_traveling_velocity(u, 2 * np.pi)),
    "translation_lag/u0": ("u0", lambda u: translation_lag(u, on_grid(), GRID)),
    "translation_lag/u_final": ("u_final", lambda u: translation_lag(on_grid(), u, GRID)),
    "kdv_residual": ("the wave's samples",
                     lambda u: kdv_residual(TravelingProfile(lambda xs: u, 1.0, 2 * np.pi), GRID)),
    "evolve_trajectory": ("u0", lambda u: evolve_trajectory(u, EvolverConfig(GRID, None, 0.01))),
}


def with_sample(value):
    u = on_grid()
    u[5] = value
    return u


# each bad field with the refusal it meets; a float conversion would drop
# the imaginary part with only a ComplexWarning, and 0j is no exception
BAD_FIELDS = {
    "complex": (lambda: on_grid() + 1e-3j, "{name} must be real"),
    "complex-zero-imaginary": (lambda: on_grid() + 0j, "{name} must be real"),
    "complex-list": (lambda: list(on_grid() + 1e-3j), "{name} must be real"),
    "nan": (lambda: with_sample(np.nan), "{name} must be finite"),
    "inf": (lambda: with_sample(np.inf), "{name} must be finite"),
    "2-d": (lambda: on_grid().reshape(8, 8), r"{name} must have shape \(64,\)"),
    "scalar": (lambda: np.float64(1.0), r"{name} must have shape"),
}


@pytest.mark.parametrize("bad", BAD_FIELDS)
@pytest.mark.parametrize("door", DOORS)
def test_every_door_refuses_what_is_not_a_real_field(door, bad):
    # evolve_trajectory's messages, each naming the door's field
    name, call = DOORS[door]
    make, message = BAD_FIELDS[bad]
    with pytest.raises(DomainError, match=message.format(name=name)):
        call(make())


@pytest.mark.parametrize("door", DOORS)
def test_every_door_refuses_a_field_off_the_grid(door):
    # 48 points are not the grid's 64, and not a power of two for the
    # doors that take a field of any size
    name, call = DOORS[door]
    with pytest.raises(DomainError, match=rf"{name} must have shape \(64,\)|power of two"):
        call(on_grid(48))


@pytest.mark.parametrize("door", DOORS)
def test_every_door_admits_a_list(door):
    # a list is a field: the check converts it, as it converts the array
    _, call = DOORS[door]
    call(list(on_grid()))


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

    # 2^530 u u_x overflows the dot products, and 2^-560 u_x . u_x underflows to 0
    @pytest.mark.parametrize("k", [530, -560])
    def test_fit_holds_at_extreme_amplitudes(self, k):
        # u = 2^k (0.5 + cos x) travels at V = -1 - 6 (2^k / 2), to rounding
        # in the 6 u u_x term, whose sum cancels to eps of its size
        x = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        v = fit_traveling_velocity(2.0**k * (0.5 + np.cos(x)), 2 * np.pi)
        assert v == pytest.approx(-1.0 - 3.0 * 2.0**k, rel=1e-12)

    def test_rejects_constant_field(self):
        with pytest.raises(DomainError, match="constant to roundoff"):
            fit_traveling_velocity(np.full(128, 3.0), 1.0)

    def test_refuses_the_flat_wave_kdv_residual_refuses(self):
        # thirteen copies at m = 0.5 sample to their mean plus roundoff
        # debris, not to one constant; under the one flat rule the fit and
        # the residual refuse them alike
        params = DnWaveParams(alpha=1.0, beta=0.0, m=0.5, p=13)
        grid = params.natural_grid(n=256)
        u = params.sample(grid, 0.0)
        assert np.ptp(u) > 0.0
        with pytest.raises(DomainError, match="values is constant to roundoff"):
            fit_traveling_velocity(u, grid.L)
        with pytest.raises(DomainError, match="field is constant to roundoff"):
            kdv_residual(params, grid)

    @given(shift=st.floats(-10.0, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_mean_invariance_of_oscillation_handling(self, shift):
        length = 2 * np.pi
        x = np.linspace(0, length, 128, endpoint=False)
        u = np.cos(x)
        v0 = fit_traveling_velocity(u, length)
        v1 = fit_traveling_velocity(u + shift, length)
        assert v1 - (v0 - 6 * shift) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("p, m, beta", [(8, 0.3, 0.2), (6, 0.2, 0.0), (8, 0.5, 0.0)])
    def test_recovers_the_speed_of_a_superposition(self, p, m, beta):
        # mostly-mean waves: a floor set on the mean-removed field sits at the
        # oscillation's level, and the mean's rounding debris clears it and
        # is multiplied by k^3 (15.7 off V = -135.3 at (8, 0.3)); a floor on
        # the whole field keeps these fits within 3e-13
        params = DnWaveParams(alpha=1.0, beta=beta, m=m, p=p)
        grid = params.natural_grid(n=256)
        v = fit_traveling_velocity(params.sample(grid, 0.0), grid.L)
        assert abs(v - params.velocity) < 1e-10 * abs(params.velocity)
