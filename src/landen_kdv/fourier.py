"""Four-step real FFT pair and periodic spectral differentiation.

The transform is implemented here rather than taken from numpy so the
package carries no black box in the one place accuracy claims depend on;
numpy.fft appears only in the test suite as an independent oracle.  It is
the four-step factorisation (Bailey 1990): a size n = n1 * n2 transform is
an n1-point DFT matrix product, one elementwise twiddle and an n2-point DFT
matrix product, so the work runs in two small dense matmuls instead of a
Python loop over log2(n) butterfly stages.  Every angle is reduced modulo
its period before exp is called, 2 pi (j k mod n) / n: unreduced, the
angle's rounding grows with j k, and the error at n = 8192 is about 30x
larger.  Grids are restricted to power-of-two sizes, which is all the
solvers need and keeps n1 and n2 powers of two.

Every field the package transforms is real, so there is one transform, a
private real pair: _rfft returns the half spectrum, numpy.fft.rfft's modes
0..n/2, and _irfft reads it back.  Each takes one of the four-step's
products in real arithmetic and forms only the rows k2 <= n2/2 of the
other, of modes k1 + n1 k2, a layout no caller sees.  Which entry holds
which mode is this module's to know: _half_modes, _field_size,
_half_layout, kept_modes and wavenumbers.  So are the plans, which only
_rfft and _irfft look up, and the one read of a sampled field,
_floored_spectrum: it checks the field (_real_field), transforms it and
floors it (drop_noise_floor) for every module that reads one.  The public
fft, which no module of the package calls, is the Hermitian extension of
_rfft's half spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, _require_integer, _require_positive

# Spectral coefficients below DROP_FLOOR times eps * ||u_hat||_2 / sqrt(n),
# the rounding level the samples leave in each coefficient (Parseval), are
# debris; multiplying them by k^3 would let the noise floor grow with n.
# Measured: at 30 the debris of flat superpositions clears the floor and
# kdv_residual measures noise instead of refusing; at 3000 the floor cuts
# real harmonics and the u_pm residuals rise from 9e-12 to 4.1e-11.
DROP_FLOOR = 300.0


def _require_pow2(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise DomainError(f"transform size must be a power of two, got {n}")
    return n


@lru_cache(maxsize=None)
def _plan(n: int):
    """The size-n real plans, forward and inverse, from one table of roots.

    With n = n1 * n2 and n1 = 2^floor(log2(n) / 2), the forward is (the
    n1-point DFT matrix as floats, the twiddle exp(-2 pi i j2 k1 / n) on
    the (n2, n1) grid, the first n2/2 + 1 rows of the n2-point DFT matrix)
    and the inverse (the first n2/2 + 1 columns of the conjugated n2-point
    matrix times the weights 2, and 1 at Nyquist, the conjugated twiddle
    / n, the n1-point matrix as floats); see _rfft and _irfft.  Every entry
    is read from the table of the n roots exp(-2 pi i j / n): an entry of a
    size-s DFT matrix, with angle 2 pi (j k mod s) / s, is the root at
    (j k mod s) * (n / s), and scaling by a power of two leaves the reduced
    angle's rounding unchanged.  Conjugation, doubling and dividing by a
    power of two are exact.  When n1 == n2 one matrix serves both products.
    """
    n1 = 1 << ((n.bit_length() - 1) // 2)
    n2 = n // n1
    roots = np.exp(-2j * np.pi * np.arange(n) / n)

    def dft(size: int) -> np.ndarray:
        j = np.arange(size)
        return roots[np.outer(j, j) % size * (n // size)]

    left = dft(n1)
    right = left if n2 == n1 else dft(n2)
    twiddle = roots[np.outer(np.arange(n2), np.arange(n1)) % n]
    rows = n2 // 2 + 1
    weights = np.append(np.full(rows - 1, 2.0), 1.0)
    real_left = left.view(float)
    return ((real_left, twiddle, right[:rows]),
            (np.conj(right[:, :rows]) * weights, np.conj(twiddle) / n, real_left))


def _half_modes(n: int) -> np.ndarray:
    """Signed mode numbers of the half spectra that _rfft returns and _irfft reads.

    A half spectrum is numpy.fft.rfft's: the modes 0..n/2 - 1 in order,
    then the Nyquist mode, given -n/2.
    """
    return np.append(np.arange(_require_pow2(n) // 2), -(n // 2))


def _field_size(size: int) -> int:
    """The size n of the field whose half spectrum has size entries, 2 (size - 1).

    Size 1 is the half spectrum of one sample; a size that is no
    power-of-two n's n/2 + 1 is refused.
    """
    return 1 if size == 1 else _require_pow2(2 * (size - 1))


def _half_layout(u_hat: np.ndarray) -> tuple[int, np.ndarray]:
    """The size n of the field whose half spectrum is u_hat, and its Parseval weights.

    The weights w, with sum(w |u_hat|^2) = ||fft(u)||^2, are 1 at the mean
    and Nyquist and 2 at 0 < k < n/2, which stand for their conjugates too.
    """
    n = _field_size(u_hat.size)
    weights = np.full(u_hat.size, 2.0)
    weights[0] = weights[-1] = 1.0
    return n, weights


def _scaled(u_hat: np.ndarray) -> np.ndarray:
    """u_hat * 2^-e, e the exponent that brings max|u_hat| into [1/2, 1).

    Squares and products of spectra overflow past ~1e154 and underflow
    below ~1e-154.  A power of two scales exactly, so ratios and
    comparisons of these coefficients are those of u_hat.
    """
    e = math.frexp(np.abs(u_hat).max(initial=0.0))[1]
    # real and imaginary parts as one float array; a real or strided u_hat is copied
    return np.ldexp(np.ascontiguousarray(u_hat, dtype=complex).view(float), -e).view(complex)


def _rfft(x: np.ndarray) -> np.ndarray:
    """The half spectrum of a real length-n field x, with n's real forward plan.

    The four-step in real arithmetic where the field is real: the first
    product, x.reshape(n1, n2).T @ left, takes the n1 real samples of a
    column against the real and imaginary parts of left at once, as one
    real matrix, and gives the columns as complex numbers in (j2, k1)
    order; only the rows k2 <= n2/2 of the last product are formed, and of
    their modes k1 + n1 k2 only the first n/2 + 1 are returned: entry k is
    fft(x)[k], as numpy.fft.rfft gives it.  x is a 1-D float array of
    power-of-two size, as _real_field returns.
    """
    left, twiddle, right = _plan(x.size)[0]
    cols = (x.reshape(left.shape[0], -1).T @ left).view(complex)
    cols *= twiddle
    return (right @ cols).ravel()[:x.size // 2 + 1]


def _irfft(x_hat: np.ndarray) -> np.ndarray:
    """The real field of a half spectrum whose entry 0 is 0, with its real inverse plan.

    With its mean 0, a real field is the sum over 0 < k <= n/2 of
    Re(w_k x_hat[k] exp(2 pi i j k / n)), w_k = 2/n and 1/n at Nyquist.
    x_hat is copied into the rows k2 <= n2/2 of modes k1 + n1 k2, zero past
    Nyquist, and the first product runs over them with the weights folded
    into its matrix and the twiddle.  The last keeps only real parts:
    Re(conj(l) y) = Re(l) Re(y) + Im(l) Im(y), so it is left itself,
    viewed as floats, against the rows viewed as floats, and lands in
    natural order with no transpose copy.  The imaginary part of the
    Nyquist entry drops out to within eps of its size, as a real field has
    none.  The mean entry is read, not skipped, so it must be 0.
    """
    right, twiddle, left = _plan(_field_size(x_hat.size))[1]
    padded = np.zeros((right.shape[1], twiddle.shape[1]), dtype=complex)
    padded.ravel()[:x_hat.size] = x_hat
    rows = right @ padded
    rows *= twiddle
    return (left @ rows.view(float).T).ravel()


def _real_field(u, n: int, name: str) -> np.ndarray:
    """u as a float array of shape (n,), refused if complex, of another shape or not finite."""
    # a float conversion would drop the imaginary part with a mere warning
    if np.iscomplexobj(u):
        raise DomainError(f"{name} must be real, got a complex array")
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise DomainError(f"{name} must have shape ({n},), got {u.shape}")
    if not np.isfinite(u).all():
        raise DomainError(f"{name} must be finite")
    return u


def _floored_spectrum(u, n: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """u checked as a real field of shape (n,) (see _real_field), and its floored half spectrum."""
    u = _real_field(u, n, name)
    return u, drop_noise_floor(_rfft(u))


def _spectrum(x: np.ndarray) -> np.ndarray:
    """fft(x) of a real x: the half spectrum's modes 0..n/2, then conjugates of n/2 - 1..1."""
    half = _rfft(x.astype(float))
    return np.concatenate((half, np.conj(half[x.size // 2 - 1:0:-1])))


def fft(a: np.ndarray) -> np.ndarray:
    """Forward discrete Fourier transform of a 1-D array; a complex one is two real fields."""
    a = np.asarray(a)
    if a.ndim != 1:
        raise DomainError("transforms operate on 1-D arrays")
    _require_pow2(a.size)
    return _spectrum(a.real) + 1j * _spectrum(a.imag) if np.iscomplexobj(a) else _spectrum(a)


def kept_modes(n: int) -> np.ndarray:
    """Mask of the half spectrum's modes the 2/3 rule keeps: |mode| < n // 3.

    A product of two fields limited to this band aliases only into the
    discarded top third, never back into the band itself.
    """
    return np.abs(_half_modes(n)) < n // 3


def wavenumbers(n: int, length: float) -> np.ndarray:
    """Physical wavenumbers 2*pi*mode/length of the half spectrum's modes."""
    return (2.0 * np.pi / length) * _half_modes(n)


def drop_noise_floor(u_hat: np.ndarray) -> np.ndarray:
    """Zero a half spectrum's coefficients below DROP_FLOOR times the rounding level.

    Differentiation multiplies by powers of k; without this the rounding
    noise in empty modes is amplified until it dominates small residuals.
    The level is eps * ||u_hat||_2 / sqrt(n), not a fraction of the peak:
    a large mean would set the peak and cut real harmonics.  The norm is
    the full spectrum's, rebuilt with the Parseval weights on the
    magnitudes of _scaled(u_hat) at any amplitude, so the level is the one
    the samples leave in each coefficient.
    """
    n, weights = _half_layout(u_hat)
    scaled = np.abs(_scaled(u_hat))
    rounding = np.finfo(float).eps * math.sqrt(weights @ scaled ** 2) / math.sqrt(n)
    return np.where(scaled < DROP_FLOOR * rounding, 0.0, u_hat)


def _require_oscillation(u_hat: np.ndarray, name: str, what: str) -> None:
    """Refuse a floored half spectrum with no mode 0 < k < n/2: its field is flat to roundoff."""
    # Nyquist alone does not count: an odd derivative zeroes it
    if not u_hat[1:-1].any():
        raise DomainError(f"{name} is constant to roundoff on this grid; {what} measures nothing")


def high_mode_energy_fraction(u_hat: np.ndarray) -> float:
    """Fraction of non-mean spectral energy in the top third of modes.

    ``u_hat`` is a half spectrum that has passed drop_noise_floor, so
    roundoff debris does not read as content, and keeps at least one
    non-mean mode.  The top third is the band the 2/3 rule would discard;
    energy here means products of the field alias back into resolved
    modes.  The energy is the full spectrum's, through the Parseval
    weights.  The mean is excluded so a large constant offset cannot mask
    genuine high-mode content.
    """
    n, weights = _half_layout(u_hat)
    power = weights * np.abs(_scaled(u_hat)) ** 2
    return float(np.sum(power[~kept_modes(n)]) / np.sum(power[1:]))


def _derivative_of_spectrum(u_hat: np.ndarray, k: np.ndarray, order: int) -> np.ndarray:
    """d^order/dx^order of the real field whose floored half spectrum is u_hat.

    The mean has k = 0 and reaches _irfft as 0.  Odd orders zero the
    Nyquist mode, the last: it has no signed partner, so its derivative is
    imaginary, and _irfft drops that only to within eps of its k^order.
    """
    d_hat = (1j * k) ** order * u_hat
    if order % 2 == 1:
        d_hat[-1] = 0.0
    return _irfft(d_hat)


def spectral_derivative(values: np.ndarray, length: float, order: int = 1) -> np.ndarray:
    """d^order/dx^order of a real periodic field sampled on n points, n a power of two."""
    values, u_hat = _floored_spectrum(values, _require_pow2(np.size(values)), "values")
    _require_positive(length, "length")
    order = _require_integer(order, "derivative order", 1)
    return _derivative_of_spectrum(u_hat, wavenumbers(values.size, length), order)


def fit_traveling_velocity(values: np.ndarray, length: float) -> float:
    """Least-squares speed V for which u(x, t) = f(x - V t) fits the flow.

    For u_t - 6 u u_x + u_xxx = 0 a traveling profile obeys
    -V u_x - 6 u u_x + u_xxx = 0, so V is the L2 projection of
    (u_xxx - 6 u u_x) onto u_x; a field flat to roundoff has none.  Both
    derivatives come from one floored half spectrum, as in kdv_residual.
    They are taken on _scaled(u_hat), u_hat scaled exactly by a power of
    two s: with u unscaled, u_xxx and 6 u u_x both scale by s, so V keeps
    its value and no product overflows or underflows at any amplitude.
    """
    u, u_hat = _floored_spectrum(values, _require_pow2(np.size(values)), "values")
    _require_positive(length, "length")
    _require_oscillation(u_hat, "values", "the velocity fit")
    u_hat = _scaled(u_hat)
    k = wavenumbers(u.size, length)
    u_x = _derivative_of_spectrum(u_hat, k, 1)
    u_xxx = _derivative_of_spectrum(u_hat, k, 3)
    return float(np.dot(u_x, u_xxx - 6.0 * u * u_x) / np.dot(u_x, u_x))


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid on [0, L): N samples at x_j = j*L/N, none at the seam.

    N must be a power of two and at least 64; coarser grids cannot resolve
    the steep cnoidal profiles this package verifies.
    """

    N: int
    L: float

    def __post_init__(self) -> None:
        _require_pow2(_require_integer(self.N, "grid size", 1))
        if self.N < 64:
            raise DomainError(f"grid needs at least 64 points, got {self.N}")
        _require_positive(self.L, "grid length")

    @cached_property
    def x(self) -> np.ndarray:
        return self.L * np.arange(self.N) / self.N

    @cached_property
    def k(self) -> np.ndarray:
        """Wavenumbers of the half spectrum's modes (see _half_modes)."""
        return wavenumbers(self.N, self.L)

    @property
    def spacing(self) -> float:
        return self.L / self.N
