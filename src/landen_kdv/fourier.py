"""Four-step FFT and periodic spectral differentiation.

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

The inverse runs the same three steps on a plan of its own:
(conj(left), conj(twiddle) / n, conj(right)).  Conjugation commutes exactly
with every rounded product and sum, and dividing by a power of two is
exact, so ifft(a) equals conj(fft(conj(a))) / n exactly, at the forward
transform's cost and without three extra passes over the array.  Only the
sign of an exact zero can differ, in an imaginary part (x - x is +0, and
the old route negated it); real parts agree bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError

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


def _require_positive(value: float, name: str) -> None:
    # True is a numbers.Real, a string would reach math.isfinite as a
    # TypeError, and numpy floats are numbers.Real
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value <= 0.0):
        raise DomainError(f"{name} must be positive, got {value!r}")


@lru_cache(maxsize=None)
def _plan(n: int):
    """The forward and inverse plans of the size-n transform, as a pair.

    A plan is (left DFT matrix, twiddle, right DFT matrix), with n = n1 * n2,
    n1 = 2^floor(log2(n) / 2) and the twiddle exp(-2 pi i k1 j2 / n) on the
    (n1, n2) grid.  Every entry is read from one table of the n roots
    exp(-2 pi i j / n): an entry of a size-s DFT matrix, with angle
    2 pi (j k mod s) / s, is the root at (j k mod s) * (n / s), and scaling
    by a power of two leaves the reduced angle's rounding unchanged.  The
    inverse plan is the forward one conjugated, with the 1/n normalization
    in the twiddle.  When n1 == n2 (n an even power of two) the left matrix
    is the right one, built and conjugated once.
    """
    n1 = 1 << ((n.bit_length() - 1) // 2)
    n2 = n // n1
    roots = np.exp(-2j * np.pi * np.arange(n) / n)

    def dft(size: int) -> np.ndarray:
        j = np.arange(size)
        return roots[np.outer(j, j) % size * (n // size)]

    left = dft(n1)
    right = left if n2 == n1 else dft(n2)
    twiddle = roots[np.outer(np.arange(n1), np.arange(n2)) % n]
    conj_left = np.conj(left)
    conj_right = conj_left if right is left else np.conj(right)
    return (left, twiddle, right), (conj_left, np.conj(twiddle) / n, conj_right)


def _four_step(a: np.ndarray, plan) -> np.ndarray:
    """Transform a checked 1-D power-of-two array with a plan.

    With j = j1 n2 + j2 and k = k1 + n1 k2, the sum over j1 is an n1-point
    DFT down the columns of a.reshape(n1, n2), the twiddle carries the
    cross term k1 j2, and the sum over j2 is an n2-point DFT along rows.
    The result at (k1, k2) belongs at flat index k1 + n1 k2, so the last
    product is taken as right @ cols.T, which is (cols @ right).T because
    every DFT matrix is symmetric: its (k2, k1) entry lands in natural
    order and ravel returns a view, with no transpose copy.
    """
    left, twiddle, right = plan
    cols = left @ a.reshape(left.shape[0], -1)
    cols *= twiddle
    return (right @ cols.T).ravel()


def _checked(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 1:
        raise DomainError("fft operates on 1-D arrays")
    _require_pow2(a.size)
    return a


def fft(a: np.ndarray) -> np.ndarray:
    """Forward discrete Fourier transform of a 1-D array (four-step)."""
    a = _checked(a)
    return _four_step(a, _plan(a.size)[0])


def ifft(a: np.ndarray) -> np.ndarray:
    """Inverse transform, normalized so ifft(fft(x)) == x."""
    a = _checked(a)
    return _four_step(a, _plan(a.size)[1])


def signed_modes(n: int) -> np.ndarray:
    """Integer mode numbers in transform order: 0..n/2-1, -n/2..-1."""
    j = np.arange(_require_pow2(n))
    j[j >= n // 2] -= n
    return j


def kept_modes(n: int) -> np.ndarray:
    """Mask of the modes the 2/3 rule keeps: |signed index| < n // 3.

    A product of two fields limited to this band aliases only into the
    discarded top third, never back into the band itself.
    """
    return np.abs(signed_modes(n)) < n // 3


def wavenumbers(n: int, length: float) -> np.ndarray:
    """Physical wavenumbers 2*pi*j/length in transform order."""
    return (2.0 * np.pi / length) * signed_modes(n)


def drop_noise_floor(u_hat: np.ndarray) -> np.ndarray:
    """Zero coefficients below DROP_FLOOR times the rounding level of the samples.

    Differentiation multiplies by powers of k; without this the rounding
    noise in empty modes is amplified until it dominates small residuals.
    The level is eps * ||u_hat||_2 / sqrt(n), not a fraction of the peak:
    a large mean would set the peak and cut real harmonics.
    """
    rounding = np.finfo(float).eps * np.linalg.norm(u_hat) / math.sqrt(u_hat.size)
    out = u_hat.copy()
    out[np.abs(out) < DROP_FLOOR * rounding] = 0.0
    return out


def high_mode_energy_fraction(u_hat: np.ndarray) -> float:
    """Fraction of non-mean spectral energy in the top third of modes.

    ``u_hat`` has passed drop_noise_floor, so roundoff debris does not read
    as content, and keeps at least one non-mean mode.  The top third is the
    band the 2/3 rule would discard; energy here means products of the
    field alias back into resolved modes.  The mean is excluded so a large
    constant offset cannot mask genuine high-mode content.
    """
    power = np.abs(u_hat) ** 2
    return float(np.sum(power[~kept_modes(u_hat.size)]) / np.sum(power[1:]))


def _derivative_of_spectrum(u_hat: np.ndarray, k: np.ndarray, order: int) -> np.ndarray:
    """d^order/dx^order of the real field whose floored spectrum is u_hat.

    Odd orders zero the Nyquist mode: it has no signed partner, so keeping
    it would turn a real field complex.
    """
    d_hat = (1j * k) ** order * u_hat
    if order % 2 == 1:
        d_hat[u_hat.size // 2] = 0.0
    return ifft(d_hat).real


def spectral_derivative(values: np.ndarray, length: float, order: int = 1) -> np.ndarray:
    """d^order/dx^order of a real periodic field sampled on n points."""
    values = np.asarray(values, dtype=float)
    if order < 1:
        raise DomainError("derivative order must be >= 1")
    u_hat = drop_noise_floor(fft(values))
    return _derivative_of_spectrum(u_hat, wavenumbers(values.size, length), order)


def fit_traveling_velocity(values: np.ndarray, length: float) -> float:
    """Least-squares speed V for which u(x, t) = f(x - V t) fits the flow.

    For u_t - 6 u u_x + u_xxx = 0 a traveling profile obeys
    -V u_x - 6 u u_x + u_xxx = 0, so V is the L2 projection of
    (u_xxx - 6 u u_x) onto u_x.  Constant fields have no velocity.

    Derivatives are taken on the mean-removed field: the mean contributes
    nothing to any derivative, but a large offset would anchor the
    noise-floor threshold and wipe out small oscillatory modes.
    """
    u = np.asarray(values, dtype=float)
    osc = u - float(np.mean(u))
    u_x = spectral_derivative(osc, length, 1)
    u_xxx = spectral_derivative(osc, length, 3)
    denom = float(np.dot(u_x, u_x))
    if denom == 0.0:
        raise DomainError("velocity fit needs a non-constant field")
    return float(np.dot(u_x, u_xxx - 6.0 * u * u_x) / denom)


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid on [0, L): N samples at x_j = j*L/N, none at the seam.

    N must be a power of two and at least 64; coarser grids cannot resolve
    the steep cnoidal profiles this package verifies.
    """

    N: int
    L: float

    def __post_init__(self) -> None:
        if not isinstance(self.N, (int, np.integer)) or isinstance(self.N, bool):
            raise DomainError(f"grid size must be an integer, got {self.N!r}")
        _require_pow2(self.N)
        if self.N < 64:
            raise DomainError(f"grid needs at least 64 points, got {self.N}")
        _require_positive(self.L, "grid length")

    @cached_property
    def x(self) -> np.ndarray:
        return self.L * np.arange(self.N) / self.N

    @cached_property
    def k(self) -> np.ndarray:
        return wavenumbers(self.N, self.L)

    @property
    def spacing(self) -> float:
        return self.L / self.N
