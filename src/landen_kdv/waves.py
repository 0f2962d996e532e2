"""Exact traveling-wave families of u_t - 6 u u_x + u_xxx = 0.

Three families:

* u1: the cnoidal wave -2 a^2 dn^2[a(x - b1 a^2 t), m] + b a^2 with speed
  coefficient b1 = 8 - 4m - 6b (a = alpha, b = beta); it is u_p at p = 1.
* u_p: the p-term superposition of dn^2 profiles shifted by 2(i-1)K/p,
  with speed coefficient b_p = 8 - 4m - 6*beta + 12*A(p, m).
* u_pm: a^2 [m sn^2 +/- sqrt(m) cn dn] with speed q1 a^2, q1 = -1 - m.
  By the ascending Landen transformation it is a dn^2 wave at a larger
  parameter (see _pm_as_dn2), so a p-term u_pm sum is u_p there.  The
  source formula scales the speed by alpha, not alpha^2; the verifier
  shows that law fails the PDE.

Each parameter bundle doubles as a sampler: sample(grid, t) evaluates the
field on grid nodes, and velocity/spatial_period feed the verifier and
evolver without family-specific branching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import complete_K, jacobi_sn_cn_dn
from .errors import DomainError, _require_integer, _require_real
from .fourier import PeriodicGrid
from .landen import _shift_lattice, landen_map

# 1 - m1 below which dn at m1 is too coarse for the dn^2 form of u_pm: at
# alpha = 1.3 the gap is 4.1e-11 at 6.3e-6 (m = 0.99), 1.0e-10 at 4.0e-6.
# The gap grows as alpha^2 / (1 - m1), so above _PM_ALPHA the floor grows
# by (alpha / _PM_ALPHA)^2; unscaled, it would serve a 3.9e-10 gap at
# alpha = 4, m = 0.99.
_PM_M1_FLOOR = 5e-6
_PM_ALPHA = 1.3


def _check_alpha(alpha: float) -> None:
    # the speed scales as alpha**2, which overflows to an OverflowError past ~1.3e154
    _require_real(alpha, "alpha", "be positive with a finite square",
                  lambda a: a > 0.0 and math.isfinite(a * a))


@dataclass(frozen=True)
class DnWaveParams:
    """Parameters of u1 (p = 1) and its p-term superposition u_p.

    m = 1 is allowed only for p = 1 (the soliton limit); superpositions
    need the finite shift lattice, hence m < 1.  The speed coefficient
    b_p and the phase shifts 2(i-1)K(m)/p are read from the cached Landen
    map; the p = 1 map is the identity, shift 0 and A = 0.
    """

    alpha: float
    beta: float
    m: float
    p: int = 1

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        _require_real(self.beta, "beta", "be finite", lambda beta: True)
        # landen_map validates p and m
        landen_map(self.p, self.m)

    @property
    def b_p(self) -> float:
        """Speed coefficient 8 - 4m - 6*beta + 12*A(p, m)."""
        lmap = landen_map(self.p, self.m)
        return 8.0 - 4.0 * lmap.m - 6.0 * self.beta + 12.0 * lmap.A

    @property
    def velocity(self) -> float:
        return self.b_p * self.alpha**2

    @property
    def spatial_period(self) -> float:
        """2K(m)/(p*alpha); undefined at m = 1 where the profile is solitary."""
        return 2.0 * complete_K(self.m) / (self.p * self.alpha)

    def natural_grid(self, n: int = 256, periods: int = 1) -> PeriodicGrid:
        """Grid spanning an integer number of spatial periods."""
        return PeriodicGrid(N=n, L=_require_integer(periods, "periods", 1) * self.spatial_period)

    def sample(self, grid: PeriodicGrid, t: float | np.ndarray) -> np.ndarray:
        """The field on the grid; t of shape (k, 1) gives k slices as (k, N)."""
        return u_p(grid.x, t, self)


def u_p(x, t: float | np.ndarray, params: DnWaveParams):
    """p-term superposed wave: -2 a^2 sum_i dn^2(xi + offset_i, m) + beta a^2

    with xi = alpha*(x - b_p*alpha^2*t).  x and t broadcast against each
    other; all p shifts go to the kernel in one call.  Scalar x and t give
    a float, otherwise an array.
    """
    alpha = params.alpha
    xi = alpha * (np.asarray(x, dtype=float) - params.velocity * t)
    total = np.zeros_like(xi)
    lattice = _shift_lattice(xi, landen_map(params.p, params.m).shifts)
    for row in jacobi_sn_cn_dn(lattice, params.m, dn_only=True):
        total += row**2
    out = -2.0 * alpha**2 * total + params.beta * alpha**2
    if np.ndim(out) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class PmWaveParams:
    """Parameters of the u_pm family: alpha, m, and the +/- branch sign."""

    alpha: float
    m: float
    sign: int

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        _require_real(self.m, "modulus parameter", "lie in (0, 1]", lambda m: 0.0 < m <= 1.0)
        _require_real(self.sign, "sign", "be +1 or -1", lambda sign: sign in (1.0, -1.0))

    @property
    def q1(self) -> float:
        return -1.0 - self.m

    @property
    def velocity(self) -> float:
        return self.q1 * self.alpha**2

    @property
    def spatial_period(self) -> float:
        """4K(m)/alpha: the cn*dn product flips sign under a 2K shift."""
        return 4.0 * complete_K(self.m) / self.alpha

    def natural_grid(self, n: int = 512, periods: int = 1) -> PeriodicGrid:
        return PeriodicGrid(N=n, L=_require_integer(periods, "periods", 1) * self.spatial_period)

    def sample(self, grid: PeriodicGrid, t: float) -> np.ndarray:
        return u_pm(grid.x, t, self)


def u_pm(x, t: float | np.ndarray, params: PmWaveParams):
    """u_pm value: alpha^2 [m sn^2(eta) +/- sqrt(m) cn(eta) dn(eta)].

    eta = alpha*(x - q1*alpha^2*t); x and t broadcast against each other.
    Scalar x and t give a float, otherwise an array.
    """
    alpha = params.alpha
    eta = alpha * (np.asarray(x, dtype=float) - params.velocity * t)
    s, c, d = jacobi_sn_cn_dn(eta, params.m)
    out = alpha**2 * (params.m * s * s + params.sign * math.sqrt(params.m) * c * d)
    if np.ndim(out) == 0:
        return float(out)
    return out


def _pm_as_dn2(params: PmWaveParams, p: int) -> tuple[DnWaveParams, float]:
    """sum_i u_pm(x + i*spatial_period/p) as u_p(x + offset): (dn^2 params, offset).

    With k = sqrt(m), lam = (1 + k)/2 and m1 = 4k/(1 + k)^2 (ascending
    Landen, DLMF 22.7(ii)), u_pm(x) = alpha^2 [(1 + m)/2 - 2 lam^2
    dn^2(lam*alpha*x + delta, m1)], delta = K(m1) = 2 lam K(m) on the +
    branch (half the u_pm period in x) and 0 on the - branch.  At m = 1 the
    - branch is the soliton; the + branch has no period and raises.  Below
    m = 1, 1 - m1 = ((1 - m)/(1 + k)^2)^2 under the alpha-scaled
    _PM_M1_FLOOR (m > ~0.991 for alpha <= 1.3) raises DomainError rather
    than return a form that misses the identity.
    """
    k = math.sqrt(params.m)
    m1_complement = ((1.0 - params.m) / (1.0 + k) ** 2) ** 2
    floor = _PM_M1_FLOOR * max(1.0, (params.alpha / _PM_ALPHA) ** 2)
    if 0.0 < m1_complement < floor:
        raise DomainError(f"u_pm at alpha = {params.alpha!r}, m = {params.m!r} has no "
                          "accurate dn^2 form (1 - m1 too small)")
    lam = 0.5 * (1.0 + k)
    offset = 0.5 * params.spatial_period if params.sign == 1 else 0.0
    dn_params = DnWaveParams(alpha=lam * params.alpha,
                             beta=p * (1.0 + params.m) / (2.0 * lam**2),
                             m=4.0 * k / (1.0 + k) ** 2, p=p)
    return dn_params, offset
