"""Exact traveling-wave families of u_t - 6 u u_x + u_xxx = 0.

Three families:

* u1: the cnoidal wave -2 a^2 dn^2[a(x - b1 a^2 t), m] + b a^2 with speed
  coefficient b1 = 8 - 4m - 6b (a = alpha, b = beta).
* u_p: the p-term superposition of dn^2 profiles shifted by 2(i-1)K/p,
  with speed coefficient b_p = 8 - 4m - 6*beta + 12*A(p, m).
* u_pm: a^2 [m sn^2 +/- sqrt(m) cn dn], speed coefficient q1 = -1 - m.
  The source formula scales the speed by alpha, not alpha^2; both
  scalings are implemented and the verifier decides which solves the PDE
  (the alpha^2 one does; see VelocityScaling).

Each parameter bundle doubles as a sampler: sample(grid, t) evaluates the
field on grid nodes, and velocity/spatial_period feed the verifier and
evolver without family-specific branching.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .elliptic import complete_K, jacobi_sn_cn_dn
from .errors import DomainError
from .fourier import PeriodicGrid
from .landen import landen_map


class VelocityScaling(enum.Enum):
    """Time-scaling of the u_pm phase: eta = alpha*(x - q1 * alpha^s * t).

    AS_WRITTEN uses s = 1, the literal formula.  STANDARD uses s = 2,
    matching the alpha^2 scaling of the dn^2 families; only STANDARD makes
    the field solve the PDE for alpha != 1 (the two agree at alpha = 1).
    """

    AS_WRITTEN = "as_written"
    STANDARD = "standard"


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    return alpha


@dataclass(frozen=True)
class DnWaveParams:
    """Parameters of u1 (p = 1) and its p-term superposition u_p.

    m = 1 is allowed only for p = 1 (the soliton limit); superpositions
    need the finite shift lattice, hence m < 1.  The speed coefficient
    b_p and the phase shifts 2(i-1)K(m)/p are taken from the Landen map
    once at construction; p = 1 has the single shift 0 and needs no K.
    """

    alpha: float
    beta: float
    m: float
    p: int = 1
    b_p: float = field(init=False)
    shifts: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if not math.isfinite(self.beta):
            raise DomainError(f"beta must be finite, got {self.beta!r}")
        if self.p < 1:
            raise DomainError(f"p must be >= 1, got {self.p}")
        m = float(self.m)
        if not math.isfinite(m) or not 0.0 <= m <= 1.0:
            raise DomainError(f"modulus parameter must lie in [0, 1], got {m!r}")
        if self.p > 1 and not 0.0 < m < 1.0:
            raise DomainError("superpositions (p >= 2) need 0 < m < 1")
        if self.p == 1:
            a_const, shifts = 0.0, (0.0,)
        else:
            lmap = landen_map(self.p, m)
            a_const, shifts = lmap.A, lmap.shifts
        object.__setattr__(self, "b_p", 8.0 - 4.0 * m - 6.0 * self.beta + 12.0 * a_const)
        object.__setattr__(self, "shifts", shifts)

    @property
    def velocity(self) -> float:
        return self.b_p * self.alpha**2

    @property
    def spatial_period(self) -> float:
        """2K(m)/(p*alpha); undefined at m = 1 where the profile is solitary."""
        return 2.0 * complete_K(self.m) / (self.p * self.alpha)

    def natural_grid(self, n: int = 256, periods: int = 1) -> PeriodicGrid:
        """Grid spanning an integer number of spatial periods."""
        return PeriodicGrid(N=n, L=periods * self.spatial_period)

    def sample(self, grid: PeriodicGrid, t: float) -> np.ndarray:
        return u_p(grid.x, t, self)


def u_p(x, t: float, params: DnWaveParams):
    """p-term superposed wave: -2 a^2 sum_i dn^2(xi + offset_i, m) + beta a^2

    with xi = alpha*(x - b_p*alpha^2*t).  Scalar x gives a float, array x
    an array.
    """
    alpha = params.alpha
    xi = alpha * (np.asarray(x, dtype=float) - params.velocity * t)
    total = np.zeros_like(xi)
    for shift in params.shifts:
        total += jacobi_sn_cn_dn(xi + shift, params.m)[2] ** 2
    out = -2.0 * alpha**2 * total + params.beta * alpha**2
    if np.ndim(x) == 0:
        return float(out)
    return out


def u1(x, t: float, params: DnWaveParams):
    """Cnoidal wave, the p = 1 case; rejects params with p > 1."""
    if params.p != 1:
        raise DomainError(f"u1 requires p = 1 params, got p = {params.p}")
    return u_p(x, t, params)


@dataclass(frozen=True)
class PmWaveParams:
    """Parameters of the u_pm family: alpha, m, and the +/- branch sign."""

    alpha: float
    m: float
    sign: int
    q1: float = field(init=False)

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        m = float(self.m)
        if not math.isfinite(m) or not 0.0 < m <= 1.0:
            raise DomainError(f"modulus parameter must lie in (0, 1], got {m!r}")
        if self.sign not in (1, -1):
            raise DomainError(f"sign must be +1 or -1, got {self.sign!r}")
        object.__setattr__(self, "q1", -1.0 - m)

    def velocity(self, scaling: VelocityScaling = VelocityScaling.STANDARD) -> float:
        power = 1 if scaling is VelocityScaling.AS_WRITTEN else 2
        return self.q1 * self.alpha**power

    @property
    def spatial_period(self) -> float:
        """4K(m)/alpha: the cn*dn product flips sign under a 2K shift."""
        return 4.0 * complete_K(self.m) / self.alpha

    def sampler(self, scaling: VelocityScaling = VelocityScaling.STANDARD) -> "PmWave":
        return PmWave(params=self, scaling=scaling)

    def natural_grid(self, n: int = 512, periods: int = 1) -> PeriodicGrid:
        return PeriodicGrid(N=n, L=periods * self.spatial_period)


def u_pm(x, t: float, params: PmWaveParams,
         velocity_scaling: VelocityScaling = VelocityScaling.STANDARD):
    """u_pm value: alpha^2 [m sn^2(eta) +/- sqrt(m) cn(eta) dn(eta)].

    eta = alpha*(x - V*t) with V from the chosen velocity scaling.
    """
    alpha = params.alpha
    eta = alpha * (np.asarray(x, dtype=float) - params.velocity(velocity_scaling) * t)
    s, c, d = jacobi_sn_cn_dn(eta, params.m)
    out = alpha**2 * (params.m * s * s + params.sign * math.sqrt(params.m) * c * d)
    if np.ndim(x) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class PmWave:
    """A u_pm family bound to one velocity scaling; the sampler interface."""

    params: PmWaveParams
    scaling: VelocityScaling

    @property
    def velocity(self) -> float:
        return self.params.velocity(self.scaling)

    @property
    def spatial_period(self) -> float:
        return self.params.spatial_period

    def sample(self, grid: PeriodicGrid, t: float) -> np.ndarray:
        return u_pm(grid.x, t, self.params, self.scaling)
