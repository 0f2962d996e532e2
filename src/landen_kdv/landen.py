"""Generalized p-term Landen maps for dn and the derived wave constants.

A p-term map relates a sum of p equally shifted dn functions at modulus
parameter m to a single dn at a smaller parameter m_tilde:

    dn(x, m_tilde) = gamma * sum_i dn(gamma*x + 2*(i-1)*K(m)/p, m)

with gamma the reciprocal of the shifted-dn sum at x = 0.  Squaring the
identity brings in the cyclic constants a_p(r): sums of products of dn
values a fixed shift apart, which are independent of x.  A from the
lattice is cross-checked against the nome relation, under which the
shift sum takes the nome q to q^p (DLMF 22.7, 20.2).  Everything here
is pure and cached per (p, m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elliptic import _agm, _complete_KE, complete_E, complete_K, jacobi_sn_cn_dn
from .errors import ConsistencyError, DomainError

# Constancy probes for a_p(r): scattered points chosen off the K/p shift
# lattice, where a symmetry could mask genuine x-dependence.
_PROBES = np.asarray([0.1 + 0.25 * j for j in range(8)])
_CONSTANCY_TOL = 1e-9

# Dual determinations of A(p, m) must agree this closely.
_A_AGREEMENT_TOL = 1e-8


@dataclass(frozen=True)
class LandenMap:
    """The (p, m) Landen data: scale, target modulus, shifts and constants.

    ``a`` holds the cyclic constants a_p(r) for r = 1..p-1 (empty for
    p = 1): the r = p pairing would be sum_i dn^2, which depends on x and
    so is not a constant of the identity.  ``A`` is the velocity offset
    entering b_p = 8 - 4m - 6*beta + 12*A.
    """

    p: int
    m: float
    gamma: float
    m_tilde: float
    shifts: tuple[float, ...]
    a: tuple[float, ...]
    A: float

    @property
    def cyclic_sum(self) -> float:
        """Sum of the cyclic constants, the S appearing in beta_tilde."""
        return math.fsum(self.a)


@dataclass(frozen=True)
class TransformedParams:
    """Single-cnoidal parameters equivalent to a p-term superposition."""

    alpha_tilde: float
    c_tilde: float
    beta_tilde: float
    m_tilde: float


def _check_pm(p: int, m: float) -> tuple[int, float]:
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool) or p < 1:
        raise DomainError(f"p must be an integer >= 1, got {p!r}")
    m = float(m)
    if not math.isfinite(m) or not 0.0 < m < 1.0:
        raise DomainError(f"modulus parameter must lie in (0, 1), got {m!r}")
    return int(p), m


def _dn_on_lattice(x, shifts: tuple[float, ...], m: float) -> np.ndarray:
    """dn(x + shifts[i], m) stacked as shape (p, *x.shape), in one kernel call."""
    column = np.reshape(shifts, (len(shifts),) + (1,) * np.ndim(x))
    return jacobi_sn_cn_dn(x + column, m)[2]


def cyclic_sums(m: float, shifts: tuple[float, ...], probes: np.ndarray) -> np.ndarray:
    """sum_i dn(u + shifts[i]) * dn(u + shifts[i+r mod p]) at each probe u.

    Row r-1 holds the sums for r = 1..p-1, so the result has shape
    (p - 1, len(probes)); each row is constant when the lattice is right.
    """
    # d[i, j] = dn(probes[j] + shifts[i], m)
    d = _dn_on_lattice(probes, shifts, m)
    rows = [np.sum(d * np.roll(d, -r, axis=0), axis=0) for r in range(1, len(shifts))]
    return np.array(rows).reshape(len(shifts) - 1, len(probes))


def _cyclic_constants(p: int, m: float, shifts: tuple[float, ...]) -> tuple[float, ...]:
    """a_p(r) for r = 1..p-1, the means of the cyclic sums over _PROBES.

    Each sum is evaluated at eight scattered u values; any drift beyond
    tolerance means the convention is wrong for this (p, m) and is an error,
    not a warning.
    """
    sums = cyclic_sums(m, shifts, _PROBES)
    for r, row in enumerate(sums, start=1):
        if np.std(row) > _CONSTANCY_TOL:
            raise ConsistencyError(
                f"a_{p}({r}) varies with x at m={m}: std {np.std(row):.3e}"
            )
    return tuple(float(np.mean(row)) for row in sums)


def _consistency_A(m: float, gamma: float, m_tilde: float, cyclic_sum: float) -> float:
    """A from 12A = (8 - 4*m_tilde)/gamma^2 - (8 - 4m) - 12*sum_r a_p(r).

    The beta terms cancel identically when the transformed offset
    beta_tilde = beta*gamma^2 + 2*gamma^2*sum_r a_p(r) is substituted into
    the single-cnoidal speed.
    """
    return ((8.0 - 4.0 * m_tilde) / gamma**2 - (8.0 - 4.0 * m)) / 12.0 - cyclic_sum


def _nome_A(p: int, m: float) -> float:
    """A(p, m) from the nome relation alone, without the shift lattice.

    The target nome is q~ = q^p with q = exp(-pi K(1-m)/K(m)).  Then
    m~ = (theta_2(q~)/theta_3(q~))^4 and K(m~) = (pi/2) theta_3(q~)^2
    (DLMF 20.9.1-2), gamma = K(m)/(p K(m~)), and averaging the squared
    identity over a period, where dn^2 has mean E/K (DLMF 22.16(ii)), gives
    sum_r a_p(r) = E(m~)/(gamma^2 K(m~)) - p E(m)/K(m).
    """
    big_k, e_m = _complete_KE(m)
    # K(1 - m) from AGM(1, sqrt(m)): rounding 1 - m would lose small m
    k_prime = 0.5 * math.pi / _agm(math.sqrt(m))[0]
    q = math.exp(-p * math.pi * k_prime / big_k)
    # theta_2^4 = 16 q (sum_{n>=0} q^(n(n+1)))^4 and theta_3 = 1 + 2 sum_{n>=1}
    # q^(n^2); q < 0.78 for every float m < 1, so n > 15 adds under 1e-27
    s2 = 1.0 + math.fsum(q ** (n * (n + 1)) for n in range(1, 16))
    s3 = 1.0 + 2.0 * math.fsum(q ** (n * n) for n in range(1, 16))
    m_tilde = 16.0 * q * (s2 / s3) ** 4
    k_tilde = 0.5 * math.pi * s3 * s3
    gamma = big_k / (p * k_tilde)
    cyclic_sum = complete_E(m_tilde) / (gamma**2 * k_tilde) - p * e_m / big_k
    return _consistency_A(m, gamma, m_tilde, cyclic_sum)


# keyed on float m; one verify --suite all run builds 52 maps
@lru_cache(maxsize=1024)
def landen_map(p: int, m: float) -> LandenMap:
    """Build the full Landen data for (p, m) from dn on the shift lattice.

    For p >= 2 the lattice A (see _consistency_A) is checked against the
    nome determination (_nome_A), which shares no dn evaluation with it;
    disagreement beyond 1e-8 raises rather than returning a guess.
    """
    p, m = _check_pm(p, m)
    if p == 1:
        # identity map; assign exactly rather than route m through
        # (m - 2) + 2, which loses the last bit
        return LandenMap(p=1, m=m, gamma=1.0, m_tilde=m, shifts=(0.0,), a=(), A=0.0)
    big_k = complete_K(m)
    shifts = tuple(2.0 * i * big_k / p for i in range(p))
    d0 = jacobi_sn_cn_dn(np.asarray(shifts), m)[2]
    gamma = 1.0 / math.fsum(d0)
    m_tilde = (m - 2.0) * gamma**2 + 2.0 * gamma**3 * math.fsum(d0**3)
    # the two terms cancel to ~2 gamma^2 ulps; once the true m~ drops
    # under that, the float result can come out negative
    m_tilde = max(m_tilde, 0.0)
    a = _cyclic_constants(p, m, shifts)

    a_lattice = _consistency_A(m, gamma, m_tilde, math.fsum(a))
    a_nome = _nome_A(p, m)
    if abs(a_lattice - a_nome) > _A_AGREEMENT_TOL:
        raise ConsistencyError(
            f"A({p}, {m}) determinations disagree: shift lattice "
            f"{a_lattice!r} vs nome relation {a_nome!r}"
        )

    return LandenMap(p=p, m=m, gamma=gamma, m_tilde=m_tilde, shifts=shifts, a=a, A=a_lattice)


def A_constant(p: int, m: float) -> float:
    """Velocity offset A(p, m) in b_p = 8 - 4m - 6*beta + 12*A(p, m).

    A(1, m) = 0 for every m: the single cnoidal speed is 8 - 4m - 6*beta
    with no correction.  For p >= 2 the value comes from the cross-checked
    construction in :func:`landen_map`.
    """
    return landen_map(p, m).A


def dual_oracle_gap(p: int, m: float) -> float:
    """|A(p, m)| gap between the shift lattice and the nome relation.

    landen_map enforces agreement at construction for p >= 2; this
    recomputes the nome determination to report the gap as a metric.
    """
    return abs(landen_map(p, m).A - _nome_A(p, m))


def dn_landen_rhs(x, lmap: LandenMap):
    """Right side of the dn identity: gamma * sum_i dn(gamma*x + shifts[i], m).

    Equals dn(x, m_tilde) for all real x.  Scalar in, float out; array in,
    array out.
    """
    x_arr = np.asarray(x, dtype=float)
    total = np.zeros_like(x_arr)
    for row in _dn_on_lattice(lmap.gamma * x_arr, lmap.shifts, lmap.m):
        total += row
    total *= lmap.gamma
    if np.ndim(x) == 0:
        return float(total)
    return total


def dn2_landen_rhs(x, lmap: LandenMap):
    """Squared-identity right side: gamma^2 * (sum_i dn^2 + sum_r a_p(r)).

    Equals dn^2(x, m_tilde).  The cross terms of squaring the dn identity
    collapse into the x-independent cyclic constants.
    """
    x_arr = np.asarray(x, dtype=float)
    total = np.full_like(x_arr, math.fsum(lmap.a))
    for row in _dn_on_lattice(lmap.gamma * x_arr, lmap.shifts, lmap.m):
        total += row**2
    total *= lmap.gamma**2
    if np.ndim(x) == 0:
        return float(total)
    return total


def transform_params(alpha: float, beta: float, lmap: LandenMap) -> TransformedParams:
    """Parameters of the single cnoidal wave equal to the (alpha, beta) superposition.

        alpha_tilde = alpha / gamma
        c_tilde     = b_p * alpha^2        (b_p = 8 - 4m - 6*beta + 12*A)
        beta_tilde  = beta*gamma^2 + 2*gamma^2 * sum_r a_p(r)
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    beta = float(beta)
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta!r}")
    b_p = 8.0 - 4.0 * lmap.m - 6.0 * beta + 12.0 * lmap.A
    g2 = lmap.gamma**2
    return TransformedParams(
        alpha_tilde=alpha / lmap.gamma,
        c_tilde=b_p * alpha**2,
        beta_tilde=beta * g2 + 2.0 * g2 * lmap.cyclic_sum,
        m_tilde=lmap.m_tilde,
    )
