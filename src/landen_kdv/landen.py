"""Generalized p-term Landen maps for dn and the derived wave constants.

A p-term map relates a sum of p equally shifted dn functions at modulus
parameter m to a single dn at a smaller parameter m_tilde:

    dn(x, m_tilde) = gamma * sum_i dn(gamma*x + 2*(i-1)*K(m)/p, m)

The map takes the nome q to q^p (DLMF 22.7(iii), 20.2); gamma and
m_tilde come from that nome.  Squaring the identity brings in the cyclic
constants a_p(r): sums of products of dn values a fixed shift apart,
independent of x.  The shift lattice gives the shifts, the a_p(r) and two
witnesses: gamma * sum_i dn(shifts[i]) = 1 (the identity at x = 0), and A
from the a_p(r) against A from the nome.  All pure, cached per (p, m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elliptic import _agm, _check_m, _modulus, complete_E, jacobi_sn_cn_dn
from .errors import ConsistencyError, _require_integer, _require_real

# Constancy probes for a_p(r): scattered points chosen off the K/p shift
# lattice, where a symmetry could mask genuine x-dependence.  Column 0 of
# the lattice stack landen_map evaluates is u = 0, the dn(shifts) column.
_PROBES = np.asarray([0.1 + 0.25 * j for j in range(8)])
_LATTICE_U = np.concatenate(([0.0], _PROBES))
_CONSTANCY_TOL = 1e-9

# Dual determinations of A(p, m) must agree this closely.
_A_AGREEMENT_TOL = 1e-8

# |gamma * sum_i dn(shifts[i]) - 1| bound: at most 8.7e-11 measured for p <= 32
# (at m = 1 - 1e-12), and a 1e-9 relative gamma error must fail either way.
_GAMMA_WITNESS_TOL = 5e-10


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


def _dn_on_lattice(x, shifts: tuple[float, ...], m: float) -> np.ndarray:
    """The package's one shifted dn stack: dn(x + shifts[i], m) as shape (p, *x.shape)."""
    # np.asarray first: np.reshape on a tuple takes numpy's slow wrapping path
    lattice = x + np.asarray(shifts).reshape((len(shifts),) + (1,) * np.ndim(x))
    return jacobi_sn_cn_dn(lattice, m, dn_only=True)


def cyclic_sums(d: np.ndarray) -> np.ndarray:
    """sum_i d[i, j] * d[i+r mod p, j] for a lattice stack from _dn_on_lattice.

    With d[i, j] = dn(u_j + shifts[i], m), row r-1 holds the sums for
    r = 1..p-1, so the result has shape (p - 1, len(u)); each row is
    constant when the lattice is right.  Every partner row is gathered at
    once into a (p - 1, p, len(u)) array, which is meant for probe stacks
    (len(u) <= 16: 127 KB at p = 32), not for evaluation grids.
    """
    p = len(d)
    partners = (np.arange(p) + np.arange(1, p)[:, np.newaxis]) % p
    return np.sum(d * d[partners], axis=1)


def _cyclic_constants(p: int, m: float, d: np.ndarray) -> tuple[float, ...]:
    """a_p(r) for r = 1..p-1, the means of the cyclic sums over _PROBES.

    d holds the lattice at _PROBES.  Each sum is evaluated at eight
    scattered u values; any drift beyond tolerance means the convention is
    wrong for this (p, m) and is an error, not a warning.
    """
    sums = cyclic_sums(d)
    spread = np.std(sums, axis=1)
    varying = np.flatnonzero(~(spread <= _CONSTANCY_TOL))
    if varying.size:
        r = int(varying[0]) + 1
        raise ConsistencyError(
            f"a_{p}({r}) varies with x at m={m}: std {spread[r - 1]:.3e}"
        )
    return tuple(np.mean(sums, axis=1).tolist())


def _consistency_A(m: float, gamma: float, m_tilde: float, cyclic_sum: float) -> float:
    """A from 12A = (8 - 4*m_tilde)/gamma^2 - (8 - 4m) - 12*sum_r a_p(r).

    The beta terms cancel identically when the transformed offset
    beta_tilde = beta*gamma^2 + 2*gamma^2*sum_r a_p(r) is substituted into
    the single-cnoidal speed.
    """
    return ((8.0 - 4.0 * m_tilde) / gamma**2 - (8.0 - 4.0 * m)) / 12.0 - cyclic_sum


def _nome(p: int, m: float) -> tuple[float, float, float, float]:
    """K(m), gamma, m_tilde and A(p, m) from the nome relation alone.

    The target nome is q~ = q^p with q = exp(-pi K(1-m)/K(m)).  Then
    m~ = (theta_2(q~)/theta_3(q~))^4 and K(m~) = (pi/2) theta_3(q~)^2
    (DLMF 20.9.1-2), gamma = K(m)/(p K(m~)), and averaging the squared
    identity over a period, where dn^2 has mean E/K (DLMF 22.16(ii)), gives
    sum_r a_p(r) = E(m~)/(gamma^2 K(m~)) - p E(m)/K(m).  Nothing cancels,
    so m~ keeps its relative precision while q~ stays a normal float.
    """
    big_k, e_m, _, _ = _modulus(m)
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
    return big_k, gamma, m_tilde, _consistency_A(m, gamma, m_tilde, cyclic_sum)


# keyed on float m; one verify --suite all run builds 77 maps.  Typed, so
# a cached (2, 0.5) cannot answer (2.0, 0.5) or (True, m), which p refuses
@lru_cache(maxsize=1024, typed=True)
def landen_map(p: int, m: float) -> LandenMap:
    """Build the full Landen data for (p, m), with gamma and m_tilde from _nome.

    p = 1 is the identity map on 0 <= m <= 1; p >= 2 needs 0 < m < 1.  For
    p >= 2, dn on the shift lattice (no dn is shared with the nome) must
    give gamma * sum_i dn(shifts[i]) = 1 within 5e-10 and the nome's A
    within 1e-8; either miss, or a NaN in either, raises rather than
    returning a guess.
    """
    p = _require_integer(p, "p", 1)
    if p == 1:
        # identity map; assign exactly rather than route m through the nome
        m = _check_m(m)
        return LandenMap(p=1, m=m, gamma=1.0, m_tilde=m, shifts=(0.0,), a=(), A=0.0)
    m = _require_real(m, "modulus parameter", "lie in (0, 1)", lambda m: 0.0 < m < 1.0)
    big_k, gamma, m_tilde, a_nome = _nome(p, m)
    shifts = tuple(2.0 * i * big_k / p for i in range(p))
    d = _dn_on_lattice(_LATTICE_U, shifts, m)
    witness = abs(gamma * math.fsum(d[:, 0]) - 1.0)
    if not witness <= _GAMMA_WITNESS_TOL:
        raise ConsistencyError(
            f"gamma({p}, {m}) from the nome misses the lattice by {witness:.3e}")
    a = _cyclic_constants(p, m, d[:, 1:])

    a_lattice = _consistency_A(m, gamma, m_tilde, math.fsum(a))
    if not abs(a_lattice - a_nome) <= _A_AGREEMENT_TOL:
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


def _power_sum(d: np.ndarray, lmap: LandenMap, power: int, start: float) -> np.ndarray:
    """gamma^power * (start + sum_i d[i]^power) for a stack of dn on the shift lattice."""
    total = np.full_like(d[0], start)
    for row in d:
        total += row**power
    total *= lmap.gamma**power
    return total


def _lattice_power_sum(x, lmap: LandenMap, power: int, start: float):
    """gamma^power * (start + sum_i dn^power(gamma*x + shifts[i], m))."""
    x_arr = np.asarray(x, dtype=float)
    d = _dn_on_lattice(lmap.gamma * x_arr, lmap.shifts, lmap.m)
    total = _power_sum(d, lmap, power, start)
    return float(total) if np.ndim(x) == 0 else total


def dn_landen_rhs(x, lmap: LandenMap):
    """Right side of the dn identity: gamma * sum_i dn(gamma*x + shifts[i], m).

    Equals dn(x, m_tilde) for all real x.  Scalar in, float out; array in,
    array out.
    """
    return _lattice_power_sum(x, lmap, 1, 0.0)


def dn2_landen_rhs(x, lmap: LandenMap):
    """Squared-identity right side: gamma^2 * (sum_i dn^2 + sum_r a_p(r)).

    Equals dn^2(x, m_tilde).  The cross terms of squaring the dn identity
    collapse into the x-independent cyclic constants.
    """
    return _lattice_power_sum(x, lmap, 2, lmap.cyclic_sum)


def transform_params(alpha: float, beta: float, lmap: LandenMap):
    """The single cnoidal wave equal to the (alpha, beta) superposition.

    A DnWaveParams at p = 1 and m_tilde with

        alpha_tilde = alpha / gamma
        beta_tilde  = beta*gamma^2 + 2*gamma^2 * sum_r a_p(r)

    It travels at its own p = 1 speed (8 - 4*m_tilde - 6*beta_tilde) *
    alpha_tilde^2, which reads no A, so comparing it with the superposition's
    speed tests the superposition's b_p.
    """
    # waves.py imports this module
    from .waves import DnWaveParams, _check_alpha, _check_beta

    alpha, beta = _check_alpha(alpha), _check_beta(beta)
    g2 = lmap.gamma**2
    return DnWaveParams(alpha=alpha / lmap.gamma,
                        beta=beta * g2 + 2.0 * g2 * lmap.cyclic_sum, m=lmap.m_tilde)
