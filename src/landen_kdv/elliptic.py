"""Jacobi elliptic functions and the complete integral K, in double precision.

Convention
----------
Every ``m`` in this package is the modulus PARAMETER, m = k^2, where k is
the modulus.  Abramowitz & Stegun chapter 16/17 notation: sn(x|m), K(m).
Some references (and scipy's ``ellipj``) share this convention; others take
k itself, so a value near 1 is ambiguous in the literature.  Here, always m.

Evaluation uses the descending Landen ladder: the modulus is driven to zero
through k_{j+1} = k_j^2 / (1 + k'_j)^2, the argument is rescaled alongside,
the base of the ladder is seeded with circular functions, and one ascending
back-substitution per level recovers (sn, cn, dn) at the original modulus.
Arguments are first reduced modulo the real period 4K so accuracy does not
degrade for large |x|.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

# Ladder levels below this contribute less than one ulp to the ascent.
_LADDER_FLOOR = 1e-16


def _check_m(m: float) -> float:
    m = float(m)
    if not math.isfinite(m) or not 0.0 <= m <= 1.0:
        raise DomainError(f"modulus parameter must lie in [0, 1], got {m!r}")
    return m


def _agm(b: float) -> tuple[float, float]:
    """AGM(1, b) and sum_n 2^(n-1) c_n^2 along it, c_0^2 = 1 - b^2.

    With b = sqrt(1 - m), K(m) = pi / (2 AGM) and E(m) = K(m) (1 - sum)
    (DLMF 19.8.6).  Taking b rather than m lets a caller reach K(1 - m)
    through b = sqrt(m) without rounding 1 - m.
    """
    a, c2, c2_sum = 1.0, (1.0 - b) * (1.0 + b), 0.0
    # capped: for some m the converged gap parks one ulp above the
    # threshold and a bare while-loop never exits
    for n in range(32):
        c2_sum += 2.0 ** (n - 1) * c2
        if abs(a - b) <= 2e-16 * a:
            break
        # c_{n+1} = (a_n - b_n) / 2 = c_n^2 / (4 a_{n+1}), free of cancellation
        a, b, c2 = 0.5 * (a + b), math.sqrt(a * b), (c2 / (2.0 * (a + b))) ** 2
    return a, c2_sum


def _complete_KE(m: float) -> tuple[float, float]:
    """K(m) and E(m) from one AGM run; 0 <= m < 1."""
    m = _check_m(m)
    if m == 1.0:
        raise DomainError("K(m) diverges at m = 1")
    a, c2_sum = _agm(math.sqrt(1.0 - m))
    big_k = math.pi / (2.0 * a)
    return big_k, big_k * (1.0 - c2_sum)


def complete_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m).

    Computed as pi / (2 * AGM(1, sqrt(1 - m))).  The AGM converges
    quadratically, so a handful of iterations reach machine precision.
    Domain: 0 <= m < 1 (K diverges logarithmically as m -> 1).
    """
    return _complete_KE(m)[0]


def complete_E(m: float) -> float:
    """Complete elliptic integral of the second kind, E(m), by the AGM.

    E = K (1 - sum_n 2^(n-1) c_n^2), from the AGM run that gives K;
    domain 0 <= m < 1.
    """
    return _complete_KE(m)[1]


# keyed on float m; one verify --suite all run builds 53 ladders, each
# holding K(m) as well, so a kernel call runs no AGM
@lru_cache(maxsize=1024)
def _modulus_ladder(m: float) -> tuple[tuple[float, ...], float, float]:
    """Descending sequence of moduli k_1, k_2, ..., the residual parameter and K(m).

    Iterates k_{j+1} = k_j^2 / (1 + k'_j)^2 starting from k_1 derived from
    m, stopping once the squared modulus drops below ``_LADDER_FLOOR``.
    Returns the moduli (top first), the parameter left at the bottom and
    the quarter period K(m) that the argument reduction needs (m < 1).
    """
    ks: list[float] = []
    m_j = m
    while m_j > _LADDER_FLOOR:
        kp = math.sqrt(1.0 - m_j)
        k = m_j / (1.0 + kp) ** 2
        ks.append(k)
        m_j = k * k
    return tuple(ks), m_j, complete_K(m)


def jacobi_sn_cn_dn(x, m: float):
    """sn, cn and dn of x with modulus parameter m, elementwise.

    ``x`` may be a scalar or an ndarray of any shape; scalars come back as
    floats.  The input is never written to.  Handles the degenerate ends
    exactly: m = 0 gives (sin, cos, 1) and m = 1 gives (tanh, sech, sech).
    """
    m = _check_m(m)
    # 1-d at least: the in-place steps below need array outputs
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x_arr)):
        raise DomainError("argument must be finite")

    if m == 1.0:
        sech = 1.0 / np.cosh(x_arr)
        s, c, d = np.tanh(x_arr), sech, sech.copy()
    else:
        ks, m_bottom, big_k = _modulus_ladder(m)
        # reduce mod the real period 4K; |z| <= 2K keeps the seed accurate
        period = 4.0 * big_k
        z = np.divide(x_arr, period)
        np.round(z, out=z)
        z *= period
        np.subtract(x_arr, z, out=z)
        for k in ks:
            z /= 1.0 + k
        # updated in place; each product keeps its operand order, as in
        # (k*s)*s and ((1+k)*s)/(1+t), and c takes the previous level's d
        s = np.sin(z)
        c = np.cos(z, out=z)
        t = m_bottom * s * s
        d = np.sqrt(1.0 - t)
        denom = np.empty_like(t)
        for k in reversed(ks):
            # t = k s^2; s, c, d <- (1+k) s, c d, 1-t, each over 1+t
            np.multiply(k, s, out=t)
            t *= s
            np.add(1.0, t, out=denom)
            s *= 1.0 + k
            s /= denom
            c *= d
            c /= denom
            np.subtract(1.0, t, out=d)
            d /= denom

    if np.ndim(x) == 0:
        return float(s[0]), float(c[0]), float(d[0])
    return s, c, d
