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
degrade for large |x|.  That ladder is the AGM behind K and E written in
modulus form, so one memo entry per m (_modulus) holds K(m), E(m) and the
ladder, and a kernel call looks m up once.

jacobi_sn_cn_dn is the one kernel entry; every caller in the package
reaches an ascent through it.  Two ascents share its front end
(_ladder_base: the checks, the m = 1 hyperbolic branch and the reduction),
and the keyword dn_only picks one of them once, at entry.  By default it
carries sn, cn and dn up every level, for u_pm, the one caller that reads
sn and cn.  _dn_ascent serves the callers that read dn alone: each level's dn is (1 - t)/(1 + t) with t = k sn^2 from the level
below (DLMF 22.7(i)), so it carries only the sn chain, forms dn once at
the top level and needs no cos and, below a non-empty ladder, no sqrt.
It keeps every operation it does perform in the same order on the same
operands, so jacobi_sn_cn_dn(x, m, dn_only=True) equals
jacobi_sn_cn_dn(x, m)[2] bit for bit.  The two ascents stay separate
loops rather than one loop that branches per level on what the caller
reads.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, _require_real

# Ladder levels below this contribute less than one ulp to the ascent.
_LADDER_FLOOR = 1e-16


def _check_m(m: float) -> float:
    return _require_real(m, "modulus parameter", "lie in [0, 1]", lambda m: 0.0 <= m <= 1.0)


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


# keyed on float m; one verify --suite all run fills 62 entries.  A cold
# landen_map asks for m twice, from the nome and from the kernel's argument
# reduction, and the second ask runs no AGM
@lru_cache(maxsize=1024)
def _modulus(m: float) -> tuple[float, float, tuple[float, ...], float]:
    """K(m), E(m) and the descending ladder of m; 0 <= m < 1.

    K and E come from one AGM run.  The ladder is that AGM in modulus
    form: k_{j+1} = k_j^2 / (1 + k'_j)^2 from k_1 derived from m, stopping
    once the squared modulus drops below ``_LADDER_FLOOR``; it is kept as
    the moduli (top first) and the parameter left at the bottom.
    """
    m = _check_m(m)
    if m == 1.0:
        raise DomainError("K(m) diverges at m = 1")
    a, c2_sum = _agm(math.sqrt(1.0 - m))
    big_k = math.pi / (2.0 * a)
    ks: list[float] = []
    m_j = m
    while m_j > _LADDER_FLOOR:
        kp = math.sqrt(1.0 - m_j)
        k = m_j / (1.0 + kp) ** 2
        ks.append(k)
        m_j = k * k
    return big_k, big_k * (1.0 - c2_sum), tuple(ks), m_j


def complete_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m).

    Computed as pi / (2 * AGM(1, sqrt(1 - m))).  The AGM converges
    quadratically, so a handful of iterations reach machine precision.
    Domain: 0 <= m < 1 (K diverges logarithmically as m -> 1).
    """
    return _modulus(m)[0]


def complete_E(m: float) -> float:
    """Complete elliptic integral of the second kind, E(m), by the AGM.

    E = K (1 - sum_n 2^(n-1) c_n^2), from the AGM run that gives K;
    domain 0 <= m < 1.
    """
    return _modulus(m)[1]


def _ladder_base(x, m: float):
    """The front end both ascents share: checks, m = 1, argument reduction.

    Returns (x, sech(x), None) at m = 1, where sech is both cn and dn, and
    otherwise (x, z, (ks, m_bottom)) with z the argument at the base of
    the ladder: x reduced mod 4K, then divided by 1 + k at every level.
    x comes back as a float array of ndim >= 1 and is never written to.
    """
    m = _check_m(m)
    # 1-d at least: the in-place steps of the ascents need array outputs.
    # The reshape, the method .all() and np.rint below are the operations of
    # np.atleast_1d, np.all and np.round without their Python-level
    # wrappers, which cost ~5 us a call
    x_arr = np.asarray(x, dtype=float)
    if x_arr.ndim == 0:
        x_arr = x_arr.reshape(1)
    if not np.isfinite(x_arr).all():
        raise DomainError("argument must be finite")
    if m == 1.0:
        # cosh overflows to inf for |x| > ~710, where 1/inf = 0 is sech
        with np.errstate(over="ignore"):
            return x_arr, 1.0 / np.cosh(x_arr), None
    big_k, _, ks, m_bottom = _modulus(m)
    # reduce mod the real period 4K; |z| <= 2K keeps the seed accurate
    period = 4.0 * big_k
    z = np.divide(x_arr, period)
    np.rint(z, out=z)
    z *= period
    np.subtract(x_arr, z, out=z)
    for k in ks:
        z /= 1.0 + k
    return x_arr, z, (ks, m_bottom)


def jacobi_sn_cn_dn(x, m: float, *, dn_only: bool = False):
    """sn, cn and dn of x with modulus parameter m, elementwise.

    ``x`` may be a scalar or an ndarray of any shape; scalars come back as
    floats.  The input is never written to.  Handles the degenerate ends
    exactly: m = 0 gives (sin, cos, 1) and m = 1 gives (tanh, sech, sech).
    ``dn_only=True`` returns dn alone, from the ascent that carries only
    the sn chain: the same bits as ``jacobi_sn_cn_dn(x, m)[2]`` at about
    half the cost per point.
    """
    x_arr, z, ladder = _ladder_base(x, m)
    if dn_only:
        d = _dn_ascent(z, ladder)
        return float(d[0]) if np.ndim(x) == 0 else d
    if ladder is None:  # m = 1, z = sech(x)
        s, c, d = np.tanh(x_arr), z, z.copy()
    else:
        ks, m_bottom = ladder
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


def _dn_ascent(z, ladder):
    """dn alone from _ladder_base's z and ladder, bit for bit the full ascent's.

    The sn chain of jacobi_sn_cn_dn's ascent with the same operations in
    the same order; dn is formed once, from the top level's t, and the top
    level's own sn update is skipped.
    """
    if ladder is None:  # m = 1, z = sech(x)
        return z
    ks, m_bottom = ladder
    s = np.sin(z, out=z)
    if not ks:
        # empty ladder (m <= _LADDER_FLOOR): dn = sqrt(1 - m sn^2) at the seed
        return np.sqrt(1.0 - m_bottom * s * s)
    t = np.empty_like(s)
    denom = np.empty_like(s)
    for k in reversed(ks[1:]):
        np.multiply(k, s, out=t)
        t *= s
        np.add(1.0, t, out=denom)
        s *= 1.0 + k
        s /= denom
    np.multiply(ks[0], s, out=t)
    t *= s
    np.add(1.0, t, out=denom)
    d = np.subtract(1.0, t, out=s)
    d /= denom
    return d
