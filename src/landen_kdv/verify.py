"""Quantitative checks: KdV residuals, superposition equivalence, limits.

The residual of u_t - 6 u u_x + u_xxx is evaluated with Fourier-series
derivatives in x and the analytic traveling-wave relation u_t = -V u_x in
t, so a reported residual measures the SOLUTION (and its velocity law),
not a time-stepping scheme.  The suite layer packages individual checks
into deterministic, JSONL-serializable results for the CLI.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .elliptic import _dn, complete_K
from .errors import AliasingWarning, DomainError, PeriodMismatchError
from .fourier import (
    PeriodicGrid,
    _derivative_of_spectrum,
    drop_noise_floor,
    fft,
    high_mode_energy_fraction,
)
from .landen import (
    LandenMap,
    _dn_on_lattice,
    _power_sum,
    cyclic_sums,
    landen_map,
    transform_params,
)
from .waves import DnWaveParams, PmWaveParams, _pm_as_dn2, u_p, u_pm

# Default tolerance profile; every suite check cites one entry by key.
# Overrides replace values, never the comparison direction.
TOLERANCES: dict[str, float] = {
    "dn_identity": 1e-10,
    "dn2_identity": 1e-10,
    "p2_closed_form": 1e-12,
    "cyclic_constancy": 1e-10,
    "quarter_period_product": 1e-11,
    "residual_u1": 1e-9,
    "residual_up": 1e-8,
    "residual_upm": 1e-7,
    "residual_upm_rejected": 1e-3,
    "residual_non_solution": 1e-2,
    "equivalence": 1e-9,
    "soliton_limit": 1e-5,
    "soliton_exact": 1e-12,
}

# Time slices inspected by equivalence_check, relative to its base t.
_EQUIV_SLICES = (0.0, 0.1, 0.5)

# Top-third energy fraction above which kdv_residual warns of aliasing.
ALIAS_THRESHOLD = 1e-12

# Half-width in alpha*x of the window soliton_limit_check compares on.
_SOLITON_WINDOW = 5.0

# Suite parameter grids.  Small enough to run in seconds, wide enough to
# cover the claimed (p, m) ranges.  p starts at 2: landen_map(1, m) is the
# identity and transform_params returns the p = 1 wave itself, so a p = 1
# line would compare a value with itself and read 0 whatever the code did.
_IDENTITY_PS = range(2, 9)
_IDENTITY_MS = (0.1, 0.3, 0.5, 0.7, 0.9)
_EQUIV_PS = range(2, 7)
_EQUIV_MS = (0.2, 0.5, 0.8, 0.9)
_EQUIV_AB = ((1.0, 0.0), (1.7, -0.4), (2.0, 1.0))
# alpha != 1 so the as-written u_pm speed q1*alpha genuinely differs from
# q1*alpha^2 (they coincide at alpha = 1, where no separation is possible)
_UPM_ALPHA = 1.3
_UPM_MS = (0.2, 0.5, 0.8)


@dataclass(frozen=True)
class ResidualReport:
    """Norms of the KdV residual on one grid at one time.

    ``scale`` is the largest Linf norm among the three equation terms, so
    ``normalized`` compares the residual against the size of what must
    cancel.
    """

    linf: float
    scale: float
    normalized: float


@dataclass(frozen=True)
class TravelingProfile:
    """Ad-hoc traveling field u(x, t) = profile(x - velocity*t).

    Lets the residual machinery run on non-solutions (sanity separation)
    and on synthetic fields with a trial velocity.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    velocity: float
    spatial_period: float

    def sample(self, grid: PeriodicGrid, t: float) -> np.ndarray:
        return np.asarray(self.profile(grid.x - self.velocity * t), dtype=float)


def kdv_residual(wave, grid: PeriodicGrid, t: float = 0.0) -> ResidualReport:
    """Residual norms of u_t - 6 u u_x + u_xxx for a traveling-wave sampler.

    The grid length must be an integer number of the wave's spatial
    periods, or Fourier differentiation silently produces garbage; that
    case raises instead.  The field is transformed once; if no mode an odd
    derivative keeps clears the drop floor, the field is flat, every term
    is zero and the residual measures nothing, so it raises too.  Warns
    when the top-third band carries enough energy for products to alias.
    """
    period = wave.spatial_period
    # a nan, infinite or non-positive period holds no whole periods and is
    # never divided by
    ratio = grid.L / period if 0.0 < period < math.inf else 0.0
    if abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)) or round(ratio) < 1:
        raise PeriodMismatchError(
            f"grid length {grid.L!r} is not an integer multiple of the "
            f"spatial period {period!r}"
        )
    u = np.asarray(wave.sample(grid, t), dtype=float)
    u_hat = drop_noise_floor(fft(u))
    # every mode an odd derivative keeps: all but the mean and Nyquist, in both
    # halves, since the floor may keep one of a conjugate pair and drop the other
    if not np.any(np.delete(u_hat, (0, grid.N // 2))):
        raise DomainError("field is constant to roundoff on this grid; "
                          "its residual measures nothing")
    frac = high_mode_energy_fraction(u_hat)
    if frac > ALIAS_THRESHOLD:
        warnings.warn(f"top-third modes hold {frac:.3e} of spectral energy; nonlinear "
                      "products will alias on this grid", AliasingWarning, stacklevel=2)
    u_x = _derivative_of_spectrum(u_hat, grid.k, 1)
    u_xxx = _derivative_of_spectrum(u_hat, grid.k, 3)
    u_t = -wave.velocity * u_x
    residual = u_t - 6.0 * u * u_x + u_xxx
    scale = max(float(np.max(np.abs(term))) for term in (u_t, 6.0 * u * u_x, u_xxx))
    linf = float(np.max(np.abs(residual)))
    return ResidualReport(linf=linf, scale=scale, normalized=linf / scale)


def equivalence_check(params: DnWaveParams, grid: PeriodicGrid, t: float = 0.0) -> float:
    """Max pointwise gap between u_p and the single wave from transform_params.

    Both sides read the cached landen_map(p, m).  Evaluates both waves at
    the time slices t + {0, 0.1, 0.5} as (3, N) stacks and takes the
    worst.  The single wave moves at its own p = 1 speed, so the later
    slices test b_p*alpha^2 against it; a small result over full periods
    is the package's core claim.
    """
    single = transform_params(params.alpha, params.beta, landen_map(params.p, params.m))
    ts = t + np.asarray(_EQUIV_SLICES)[:, np.newaxis]
    return float(np.max(np.abs(params.sample(grid, ts) - single.sample(grid, ts))))


def soliton_limit_check(alpha: float, beta: float, epsilon: float = 1e-12) -> float:
    """Deviation of u1 (u_p at p = 1) at m = 1 - epsilon from the sech^2 soliton.

    Compares on the window |alpha*x| <= 5 at t = 0.  epsilon = 0 exercises
    the exact hyperbolic path and must agree to roundoff.
    """
    if not 0.0 <= epsilon < 1.0:
        raise DomainError(f"epsilon must lie in [0, 1), got {epsilon!r}")
    params = DnWaveParams(alpha=alpha, beta=beta, m=1.0 - epsilon, p=1)
    x = np.linspace(-_SOLITON_WINDOW / alpha, _SOLITON_WINDOW / alpha, 1001)
    u = u_p(x, 0.0, params)
    sech = 1.0 / np.cosh(alpha * x)
    reference = -2.0 * alpha**2 * sech**2 + beta * alpha**2
    return float(np.max(np.abs(u - reference)))


# ---------------------------------------------------------------------------
# Suite layer


@dataclass(frozen=True)
class CheckResult:
    """One executed check, ready for JSONL serialization."""

    check: str
    params: dict
    metric: float
    tol: float
    passed: bool

    def json_line(self) -> str:
        return json.dumps(
            {"check": self.check, "params": self.params, "metric": self.metric,
             "tol": self.tol, "pass": self.passed},
            sort_keys=True,
        )


@dataclass(frozen=True)
class Check:
    """A named metric, the keyword arguments it runs on, and its tolerance key.

    ``params`` are also what the report says was checked.  ``lower_bound``
    flips the comparison: the check passes when the metric EXCEEDS the
    tolerance (used for separation properties, where a small value would
    mean the discriminating signal vanished).
    """

    name: str
    metric: Callable[..., float]
    params: dict
    tol_key: str
    lower_bound: bool = False

    def run(self, tolerances: dict[str, float]) -> CheckResult:
        tol = tolerances[self.tol_key]
        metric = float(self.metric(**self.params))
        passed = metric >= tol if self.lower_bound else metric <= tol
        params = dict(self.params)
        if self.lower_bound:
            params["bound"] = "lower"
        return CheckResult(check=self.name, params=params, metric=metric,
                           tol=tol, passed=passed)


def _identity_grid(m_tilde: float) -> np.ndarray:
    # 512 points across two periods of dn(., m_tilde)
    return np.linspace(0.0, 4.0 * complete_K(m_tilde), 512, endpoint=False)


# Fresh constancy probes, denser than landen._PROBES (0.1 + 0.25i) and at
# least 0.02 from each of them: 0.07 + 0.2j - 0.1 - 0.25i = (20j - 25i - 3)/100,
# and 20j - 25i is a multiple of 5.
_CONSTANCY_PROBES = 0.07 + 0.2 * np.arange(16)


# keyed on the map's value, not on (p, m): a map rebuilt with other values is
# a new entry.  The dn, dn^2 and constancy lines of one map read the same two
# kernel calls; a verify --suite all run fills 35 entries of three floats each
@lru_cache(maxsize=1024)
def _identity_gaps(lmap: LandenMap) -> tuple[float, float, float]:
    """Max gaps of the dn identity and of its square, and the cyclic sums' spread.

    dn(x, m_tilde) is evaluated once, and the shift lattice at gamma*x and
    at _CONSTANCY_PROBES in one more call.  The identity columns serve both
    sides: dn_landen_rhs and dn2_landen_rhs are the two power sums of that
    lattice.  The probe columns give the largest std of a cyclic sum.
    """
    x = _identity_grid(lmap.m_tilde)
    lhs = _dn(x, lmap.m_tilde)
    lattice = _dn_on_lattice(np.concatenate((lmap.gamma * x, _CONSTANCY_PROBES)),
                             lmap.shifts, lmap.m)
    d, probes = lattice[:, :x.size], lattice[:, x.size:]
    dn_gap = np.abs(lhs - _power_sum(d, lmap, 1, 0.0)).max()
    dn2_gap = np.abs(lhs**2 - _power_sum(d, lmap, 2, lmap.cyclic_sum)).max()
    spread = np.max(np.std(cyclic_sums(probes), axis=1), initial=0.0)
    return float(dn_gap), float(dn2_gap), float(spread)


def _dn_identity_metric(p: int, m: float) -> float:
    return _identity_gaps(landen_map(p, m))[0]


def _dn2_identity_metric(p: int, m: float) -> float:
    return _identity_gaps(landen_map(p, m))[1]


def _p2_closed_form_metric(p: int, m: float) -> float:
    # the descending Landen closed form holds for p = 2 only
    lmap = landen_map(p, m)
    kp = math.sqrt(1.0 - m)
    gamma_exact = 1.0 / (1.0 + kp)
    m_tilde_exact = ((1.0 - kp) / (1.0 + kp)) ** 2
    return max(abs(lmap.gamma - gamma_exact), abs(lmap.m_tilde - m_tilde_exact))


def _cyclic_constancy_metric(p: int, m: float) -> float:
    return _identity_gaps(landen_map(p, m))[2]


def _quarter_period_metric(m: float) -> float:
    big_k = complete_K(m)
    x = np.linspace(0.0, 2.0 * big_k, 257)
    # rows x and x + K, from one kernel call
    d = _dn(x + np.array([[0.0], [big_k]]), m)
    return float(np.max(np.abs(d[0] * d[1] - math.sqrt(1.0 - m))))


def _residual_up_metric(alpha: float, beta: float, m: float, N: int, p: int = 1) -> float:
    params = DnWaveParams(alpha=alpha, beta=beta, m=m, p=p)
    return kdv_residual(params, params.natural_grid(N)).normalized


def _residual_non_solution_metric(profile: str, m: float) -> float:
    # dn^3 with the cnoidal velocity law is not a solution; the residual
    # machinery must say so loudly
    if profile != "dn^3":
        raise DomainError(f"unknown non-solution profile {profile!r}")
    # the speed and one period of the single wave dn^2: b_1 = 8 - 4m, 2K(m)
    u1 = DnWaveParams(alpha=1.0, beta=0.0, m=m)
    grid = u1.natural_grid(256)
    wave = TravelingProfile(profile=lambda xs: _dn(xs, m) ** 3,
                            velocity=u1.velocity, spatial_period=grid.L)
    return kdv_residual(wave, grid).normalized


def _as_written(params: PmWaveParams) -> TravelingProfile:
    """u_pm under the source formula's speed q1*alpha, which fails the PDE."""
    return TravelingProfile(lambda xs: u_pm(xs, 0.0, params),
                            params.q1 * params.alpha, params.spatial_period)


def _upm_wave(alpha: float, m: float, sign: int, scaling: str):
    """The u_pm wave at speed q1*alpha^2 ("standard") or q1*alpha ("as_written")."""
    params = PmWaveParams(alpha=alpha, m=m, sign=sign)
    if scaling not in ("standard", "as_written"):
        raise DomainError(f"unknown u_pm scaling {scaling!r}")
    return _as_written(params) if scaling == "as_written" else params


def _residual_upm_metric(alpha: float, m: float, sign: int, scaling: str) -> float:
    wave = _upm_wave(alpha, m, sign, scaling)
    return kdv_residual(wave, PeriodicGrid(N=512, L=wave.spatial_period), t=0.1).normalized


def _upm_dn2_identity_metric(alpha: float, m: float, sign: int, N: int) -> float:
    params = PmWaveParams(alpha=alpha, m=m, sign=sign)
    dn_params, offset = _pm_as_dn2(params, 1)
    x = params.natural_grid(N).x
    return float(np.max(np.abs(u_pm(x, 0.0, params) - u_p(x + offset, 0.0, dn_params))))


def _upm_sum(params: PmWaveParams, p: int) -> Callable[[np.ndarray], np.ndarray]:
    """sum_i u_pm(x + i*spatial_period/p) at t = 0, the p phases in one kernel call."""
    offsets = np.arange(p)[:, np.newaxis] * params.spatial_period / p
    return lambda xs: np.sum(u_pm(xs + offsets, 0.0, params), axis=0)


def _residual_upm_sum_metric(p: int, alpha: float, m: float, sign: int, N: int) -> float:
    # the sum, travelling at the speed of its dn^2 form, must solve the PDE
    params = PmWaveParams(alpha=alpha, m=m, sign=sign)
    wave = TravelingProfile(_upm_sum(params, p), _pm_as_dn2(params, p)[0].velocity,
                            params.spatial_period)
    return kdv_residual(wave, params.natural_grid(N)).normalized


def _equivalence_metric(p: int, m: float, alpha: float, beta: float, t: list) -> float:
    if tuple(t) != _EQUIV_SLICES:
        raise DomainError(f"equivalence slices are {list(_EQUIV_SLICES)}, got {t!r}")
    params = DnWaveParams(alpha=alpha, beta=beta, m=m, p=p)
    grid = params.natural_grid(512, periods=2)
    return equivalence_check(params, grid, t=0.0)


def suite_identities() -> list[Check]:
    pms = [(p, m) for p in _IDENTITY_PS for m in _IDENTITY_MS]
    checks = [Check("dn_identity", _dn_identity_metric, {"p": p, "m": m}, "dn_identity")
              for p, m in pms]
    checks += [Check("dn2_identity", _dn2_identity_metric, {"p": p, "m": m}, "dn2_identity")
               for p, m in pms]
    checks += [Check("p2_closed_form", _p2_closed_form_metric, {"p": 2, "m": m},
                     "p2_closed_form") for m in _IDENTITY_MS]
    checks += [Check("cyclic_constancy", _cyclic_constancy_metric, {"p": p, "m": m},
                     "cyclic_constancy") for p, m in pms]
    checks += [Check("quarter_period_product", _quarter_period_metric, {"m": m},
                     "quarter_period_product") for m in _IDENTITY_MS]
    checks += [Check("upm_dn2_identity", _upm_dn2_identity_metric,
                     {"alpha": _UPM_ALPHA, "m": m, "sign": sign, "N": 256}, "dn2_identity")
               for m in _UPM_MS for sign in (1, -1)]
    return checks


def suite_kdv() -> list[Check]:
    checks = [
        Check("residual_u1", _residual_up_metric,
              {"alpha": 1.0, "beta": 0.0, "m": 0.5, "N": 256}, "residual_u1"),
        Check("residual_up", _residual_up_metric,
              {"p": 3, "alpha": 1.0, "beta": 0.2, "m": 0.7, "N": 256}, "residual_up"),
        # alpha != 1 and p * alpha = 3.9: a period formula that misplaces
        # alpha builds a grid the wave does not fit
        Check("residual_up", _residual_up_metric,
              {"p": 3, "alpha": 1.3, "beta": 0.2, "m": 0.7, "N": 256}, "residual_up"),
        Check("residual_non_solution", _residual_non_solution_metric,
              {"profile": "dn^3", "m": 0.5}, "residual_non_solution", lower_bound=True),
    ]
    checks += [Check(name, _residual_upm_metric,
                     {"alpha": _UPM_ALPHA, "m": m, "sign": sign, "scaling": scaling},
                     name, lower_bound=scaling == "as_written")
               for m in _UPM_MS for sign in (1, -1)
               for name, scaling in (("residual_upm", "standard"),
                                     ("residual_upm_rejected", "as_written"))]
    checks += [Check("residual_upm_sum", _residual_upm_sum_metric,
                     {"p": p, "alpha": _UPM_ALPHA, "m": m, "sign": 1, "N": 256}, "residual_up")
               for p in (2, 3) for m in _UPM_MS]
    return checks


def suite_equivalence() -> list[Check]:
    return [Check("equivalence", _equivalence_metric,
                  {"p": p, "m": m, "alpha": alpha, "beta": beta, "t": list(_EQUIV_SLICES)},
                  "equivalence")
            for p in _EQUIV_PS for m in _EQUIV_MS for alpha, beta in _EQUIV_AB]


def suite_limits() -> list[Check]:
    return [
        Check("soliton_limit", soliton_limit_check,
              {"alpha": 1.0, "beta": 0.0, "epsilon": 1e-12}, "soliton_limit"),
        Check("soliton_limit", soliton_limit_check,
              {"alpha": 2.0, "beta": 1.0, "epsilon": 1e-12}, "soliton_limit"),
        Check("soliton_exact", soliton_limit_check,
              {"alpha": 1.0, "beta": 0.0, "epsilon": 0.0}, "soliton_exact"),
    ]


SUITES: dict[str, Callable[[], list[Check]]] = {
    "identities": suite_identities,
    "kdv": suite_kdv,
    "equivalence": suite_equivalence,
    "limits": suite_limits,
}


def run_suite(name: str, tolerances: dict[str, float] | None = None) -> list[CheckResult]:
    """Execute a named suite ("all" concatenates SUITES in insertion order).

    Results keep the build order of the checks, so identical inputs
    produce identical reports.  An override must be finite and positive:
    inf or a non-positive bound would pass its checks whatever the metric.
    """
    if name == "all":
        checks = [c for build in SUITES.values() for c in build()]
    elif name in SUITES:
        checks = SUITES[name]()
    else:
        raise DomainError(f"unknown suite {name!r}; choose from "
                          f"{sorted(SUITES)} or 'all'")
    tol = dict(TOLERANCES)
    for key, value in (tolerances or {}).items():
        if key not in tol:
            raise DomainError(f"unknown tolerance name {key!r}")
        try:  # True is an int, not a tolerance
            bound = math.nan if isinstance(value, (bool, np.bool_)) else float(value)
        except (TypeError, ValueError):
            bound = math.nan
        if not (math.isfinite(bound) and bound > 0.0):
            raise DomainError(f"tolerance {key!r} must be finite and > 0, got {value!r}")
        tol[key] = bound
    return [c.run(tol) for c in checks]
