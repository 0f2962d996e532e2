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
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .elliptic import complete_K, jacobi_sn_cn_dn
from .errors import DomainError, PeriodMismatchError
from .fourier import PeriodicGrid, fit_traveling_velocity, spectral_derivative
from .landen import (
    LandenMap,
    cyclic_sums,
    dn2_landen_rhs,
    dn_landen_rhs,
    dual_oracle_gap,
    landen_map,
    transform_params,
)
from .waves import DnWaveParams, PmWaveParams, VelocityScaling, u1

# Default tolerance profile; every suite check cites one entry by key.
# Overrides replace values, never the comparison direction.
TOLERANCES: dict[str, float] = {
    "dn_identity": 1e-10,
    "dn2_identity": 1e-10,
    "p2_closed_form": 1e-12,
    "cyclic_constancy": 1e-10,
    "cyclic_symmetry": 1e-10,
    "quarter_period_product": 1e-11,
    "residual_u1": 1e-9,
    "residual_up": 1e-8,
    "residual_upm": 1e-7,
    "residual_upm_rejected": 1e-3,
    "residual_non_solution": 1e-2,
    "dual_oracle_A": 1e-8,
    "equivalence": 1e-9,
    "soliton_limit": 1e-5,
    "soliton_exact": 1e-12,
    "speed_probe": 1.0,
}

# Time slices inspected by equivalence_check, relative to its base t.
_EQUIV_SLICES = (0.0, 0.1, 0.5)

# Suite parameter grids.  Small enough to run in seconds, wide enough to
# cover the claimed (p, m) ranges.
_IDENTITY_PS = range(1, 9)
_IDENTITY_MS = (0.1, 0.3, 0.5, 0.7, 0.9)
_EQUIV_PS = range(1, 7)
_EQUIV_MS = (0.2, 0.5, 0.8, 0.9)
_EQUIV_AB = ((1.0, 0.0), (1.7, -0.4), (2.0, 1.0))
# alpha != 1 so the two u_pm phase scalings genuinely differ (they
# coincide at alpha = 1, where no separation is possible)
_UPM_ALPHA = 1.3
_UPM_MS = (0.2, 0.5, 0.8)


@dataclass(frozen=True)
class ResidualReport:
    """Norms of the KdV residual on one grid at one time.

    ``scale`` is the largest Linf norm among the three equation terms, so
    ``normalized`` compares the residual against the size of what must
    cancel.  ``term_breakdown`` holds the (u_t, 6*u*u_x, u_xxx) Linf norms
    in that order.
    """

    linf: float
    l2: float
    scale: float
    normalized: float
    term_breakdown: tuple[float, float, float]


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
    case raises instead.  A field flat to roundoff leaves every term zero
    and measures nothing, so it raises too.  Warns when the top-third
    spectral band carries enough energy for products to alias.
    """
    period = wave.spatial_period
    ratio = grid.L / period
    if abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)) or round(ratio) < 1:
        raise PeriodMismatchError(
            f"grid length {grid.L!r} is not an integer multiple of the "
            f"spatial period {period!r}"
        )
    u = np.asarray(wave.sample(grid, t), dtype=float)
    grid.warn_if_aliased(u)
    u_x = spectral_derivative(u, grid.L, 1)
    u_xxx = spectral_derivative(u, grid.L, 3)
    u_t = -wave.velocity * u_x
    residual = u_t - 6.0 * u * u_x + u_xxx
    terms = (
        float(np.max(np.abs(u_t))),
        float(np.max(np.abs(6.0 * u * u_x))),
        float(np.max(np.abs(u_xxx))),
    )
    linf = float(np.max(np.abs(residual)))
    l2 = float(np.sqrt(np.mean(residual**2)))
    scale = max(terms)
    if scale == 0.0:
        raise DomainError("field is constant to roundoff on this grid; "
                          "its residual measures nothing")
    return ResidualReport(linf=linf, l2=l2, scale=scale,
                          normalized=linf / scale, term_breakdown=terms)


def equivalence_check(params: DnWaveParams, lmap: LandenMap,
                      grid: PeriodicGrid, t: float = 0.0) -> float:
    """Max pointwise gap between u_p and its single-cnoidal re-expression.

    Evaluates the time slices t + {0, 0.1, 0.5} as one (3, N) stack and
    takes the worst.  The re-expression is -2 at^2 dn^2[at*(x - ct*s), mt]
    + bt*at^2 with (at, ct, bt, mt) from transform_params; a small result
    over full periods is the package's core claim.
    """
    if lmap.p != params.p or lmap.m != float(params.m):
        raise DomainError(
            f"map built for (p={lmap.p}, m={lmap.m}) does not match "
            f"params (p={params.p}, m={params.m})"
        )
    tp = transform_params(params.alpha, params.beta, lmap)
    ts = t + np.asarray(_EQUIV_SLICES)[:, np.newaxis]
    lhs = params.sample(grid, ts)
    xi = tp.alpha_tilde * (grid.x - tp.c_tilde * ts)
    dn_t = jacobi_sn_cn_dn(xi, tp.m_tilde)[2]
    rhs = -2.0 * tp.alpha_tilde**2 * dn_t**2 + tp.beta_tilde * tp.alpha_tilde**2
    return float(np.max(np.abs(lhs - rhs)))


def soliton_limit_check(alpha: float, beta: float, x_range: float = 5.0,
                        epsilon: float = 1e-12) -> float:
    """Deviation of u1 at m = 1 - epsilon from the sech^2 soliton profile.

    Compares on the window |alpha*x| <= x_range at t = 0.  epsilon = 0
    exercises the exact hyperbolic path and must agree to roundoff.
    """
    if x_range <= 0.0:
        raise DomainError(f"x_range must be positive, got {x_range!r}")
    if not 0.0 <= epsilon < 1.0:
        raise DomainError(f"epsilon must lie in [0, 1), got {epsilon!r}")
    params = DnWaveParams(alpha=alpha, beta=beta, m=1.0 - epsilon, p=1)
    x = np.linspace(-x_range / alpha, x_range / alpha, 1001)
    u = u1(x, 0.0, params)
    sech = 1.0 / np.cosh(alpha * x)
    reference = -2.0 * alpha**2 * sech**2 + beta * alpha**2
    return float(np.max(np.abs(u - reference)))


def pm_superposition_velocity_search(
    base: PmWaveParams, p: int, n: int = 512
) -> tuple[float, float]:
    """Best traveling speed for a p-term superposition of u_pm profiles.

    Whether such superpositions travel rigidly at some corrected speed
    (as the dn^2 family does via A(p, m)) is open here; this measures the
    least-squares speed of the t = 0 field and the normalized residual
    that speed leaves, and claims nothing more.
    """
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    grid = PeriodicGrid(N=n, L=base.spatial_period)
    root_m = math.sqrt(base.m)
    offsets = np.arange(p) * base.spatial_period / p

    def profile(xs: np.ndarray) -> np.ndarray:
        # the p phases as rows of one kernel call, summed in phase order
        eta = base.alpha * (xs + offsets[:, np.newaxis])
        s, c, d = jacobi_sn_cn_dn(eta, base.m)
        total = np.zeros_like(xs)
        for i in range(p):
            total += base.m * s[i] * s[i] + base.sign * root_m * c[i] * d[i]
        return base.alpha**2 * total

    v_fit = fit_traveling_velocity(profile(grid.x), grid.L)
    wave = TravelingProfile(profile, v_fit, grid.L)
    return v_fit, kdv_residual(wave, grid).normalized


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
    """A named, deferred metric with its tolerance key.

    ``lower_bound`` flips the comparison: the check passes when the metric
    EXCEEDS the tolerance (used for separation properties, where a small
    value would mean the discriminating signal vanished).
    """

    name: str
    params: dict
    tol_key: str
    fn: Callable[[], float]
    lower_bound: bool = False

    def run(self, tolerances: dict[str, float]) -> CheckResult:
        tol = tolerances[self.tol_key]
        metric = float(self.fn())
        passed = metric >= tol if self.lower_bound else metric <= tol
        params = dict(self.params)
        if self.lower_bound:
            params["bound"] = "lower"
        return CheckResult(check=self.name, params=params, metric=metric,
                           tol=tol, passed=passed)


def _identity_grid(m_tilde: float) -> np.ndarray:
    # 512 points across two periods of dn(., m_tilde)
    return np.linspace(0.0, 4.0 * complete_K(m_tilde), 512, endpoint=False)


def _dn_identity_metric(p: int, m: float) -> float:
    lmap = landen_map(p, m)
    x = _identity_grid(lmap.m_tilde)
    lhs = jacobi_sn_cn_dn(x, lmap.m_tilde)[2]
    return float(np.max(np.abs(lhs - dn_landen_rhs(x, lmap))))


def _dn2_identity_metric(p: int, m: float) -> float:
    lmap = landen_map(p, m)
    x = _identity_grid(lmap.m_tilde)
    lhs = jacobi_sn_cn_dn(x, lmap.m_tilde)[2] ** 2
    return float(np.max(np.abs(lhs - dn2_landen_rhs(x, lmap))))


def _p2_closed_form_metric(m: float) -> float:
    lmap = landen_map(2, m)
    kp = math.sqrt(1.0 - m)
    gamma_exact = 1.0 / (1.0 + kp)
    m_tilde_exact = ((1.0 - kp) / (1.0 + kp)) ** 2
    return max(abs(lmap.gamma - gamma_exact), abs(lmap.m_tilde - m_tilde_exact))


def _cyclic_constancy_metric(p: int, m: float) -> float:
    # fresh probe set, denser than and disjoint from the one used at
    # construction time
    probes = 0.05 + 0.2 * np.arange(16)
    sums = cyclic_sums(m, landen_map(p, m).shifts, probes)
    return max((float(np.std(row)) for row in sums), default=0.0)


def _cyclic_symmetry_metric(p: int, m: float) -> float:
    a = landen_map(p, m).a
    worst = 0.0
    for r in range(1, p):
        worst = max(worst, abs(a[r - 1] - a[p - r - 1]))
    return worst


def _quarter_period_metric(m: float) -> float:
    big_k = complete_K(m)
    x = np.linspace(0.0, 2.0 * big_k, 257)
    d0 = jacobi_sn_cn_dn(x, m)[2]
    d1 = jacobi_sn_cn_dn(x + big_k, m)[2]
    return float(np.max(np.abs(d0 * d1 - math.sqrt(1.0 - m))))


def _residual_u1_metric() -> float:
    params = DnWaveParams(alpha=1.0, beta=0.0, m=0.5, p=1)
    return kdv_residual(params, params.natural_grid(256), t=0.0).normalized


def _residual_up_metric() -> float:
    params = DnWaveParams(alpha=1.0, beta=0.2, m=0.7, p=3)
    return kdv_residual(params, params.natural_grid(256), t=0.0).normalized


def _residual_non_solution_metric() -> float:
    # dn^3 with the cnoidal velocity law is not a solution; the residual
    # machinery must say so loudly
    m = 0.5
    wave = TravelingProfile(
        profile=lambda xs: jacobi_sn_cn_dn(xs, m)[2] ** 3,
        velocity=8.0 - 4.0 * m,
        spatial_period=2.0 * complete_K(m),
    )
    grid = PeriodicGrid(N=256, L=wave.spatial_period)
    return kdv_residual(wave, grid, t=0.0).normalized


def _residual_upm_metric(m: float, sign: int, scaling: VelocityScaling) -> float:
    params = PmWaveParams(alpha=_UPM_ALPHA, m=m, sign=sign)
    wave = params.sampler(scaling)
    grid = params.natural_grid(512)
    return kdv_residual(wave, grid, t=0.1).normalized


def _equivalence_metric(p: int, m: float, alpha: float, beta: float) -> float:
    params = DnWaveParams(alpha=alpha, beta=beta, m=m, p=p)
    grid = params.natural_grid(512, periods=2)
    return equivalence_check(params, landen_map(p, m), grid, t=0.0)


@lru_cache(maxsize=4)
def _speed_probe(p: int) -> tuple[float, float]:
    base = PmWaveParams(alpha=1.0, m=0.5, sign=1)
    return pm_superposition_velocity_search(base, p=p)


def suite_identities() -> list[Check]:
    checks: list[Check] = []
    for p in _IDENTITY_PS:
        for m in _IDENTITY_MS:
            checks.append(Check(
                name="dn_identity", params={"p": p, "m": m}, tol_key="dn_identity",
                fn=lambda p=p, m=m: _dn_identity_metric(p, m)))
    for p in _IDENTITY_PS:
        for m in _IDENTITY_MS:
            checks.append(Check(
                name="dn2_identity", params={"p": p, "m": m}, tol_key="dn2_identity",
                fn=lambda p=p, m=m: _dn2_identity_metric(p, m)))
    for m in _IDENTITY_MS:
        checks.append(Check(
            name="p2_closed_form", params={"p": 2, "m": m}, tol_key="p2_closed_form",
            fn=lambda m=m: _p2_closed_form_metric(m)))
    for p in _IDENTITY_PS:
        for m in _IDENTITY_MS:
            if p >= 2:
                checks.append(Check(
                    name="cyclic_constancy", params={"p": p, "m": m},
                    tol_key="cyclic_constancy",
                    fn=lambda p=p, m=m: _cyclic_constancy_metric(p, m)))
                checks.append(Check(
                    name="cyclic_symmetry", params={"p": p, "m": m},
                    tol_key="cyclic_symmetry",
                    fn=lambda p=p, m=m: _cyclic_symmetry_metric(p, m)))
    for m in _IDENTITY_MS:
        checks.append(Check(
            name="quarter_period_product", params={"m": m},
            tol_key="quarter_period_product",
            fn=lambda m=m: _quarter_period_metric(m)))
    return checks


def suite_kdv() -> list[Check]:
    checks = [
        Check(name="residual_u1", params={"alpha": 1.0, "beta": 0.0, "m": 0.5, "N": 256},
              tol_key="residual_u1", fn=_residual_u1_metric),
        Check(name="residual_up",
              params={"p": 3, "alpha": 1.0, "beta": 0.2, "m": 0.7, "N": 256},
              tol_key="residual_up", fn=_residual_up_metric),
        Check(name="residual_non_solution", params={"profile": "dn^3", "m": 0.5},
              tol_key="residual_non_solution", fn=_residual_non_solution_metric,
              lower_bound=True),
    ]
    for p in (2, 3, 5, 8):
        for m in (0.3, 0.7, 0.9):
            checks.append(Check(
                name="dual_oracle_A", params={"p": p, "m": m}, tol_key="dual_oracle_A",
                fn=lambda p=p, m=m: dual_oracle_gap(p, m)))
    for m in _UPM_MS:
        for sign in (1, -1):
            checks.append(Check(
                name="residual_upm",
                params={"alpha": _UPM_ALPHA, "m": m, "sign": sign,
                        "scaling": "standard"},
                tol_key="residual_upm",
                fn=lambda m=m, s=sign: _residual_upm_metric(m, s, VelocityScaling.STANDARD)))
            checks.append(Check(
                name="residual_upm_rejected",
                params={"alpha": _UPM_ALPHA, "m": m, "sign": sign,
                        "scaling": "as_written"},
                tol_key="residual_upm_rejected",
                fn=lambda m=m, s=sign: _residual_upm_metric(m, s, VelocityScaling.AS_WRITTEN),
                lower_bound=True))
    return checks


def suite_equivalence() -> list[Check]:
    checks: list[Check] = []
    for p in _EQUIV_PS:
        for m in _EQUIV_MS:
            for alpha, beta in _EQUIV_AB:
                checks.append(Check(
                    name="equivalence",
                    params={"p": p, "m": m, "alpha": alpha, "beta": beta,
                            "t": list(_EQUIV_SLICES)},
                    tol_key="equivalence",
                    fn=lambda p=p, m=m, a=alpha, b=beta: _equivalence_metric(p, m, a, b)))
    return checks


def suite_limits() -> list[Check]:
    checks = [
        Check(name="soliton_limit", params={"alpha": 1.0, "beta": 0.0, "epsilon": 1e-12},
              tol_key="soliton_limit",
              fn=lambda: soliton_limit_check(1.0, 0.0)),
        Check(name="soliton_limit", params={"alpha": 2.0, "beta": 1.0, "epsilon": 1e-12},
              tol_key="soliton_limit",
              fn=lambda: soliton_limit_check(2.0, 1.0)),
        Check(name="soliton_exact", params={"alpha": 1.0, "beta": 0.0, "epsilon": 0.0},
              tol_key="soliton_exact",
              fn=lambda: soliton_limit_check(1.0, 0.0, epsilon=0.0)),
    ]
    # informational: fitted speed of p-term u_pm superpositions and the
    # residual that speed leaves; the trivial tolerance means these cannot
    # fail, they only record the measurement.  p = 2 collapses to a pure
    # sn^2 wave (the +/- parts cancel under the half-period shift); p = 3
    # does not, yet still travels rigidly at its fitted speed.
    for p in (2, 3):
        checks.append(Check(
            name="pm_superposition_speed_probe",
            params={"p": p, "alpha": 1.0, "m": 0.5, "sign": 1,
                    "fitted_speed": _speed_probe(p)[0]},
            tol_key="speed_probe",
            fn=lambda p=p: _speed_probe(p)[1]))
    return checks


SUITES: dict[str, Callable[[], list[Check]]] = {
    "identities": suite_identities,
    "kdv": suite_kdv,
    "equivalence": suite_equivalence,
    "limits": suite_limits,
}


def run_suite(name: str, tolerances: dict[str, float] | None = None) -> list[CheckResult]:
    """Execute a named suite ("all" concatenates them in a fixed order).

    Results keep the build order of the checks, so identical inputs
    produce identical reports.
    """
    if name == "all":
        checks = [c for key in ("identities", "kdv", "equivalence", "limits")
                  for c in SUITES[key]()]
    elif name in SUITES:
        checks = SUITES[name]()
    else:
        raise DomainError(f"unknown suite {name!r}; choose from "
                          f"{sorted(SUITES)} or 'all'")
    tol = dict(TOLERANCES)
    for key, value in (tolerances or {}).items():
        if key not in tol:
            raise DomainError(f"unknown tolerance name {key!r}")
        tol[key] = float(value)
    return [c.run(tol) for c in checks]
