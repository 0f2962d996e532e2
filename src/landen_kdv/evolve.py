"""Pseudo-spectral time integration of u_t - 6 u u_x + u_xxx = 0.

Write u = ubar + v, where ubar is the mean of u, which the flow conserves
exactly.  KdV is Galilean invariant: 6 u u_x = 6 ubar v_x + 6 v v_x, and
the first term is linear.  The linear part, dispersion and advection by
the mean, is propagated exactly in spectral space with the integrating
factor exp(i (k^3 + 6 ubar k) t); only the quadratic term 6 v v_x is
stepped, with classical RK4 on the transformed variable.  This removes the
k^3 stiffness and the mean's advection, so the remaining step-size limits
come from the oscillation v: stability, through the nonlinear CFL number
dt * 6 max|u - ubar| * k_max, and accuracy, which integrating-factor
schemes can lose at isolated step sizes even well inside the CFL limit.
A p-term dn^2 sum is mostly its mean: at (p, m, alpha, beta) =
(3, 0.6, 1, -1), max|u| = 5.01 but max|u - ubar| = 0.017.
A run given no step therefore starts from the CFL cap and shrinks the
step until a step-doubling pilot predicts a global error below
``ERROR_TARGET``.  The nonlinear term is always filtered by the 2/3 rule
(``fourier.kept_modes``): the product v^2 scatters energy to wavenumbers
the grid cannot represent, and without the mask those corruptions fold
back into resolved modes and pollute 1e-6 comparisons.

The k = 0 mode is untouched by both the integrating factor and the
nonlinear term (which carry a factor k), so the coefficient u_hat[0],
N times the mean of u, is the same to the last bit after every step, and
ubar = u_hat[0].real / N is one number for the whole run.  The mean of a
sampled field, mean(ifft(u_hat).real), is not: the inverse transform and
the sum round it, so it drifts by a few ulps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InstabilityError
from .fourier import PeriodicGrid, _four_step, _plan, fft, ifft, kept_modes

# Largest nonlinear CFL number, on max|u - ubar|, a run may start with.
# Measured on one full crossing at a fixed step of c times the cap, over
# p in {1, 2, 3}, m in {0.2, 0.5, 0.9, 0.99}, alpha in {0.5, 1, 2} and
# N in {128, 256, 512}: at c = 0.25 none of the 108 runs blows up or ends
# more than 1e-2 of the oscillation off; at 0.3, 3 do and at 0.5, 9 blow
# up, all at N = 512.  Stability also depends on N: at N = 1024 and
# m >= 0.9 runs blow up even at this cap (README).
CFL_MAX = 0.25

# Global error, in max|u|, that a run's step-choosing pilot may predict at
# the final time: 1% of the 1e-6 deviation gate of the dynamical checks.
ERROR_TARGET = 1e-8

# Most steps a run may take.  Each step leaves about eps * max|u| of
# roundoff, so past ERROR_TARGET / eps (about 4.5e7) steps roundoff alone
# exceeds the target, whatever the step size.  At ~0.1 ms per N = 256 step
# that is still an hour: the budget bounds a run, it does not make it short.
_STEP_BUDGET = ERROR_TARGET / np.finfo(float).eps

# Pilot rounds before evolve_trajectory gives up.  The global error scales as
# dt^4, so one rescaling normally suffices; more rounds only help where
# the error is not yet in its asymptotic regime.  A slow wave with a small
# oscillation starts far outside it, from a cap the mean no longer
# shrinks: one full crossing of (3, 0.2, alpha, 0) at N = 128 to 512
# needs 5 or 6 rounds, against at most 4 for every other wave of the CFL
# sweep at beta = 0 and -1.
_PILOT_ROUNDS = 8

# A spectral amplitude beyond this multiple of the initial peak means the
# integration has blown up.
_BLOWUP_FACTOR = 1e6


@dataclass(frozen=True)
class EvolverConfig:
    """Grid, step size, final time and output options for one run.

    dt = None lets the run choose its step (see evolve_trajectory).  A
    given dt must divide T into an integer number of steps
    (dt * round(T/dt) == T to 1e-9 relative); anything else silently lands
    at the wrong final time.  ``snapshot_every`` = s keeps every s-th step
    in the trajectory (0 keeps only the endpoints).
    """

    grid: PeriodicGrid
    dt: float | None
    T: float
    snapshot_every: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.T) or self.T <= 0.0:
            raise DomainError(f"T must be positive, got {self.T!r}")
        # True is an int, and 1.5 would keep steps 3, 6 and 9 through n % 1.5
        every = self.snapshot_every
        if isinstance(every, bool) or not isinstance(every, (int, np.integer)) or every < 0:
            raise DomainError(f"snapshot_every must be an integer >= 0, got {every!r}")
        if self.dt is None:
            return
        if not math.isfinite(self.dt) or self.dt <= 0.0:
            raise DomainError(f"dt must be positive, got {self.dt!r}")
        if self.T / self.dt > _STEP_BUDGET:
            raise DomainError(
                f"T = {self.T!r} takes more than {_STEP_BUDGET:.4g} steps of dt = {self.dt!r}"
            )
        steps = round(self.T / self.dt)
        if steps < 1 or abs(steps * self.dt - self.T) > 1e-9 * self.T:
            raise DomainError(
                f"T = {self.T!r} is not an integer number of steps of dt = {self.dt!r}"
            )

    @property
    def steps(self) -> int:
        if self.dt is None:
            raise DomainError("a config without dt has no step count until a run chooses dt")
        return round(self.T / self.dt)

    @classmethod
    def for_duration(cls, grid: PeriodicGrid, duration: float,
                     target_dt: float | None, snapshot_every: int = 0) -> "EvolverConfig":
        """Config reaching ``duration`` in whole steps of size <= target_dt.

        target_dt = inf asks for a single step, None for the run's own step.
        """
        if not 0.0 < duration < math.inf:
            raise DomainError(f"duration must be positive and finite, got {duration!r}")
        if target_dt is None:
            return cls(grid=grid, dt=None, T=duration, snapshot_every=snapshot_every)
        if not target_dt > 0.0:
            raise DomainError(f"target_dt must be positive, got {target_dt!r}")
        if duration / target_dt > _STEP_BUDGET:
            raise DomainError(f"duration {duration!r} over target_dt {target_dt!r} "
                              f"overflows the budget of {_STEP_BUDGET:.4g} steps")
        steps = max(1, math.ceil(duration / target_dt))
        return cls(grid=grid, dt=duration / steps, T=duration, snapshot_every=snapshot_every)


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one evolution; fields[i] is u(., times[i]).

    ``config`` is the run's config with the step it took, ``cfl`` the CFL
    number of that step from fields[0], and ``error_estimate`` the pilot's
    predicted global error, or None for a run given its step.
    """

    config: EvolverConfig
    times: tuple[float, ...]
    fields: tuple[np.ndarray, ...]
    cfl: float
    error_estimate: float | None

    @property
    def final(self) -> np.ndarray:
        return self.fields[-1]


def _checked_field(u0: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (grid.N,):
        raise DomainError(f"u0 must have shape ({grid.N},), got {u0.shape}")
    # a non-finite sample makes the sum non-finite, and so does a finite
    # field whose sum overflows, which would reach ubar and the CFL rate
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(u0.sum())
    if not math.isfinite(total):
        if not np.isfinite(u0).all():
            raise DomainError("u0 must be finite")
        raise DomainError(
            f"the sum of u0 overflows (max|u0| = {float(np.abs(u0).max())!r})")
    return u0


class _GridSteps:
    """The IF-RK4 scheme of one run: its tables, its CFL rate and its steps.

    Built once per run from u0 and u_hat = fft(u0): the FFT plans, the
    conserved mean ubar = u_hat[0].real / N, i (k^3 + 6 ubar k), the
    dealiased 3 i k and the CFL rate 6 max|u0 - ubar| k_max.  The stepped
    term 6 v v_x, v = u - ubar, advects at 6 |v|, and k_max = (2/3) pi N / L
    bounds the wavenumbers the 2/3 rule keeps: at N = 256 the largest kept
    |k| is 84 * 2 pi / L, not 85.3 * 2 pi / L.  The arrays a step reads at
    h = dt and dt/2 are computed once per h and run, so the pilot's dt/2
    step reuses the dt step's half-step arrays.
    """

    def __init__(self, grid: PeriodicGrid, u0: np.ndarray, u_hat: np.ndarray) -> None:
        self.forward, self.inverse = _plan(grid.N)
        self.mean = mean = u_hat[0].real / grid.N
        k_max = (2.0 / 3.0) * math.pi * grid.N / grid.L
        self.rate = 6.0 * float(np.abs(u0 - mean).max()) * k_max
        k = grid.k
        self.linear = 1j * (k * k * k + 6.0 * mean * k)
        self.coeff = 3j * k * kept_modes(grid.N)
        self._factors: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def nonlinear(self, u_hat: np.ndarray) -> np.ndarray:
        """The dealiased 3 i k fft(v^2), v = ifft(u_hat) - ubar, a new array.

        The fields reaching a step come from _checked_field, so the
        transforms run the four-step helper on the resolved plans without
        re-checking.
        """
        v = _four_step(u_hat, self.inverse).real - self.mean
        out = _four_step(v * v, self.forward)
        return np.multiply(self.coeff, out, out=out)

    def _factor(self, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """e = exp(i (k^3 + 6 ubar k) h) over a time h, 2 e and 2h e."""
        factor = self._factors.get(h)
        if factor is None:
            e = np.exp(self.linear * h)
            factor = self._factors[h] = (e, 2.0 * e, (2.0 * h) * e)
        return factor

    def step(self, u_hat: np.ndarray, dt: float, a: np.ndarray | None = None) -> np.ndarray:
        """One IF-RK4 step of size dt from u_hat, a new spectrum.

        With e_full and e_half the integrating factors at dt and dt/2, the
        step computes, with the stages updated in place,
        e_full*u + dt/6*(e_full*a + 2*e_half*(b + c) + d).  Every product
        keeps the operand order of that expression: with fused multiply-add
        a*b and b*a can round differently, and swapping e_full*a alone
        changes the step's last bits.  A caller that already holds the
        first stage a = nonlinear(u_hat) may pass it; the step overwrites it.
        """
        e_full = self._factor(dt)[0]
        # 2 (dt/2) is dt exactly while dt/2 is a normal float
        e_half, two_e_half, dt_e_half = self._factor(dt / 2.0)
        nonlinear = self.nonlinear
        half_dt, sixth_dt = dt / 2.0, dt / 6.0
        e_u = e_full * u_hat
        if a is None:
            a = nonlinear(u_hat)
        s = np.multiply(half_dt, a)
        np.add(u_hat, s, out=s)
        b = nonlinear(np.multiply(e_half, s, out=s))
        np.multiply(e_half, u_hat, out=s)
        s += half_dt * b
        c = nonlinear(s)
        np.multiply(dt_e_half, c, out=s)
        d = nonlinear(np.add(e_u, s, out=s))
        b += c
        np.multiply(two_e_half, b, out=b)
        np.multiply(e_full, a, out=a)
        a += b
        a += d
        np.multiply(sixth_dt, a, out=a)
        e_u += a
        return e_u


def _pilot_error(tables: _GridSteps, u_hat: np.ndarray, config: EvolverConfig
                 ) -> tuple[float, np.ndarray]:
    """Predicted max|u| error at T of a run with this config, and its step 1.

    Step doubling: one step of dt and two of dt/2 differ by about the
    local error of the dt step.  The run takes config.steps such steps and
    local errors add up, so the product is the global estimate.  The dt
    step from u_hat is the run's step 1.  Both steps start from the stage
    nonlinear(u_hat), evaluated once; each step overwrites the stage it is
    given, so the dt step takes a copy.
    """
    dt = config.dt
    a = tables.nonlinear(u_hat)
    first = tables.step(u_hat, dt, a.copy())
    halves = tables.step(tables.step(u_hat, dt / 2.0, a), dt / 2.0)
    local = float(np.abs(ifft(first - halves).real).max())
    return config.steps * local, first


def _choose_step(tables: _GridSteps, u_hat: np.ndarray, config: EvolverConfig
                 ) -> tuple[EvolverConfig, float, np.ndarray]:
    """The config with the largest step the guards allow, its estimate and step 1.

    Starts from the CFL cap dt <= CFL_MAX / tables.rate, then shrinks dt
    until the step-doubling pilot from u_hat predicts a global error at
    most ERROR_TARGET; the rounds share the run's tables.  Raises
    InstabilityError if no step meets the target within the pilot rounds
    (for instance when roundoff alone exceeds it); never returns an
    unchecked step.
    """
    duration, rate = config.T, tables.rate
    # a hair under the cap, so rounding in T / steps cannot push the chosen
    # step past it
    target_dt = duration if rate == 0.0 else min(
        duration, (1.0 - 1e-12) * CFL_MAX / rate)
    for _ in range(_PILOT_ROUNDS):
        chosen = EvolverConfig.for_duration(config.grid, duration, target_dt,
                                            config.snapshot_every)
        estimate, first = _pilot_error(tables, u_hat, chosen)
        if estimate <= ERROR_TARGET:
            return chosen, estimate, first
        # a round whose stages overflow gives a non-finite estimate
        if not math.isfinite(estimate):
            break
        # global error ~ dt^4; aim 10% under the target
        target_dt = chosen.dt * (0.9 * ERROR_TARGET / estimate) ** 0.25
        # past the step budget roundoff alone misses the target
        if math.ceil(duration / target_dt) > _STEP_BUDGET:
            break
    raise InstabilityError(
        f"no step meets the error target {ERROR_TARGET!r} within "
        f"{_PILOT_ROUNDS} pilot rounds and {_STEP_BUDGET:.4g} steps "
        f"(last estimate {estimate!r})"
    )


def evolve_trajectory(u0: np.ndarray, config: EvolverConfig) -> Trajectory:
    """Integrate u0 forward to T, keeping snapshots per the config.

    With config.dt = None the run takes the largest step whose pilot
    predicts a global error at most ERROR_TARGET, and raises
    InstabilityError if no step does.  A given dt is refused with
    InstabilityError before the first step if the CFL number of (u0, dt)
    exceeds CFL_MAX.  Either run raises InstabilityError if any spectral
    amplitude grows beyond 1e6 times the initial peak; the check runs
    before the report stage so a blown-up run never produces drift
    numbers.  The trajectory keeps the config with the step taken, its CFL
    number and the pilot's estimate.
    """
    grid = config.grid
    u0 = _checked_field(u0, grid)
    u_hat = fft(u0)
    tables = _GridSteps(grid, u0, u_hat)
    if config.dt is not None and tables.rate * config.dt > CFL_MAX:
        raise InstabilityError(
            f"dt = {config.dt!r} gives CFL number {tables.rate * config.dt!r} > {CFL_MAX}"
        )
    limit = _BLOWUP_FACTOR * float(np.abs(u_hat).max())
    if limit == 0.0:
        limit = _BLOWUP_FACTOR  # u0 == 0 evolves to 0; guard still armed

    error_estimate = None
    times = [0.0]
    fields = [u0.copy()]
    # under a huge mean, v = ifft(u_hat) - ubar still holds the transforms'
    # rounding of the mean, and the stages can overflow on it; the peak
    # check turns the non-finite spectrum into InstabilityError, and the
    # pilot's non-finite estimate ends its rounds
    with np.errstate(over="ignore", invalid="ignore"):
        if config.dt is None:
            config, error_estimate, u_hat = _choose_step(tables, u_hat, config)
        else:
            u_hat = tables.step(u_hat, config.dt)
        for n in range(1, config.steps + 1):
            if n > 1:
                u_hat = tables.step(u_hat, config.dt)
            peak = float(np.abs(u_hat).max())
            if not math.isfinite(peak) or peak > limit:
                raise InstabilityError(
                    f"spectral peak {peak!r} after step {n} (limit {limit!r})"
                )
            keep = n == config.steps or (
                config.snapshot_every > 0 and n % config.snapshot_every == 0
            )
            if keep:
                times.append(n * config.dt)
                fields.append(ifft(u_hat).real)
    return Trajectory(config=config, times=tuple(times), fields=tuple(fields),
                      cfl=tables.rate * config.dt, error_estimate=error_estimate)


@dataclass(frozen=True)
class ConservationReport:
    """Relative drifts of the first two KdV invariants over a trajectory."""

    mass_drift: float
    momentum_drift: float


def conservation_report(trajectory: Trajectory) -> ConservationReport:
    """Worst-case relative drift of mean(u) and mean(u^2) across snapshots.

    Drifts are relative to the initial value, floored at an absolute scale
    of 1 so an initial invariant near zero does not inflate the ratio.
    """
    u0 = trajectory.fields[0]
    n = u0.size
    # sum / n is what np.mean computes, without its per-call dispatch
    mass0 = float(u0.sum()) / n
    mom0 = float((u0 * u0).sum()) / n
    mass_drift = 0.0
    mom_drift = 0.0
    for u in trajectory.fields[1:]:
        mass_drift = max(mass_drift, abs(float(u.sum()) / n - mass0))
        mom_drift = max(mom_drift, abs(float((u * u).sum()) / n - mom0))
    return ConservationReport(
        mass_drift=mass_drift / max(1.0, abs(mass0)),
        momentum_drift=mom_drift / max(1.0, abs(mom0)),
    )


def translation_lag(u0: np.ndarray, u_final: np.ndarray, grid: PeriodicGrid) -> float:
    """Shift s in [0, L) maximizing the circular correlation of u_final with u0.

    For a rigidly translating wave u(x, T) = u(x - V*T, 0), the peak sits
    at V*T mod L; comparing against the predicted velocity confirms the
    velocity law dynamically, independent of pointwise comparisons.
    """
    c = ifft(fft(np.asarray(u_final, dtype=float))
             * np.conj(fft(np.asarray(u0, dtype=float)))).real
    return float(np.argmax(c) * grid.spacing)
