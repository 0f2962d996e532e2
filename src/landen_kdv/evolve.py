"""Pseudo-spectral time integration of u_t - 6 u u_x + u_xxx = 0.

Write u = ubar + v, where ubar is the mean of u, which the flow conserves
exactly.  KdV is Galilean invariant: 6 u u_x = 6 ubar v_x + 6 v v_x, and
the first term is linear.  The linear part, dispersion and advection by
the mean, has the operator i (k^3 + 6 ubar k) in spectral space; only the
quadratic term 6 v v_x is nonlinear.  Each step is ETDRK4 (Cox and
Matthews, J. Comput. Phys. 176, 2002, in the form of Kassam and
Trefethen, SIAM J. Sci. Comput. 26, 2005): the linear part is propagated
exactly, and the nonlinear term enters through the exponential
integrals phi_1, phi_2 and phi_3 of the linear operator over the step, at
four evaluations per step.  This removes the k^3 stiffness and the
mean's advection, so the remaining step-size limits come from the
oscillation v: stability, through the nonlinear CFL number
dt * 6 max|u - ubar| * k_max, and accuracy.
A p-term dn^2 sum is mostly its mean: at (p, m, alpha, beta) =
(3, 0.6, 1, -1), max|u| = 5.01 but max|u - ubar| = 0.017.
A run given no step therefore starts from the CFL cap and shrinks the
step until a step-doubling pilot predicts a global error below
``ERROR_TARGET``.  The nonlinear term is always filtered by the 2/3 rule
(``fourier.kept_modes``): the product v^2 scatters energy to wavenumbers
the grid cannot represent, and without the mask those corruptions fold
back into resolved modes and pollute 1e-6 comparisons.

The state of a run is the half spectrum v_hat of the oscillation v
(``fourier._rfft``): v is real, so the modes 0 < k <= N/2 carry it, and
every transform of a step runs in real arithmetic on about half the
modes.  u0 is read once, as its floored half spectrum u_hat
(``fourier._floored_spectrum``), so its rounding debris is never stepped.
The mean is one number for the whole run, ubar = u_hat[0].real / N, and
v_hat[0] is 0.0: the linear propagator leaves k = 0 alone and the nonlinear term
carries a factor k, so it stays 0.0 to the last bit after every step.  A
snapshot is ubar + v; the mean of a sampled field, its sum over N, rounds,
so it drifts by a few ulps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InstabilityError, _require_integer, _require_positive
from .fourier import (
    PeriodicGrid,
    _floored_spectrum,
    _irfft,
    _require_oscillation,
    _rfft,
    _scaled_magnitude,
    kept_modes,
)

# Largest nonlinear CFL number, on max|u - ubar|, a run may take.
# Measured on one full crossing at a fixed CFL number c, over p in
# {1, 2, 3}, m in {0.2, 0.5, 0.9, 0.99}, alpha in {0.5, 1, 2} and N in
# {128, 256, 512}: up to c = 4, none of the 108 runs blows up or ends more
# than 1e-2 of the oscillation off, and none of the 36 at N = 1024 either
# (README).  The cap keeps a factor of 4 below that; under it the pilot's
# error target, not stability, sets the step.
CFL_MAX = 1.0

# Global error, in max|u|, that a run's step-choosing pilot may predict at
# the final time: 1% of the 1e-6 deviation gate of the dynamical checks.
ERROR_TARGET = 1e-8

# Most steps a run may take.  Each step leaves about eps * max|u| of
# roundoff, so past ERROR_TARGET / eps (about 4.5e7) steps roundoff alone
# exceeds the target, whatever the step size.  At ~0.1 ms per N = 256 step
# that is still an hour: the budget bounds a run, it does not make it short.
_STEP_BUDGET = ERROR_TARGET / np.finfo(float).eps

# Pilot rounds before evolve_trajectory gives up.  Once the step resolves
# the wave the global error scales as dt^4, and one rescaling normally
# suffices.  A wave that barely oscillates starts from a cap far outside
# that regime: from its cap, the estimate for (3, 0.5, 1, 0) falls about
# as dt, and rescaling as dt^4 gains a few percent a round, so a round
# that fails to halve the last estimate is followed by a rescaling as dt.
# Over the README's pilot sweep (216 crossings at beta = 0 and -1) no run
# needs more than 5 rounds.
_PILOT_ROUNDS = 8

# The Taylor series phi_3(z) = sum z^n / (n + 3)!, n < 16: for |z| < 1
# the first term left out, 1/19!, is under eps/2 of phi_3(0) = 1/6.
_PHI3_SERIES = np.array([1.0 / math.factorial(n + 3) for n in range(16)])
_PHI3_POWERS = np.arange(_PHI3_SERIES.size)

# A spectral amplitude beyond this multiple of the initial peak of v_hat
# means the integration has blown up: the flow conserves the integral of
# v^2, so by Parseval no honest |v_hat_k| exceeds sqrt(N) times that peak.
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
        _require_positive(self.T, "T")
        # True is an int, and 1.5 would keep steps 3, 6 and 9 through n % 1.5
        _require_integer(self.snapshot_every, "snapshot_every", 0)
        if self.dt is None:
            return
        _require_positive(self.dt, "dt")
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
        _require_positive(duration, "duration")
        if target_dt is None:
            return cls(grid=grid, dt=None, T=duration, snapshot_every=snapshot_every)
        if target_dt != math.inf:
            _require_positive(target_dt, "target_dt")
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


class _GridSteps:
    """The ETDRK4 scheme of one run: its tables, its CFL rate and its steps.

    Built once per run from the read of u0 (fourier._floored_spectrum),
    which refuses a u0 whose sum overflows by its non-finite mean entry:
    the conserved mean ubar = u_hat[0].real / N, the initial state v_hat
    (u_hat with entry 0 zeroed), its peak max|v_hat| that scales the
    blow-up limit, the operator L = i (k^3 + 6 ubar k) and its inverse (0
    where L is 0), the dealiased 3 i k and the CFL rate
    6 max|u0 - ubar| k_max, all on the modes of the half spectrum.  The
    stepped term 6 v v_x advects at 6 |v|, and k_max = (2/3) pi N / L
    bounds the wavenumbers the 2/3 rule keeps: at N = 256 the largest kept
    |k| is 84 * 2 pi / L, not 85.3 * 2 pi / L.  The tables a step of size h
    reads are computed once per h and run; a table at h/2 takes its
    exp(L h/2) from the one at h, so a pilot round computes three
    exponentials.
    """

    def __init__(self, grid: PeriodicGrid, u0: np.ndarray) -> None:
        self.u0, u_hat = _floored_spectrum(u0, grid.N, "u0")
        if not math.isfinite(u_hat[0].real):
            raise DomainError(
                f"the sum of u0 overflows (max|u0| = {float(np.abs(self.u0).max())!r})")
        self.mean = mean = u_hat[0].real / grid.N
        u_hat[0] = 0.0
        self.start = u_hat
        self.peak = float(np.abs(u_hat).max())
        k_max = (2.0 / 3.0) * math.pi * grid.N / grid.L
        self.rate = 6.0 * float(np.abs(self.u0 - mean).max()) * k_max
        omega = grid.k * grid.k * grid.k + 6.0 * mean * grid.k
        self.linear = 1j * omega
        self.inverse_linear = np.divide(1.0, self.linear, out=np.zeros_like(self.linear),
                                        where=omega != 0.0)
        self.coeff = 3j * grid.k * kept_modes(grid.N)
        self._factors: dict[float, tuple[np.ndarray, ...]] = {}

    def nonlinear(self, v_hat: np.ndarray) -> np.ndarray:
        """The dealiased 3 i k rfft(v^2), v = irfft(v_hat).

        Its entry 0 is 0, so it is a valid half spectrum to step with.
        """
        v = _irfft(v_hat)
        return self.coeff * _rfft(v * v)

    def _factor(self, h: float) -> tuple[np.ndarray, ...]:
        """The ETDRK4 tables (E, E_half, Q, f1, f2, f3) of a step of size h.

        With z = L h, E = exp(z), E_half = exp(z/2), Q = h (E_half - 1) / z
        and, from phi_1 = (E - 1)/z, phi_2 = (phi_1 - 1)/z and
        phi_3 = (phi_2 - 1/2)/z, f1 = h (phi_1 - 3 phi_2 + 4 phi_3),
        f2 = h (phi_2 - 2 phi_3) and f3 = h (4 phi_3 - phi_2).  That
        recurrence loses at most a few ulps where |z| >= 1.  The few modes
        with |z| < 1, k = 0 among them, take phi_3 from its Taylor series
        instead, phi_2 = z phi_3 + 1/2, phi_1 = z phi_2 + 1 and
        Q = h phi_1 / (1 + E_half), which cancel nothing there.
        """
        factor = self._factors.get(h)
        if factor is not None:
            return factor
        z = self.linear * h
        # the h/2 tables' E is the h tables' E_half: 2 (h/2) is h exactly
        # while h/2 is a normal float
        double = self._factors.get(2.0 * h)
        e = np.exp(z) if double is None else double[1]
        e_half = np.exp(self.linear * (h / 2.0))
        r = self.inverse_linear / h
        phi1 = (e - 1.0) * r
        phi2 = (phi1 - 1.0) * r
        phi3 = (phi2 - 0.5) * r
        q = (e_half - 1.0) * self.inverse_linear
        small = np.abs(z) < 1.0
        z_small = z[small]
        series3 = (z_small[:, None] ** _PHI3_POWERS) @ _PHI3_SERIES
        series2 = z_small * series3 + 0.5
        series1 = z_small * series2 + 1.0
        phi1[small], phi2[small], phi3[small] = series1, series2, series3
        q[small] = h * series1 / (1.0 + e_half[small])
        factor = self._factors[h] = (
            e, e_half, q, h * (phi1 - 3.0 * phi2 + 4.0 * phi3),
            h * (phi2 - 2.0 * phi3), h * (4.0 * phi3 - phi2))
        return factor

    def step(self, v_hat: np.ndarray, dt: float, a: np.ndarray | None = None) -> np.ndarray:
        """One ETDRK4 step of size dt from v_hat, a new half spectrum.

        The stages are a = N(v), b = N(E_half v + Q a), c = N(E_half v + Q b)
        and d = N(E_half (E_half v + Q a) + Q (2c - a)), and the step is
        E v + f1 a + 2 f2 (b + c) + f3 d.  A caller that already holds the
        first stage a = nonlinear(v_hat) may pass it; the step writes to
        neither v_hat nor a.
        """
        e, e_half, q, f1, f2, f3 = self._factor(dt)
        if a is None:
            a = self.nonlinear(v_hat)
        e_v = e_half * v_hat
        s = e_v + q * a
        b = self.nonlinear(s)
        c = self.nonlinear(e_v + q * b)
        d = self.nonlinear(e_half * s + q * (2.0 * c - a))
        return e * v_hat + f1 * a + 2.0 * f2 * (b + c) + f3 * d


def _pilot_error(tables: _GridSteps, v_hat: np.ndarray, config: EvolverConfig
                 ) -> tuple[float, np.ndarray]:
    """Predicted max|u| error at T of a run with this config, and its step 1.

    Step doubling: one step of dt and two of dt/2 differ by about the
    local error of the dt step.  The run takes config.steps such steps and
    local errors add up, so the product is the global estimate.  The dt
    step from v_hat is the run's step 1.  Both steps start from the stage
    nonlinear(v_hat), evaluated once.
    """
    dt = config.dt
    a = tables.nonlinear(v_hat)
    first = tables.step(v_hat, dt, a)
    halves = tables.step(tables.step(v_hat, dt / 2.0, a), dt / 2.0)
    local = float(np.abs(_irfft(first - halves)).max())
    return config.steps * local, first


def _choose_step(tables: _GridSteps, v_hat: np.ndarray, config: EvolverConfig
                 ) -> tuple[EvolverConfig, float, np.ndarray]:
    """The config with the largest step the guards allow, its estimate and step 1.

    Starts from the CFL cap dt <= CFL_MAX / tables.rate, then shrinks dt
    until the step-doubling pilot from v_hat predicts a global error at
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
    previous = math.inf
    for _ in range(_PILOT_ROUNDS):
        chosen = EvolverConfig.for_duration(config.grid, duration, target_dt,
                                            config.snapshot_every)
        estimate, first = _pilot_error(tables, v_hat, chosen)
        if estimate <= ERROR_TARGET:
            return chosen, estimate, first
        # a round whose stages overflow gives a non-finite estimate
        if not math.isfinite(estimate):
            break
        # global error ~ dt^4, unless the last rescale failed to halve the
        # estimate: then ~ dt (see _PILOT_ROUNDS); aim 10% under the target
        order = 4.0 if estimate <= previous / 2.0 else 1.0
        previous = estimate
        target_dt = chosen.dt * (0.9 * ERROR_TARGET / estimate) ** (1.0 / order)
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

    u0 is read once (see _GridSteps) and refused with DomainError if it is
    not a real, finite array of the grid's shape or its sum overflows.
    With config.dt = None the run takes the largest step whose pilot
    predicts a global error at most ERROR_TARGET, and raises
    InstabilityError if no step does.  A given dt is refused with
    InstabilityError before the first step if the CFL number of (u0, dt)
    exceeds CFL_MAX.  Either run is refused with InstabilityError before
    the first step if eps * max|u0| exceeds ERROR_TARGET, and raises it if
    any spectral amplitude of v = u - ubar grows beyond 1e6 times its
    initial peak; the check runs before the report stage so a blown-up run
    never produces drift numbers.  The trajectory keeps the config with the
    step taken, its CFL number and the pilot's estimate.
    """
    grid = config.grid
    # a u0 whose read or tables overflow is refused below, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        tables = _GridSteps(grid, u0)
    # the argument of _STEP_BUDGET at one step: a field this large misses
    # the target on the roundoff of its first step, whatever its step size
    roundoff = float(np.finfo(float).eps * np.abs(tables.u0).max())
    if roundoff > ERROR_TARGET:
        raise InstabilityError(
            f"the roundoff of one step, eps * max|u0| = {roundoff!r}, exceeds "
            f"the error target {ERROR_TARGET!r}")
    if config.dt is not None and tables.rate * config.dt > CFL_MAX:
        raise InstabilityError(
            f"dt = {config.dt!r} gives CFL number {tables.rate * config.dt!r} > {CFL_MAX}"
        )
    limit = _BLOWUP_FACTOR * tables.peak
    if limit == 0.0:
        limit = _BLOWUP_FACTOR  # v_hat == 0 evolves to 0; guard still armed

    error_estimate = None
    times = [0.0]
    fields = [tables.u0.copy()]
    # a step that blows up can overflow before the peak check reads it;
    # the check turns the non-finite spectrum into InstabilityError, and
    # the pilot's non-finite estimate ends its rounds
    with np.errstate(over="ignore", invalid="ignore"):
        if config.dt is None:
            config, error_estimate, v_hat = _choose_step(tables, tables.start, config)
        else:
            v_hat = tables.step(tables.start, config.dt)
        for n in range(1, config.steps + 1):
            if n > 1:
                v_hat = tables.step(v_hat, config.dt)
            peak = float(np.abs(v_hat).max())
            if not math.isfinite(peak) or peak > limit:
                raise InstabilityError(
                    f"spectral peak {peak!r} after step {n} (limit {limit!r})"
                )
            keep = n == config.steps or (
                config.snapshot_every > 0 and n % config.snapshot_every == 0
            )
            if keep:
                times.append(n * config.dt)
                fields.append(tables.mean + _irfft(v_hat))
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
    velocity law dynamically, independent of pointwise comparisons.  The
    correlation runs on the two reads' floored half spectra, without the
    mean term: the product of the means adds a constant and cannot move
    the peak.  A field flat to roundoff has no peak to find and is refused.
    Each spectrum is first scaled exactly by _scaled_magnitude's power of
    two, so their product neither overflows nor underflows.
    """
    u0_hat = _floored_spectrum(u0, grid.N, "u0")[1]
    final_hat = _floored_spectrum(u_final, grid.N, "u_final")[1]
    _require_oscillation(u0_hat, "u0", "the lag")
    _require_oscillation(final_hat, "u_final", "the lag")
    u0_hat, final_hat = (np.ldexp(h.view(float), -_scaled_magnitude(h)[1]).view(complex)
                         for h in (u0_hat, final_hat))
    cross = final_hat * np.conj(u0_hat)
    cross[0] = 0.0
    return float(np.argmax(_irfft(cross)) * grid.spacing)
