"""Time-integrator tests.

The analytic traveling waves double as exact solutions, so accuracy is
checked against them directly; self-convergence at dt halving pins the
fourth-order rate.
"""

import math

import mpmath
import numpy as np
import pytest

import landen_kdv.evolve as evolve_module
from landen_kdv import (
    DnWaveParams,
    DomainError,
    InstabilityError,
    PeriodicGrid,
)
from landen_kdv.cli import main
from landen_kdv.evolve import (
    CFL_MAX,
    ERROR_TARGET,
    ConservationReport,
    EvolverConfig,
    conservation_report,
    evolve_trajectory,
    translation_lag,
)
from landen_kdv.fourier import (
    DROP_FLOOR,
    _floored_spectrum,
    _half_modes,
    _irfft,
    _rfft,
    kept_modes,
)


def cnoidal_setup(n=256, m=0.5):
    params = DnWaveParams(alpha=1.0, beta=0.0, m=m)
    grid = params.natural_grid(n=n)
    return params, grid


def half_mean(u0):
    """ubar = u_hat[0].real / N, u_hat the half spectrum of u0."""
    return _rfft(u0)[0].real / u0.size


def cfl_rate(u0, grid):
    """6 max|u0 - ubar| k_max: the CFL number at dt = 1."""
    k_max = (2.0 / 3.0) * np.pi * grid.N / grid.L
    return 6.0 * float(np.abs(u0 - half_mean(u0)).max()) * k_max


def grid_steps(grid, u0):
    """The run's scheme for u0, built as evolve_trajectory builds it, and its v_hat."""
    tables = evolve_module._GridSteps(grid, u0)
    return tables, tables.start


class TestConfig:
    def test_steps_and_cap(self):
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        config = EvolverConfig(grid=grid, dt=1e-4, T=1e-2)
        assert config.steps == 100
        assert EvolverConfig(grid, np.float64(1e-4), np.float64(1e-2)).steps == 100
        # the cap reads the oscillation about the mean, not the mean
        u = -0.7 + 0.2 * np.cos(grid.x)
        k_max = (2.0 / 3.0) * np.pi * grid.N / grid.L
        assert grid_steps(grid, u)[0].rate == pytest.approx(6.0 * 0.2 * k_max, rel=1e-13)
        # a short run of the cnoidal wave is accurate at the cap, so the
        # CFL cap alone sets dt: 3 steps, with an estimate of 1.6e-9
        params, wave_grid = cnoidal_setup()
        u = params.sample(wave_grid, 0.0)
        cap = CFL_MAX / cfl_rate(u, wave_grid)
        traj = evolve_trajectory(u, EvolverConfig(wave_grid, None, 0.005))
        assert traj.error_estimate <= ERROR_TARGET
        assert traj.config.steps == int(np.ceil(0.005 / cap)) == 3
        assert traj.cfl == cfl_rate(u, wave_grid) * traj.config.dt <= CFL_MAX
        # a constant state has no oscillation: one step crosses any duration
        u = np.full(64, -0.7)
        traj = evolve_trajectory(u, EvolverConfig(grid, None, 0.5))
        assert traj.error_estimate <= ERROR_TARGET
        assert traj.config.steps == 1
        assert traj.cfl <= CFL_MAX

    def test_for_duration_rounds_steps_up(self):
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        config = EvolverConfig.for_duration(grid, duration=1.0, target_dt=3e-4)
        assert config.dt <= 3e-4
        assert config.steps * config.dt == pytest.approx(1.0, rel=1e-12)
        # an infinite target step asks for a single step
        assert EvolverConfig.for_duration(grid, duration=1.0, target_dt=math.inf).steps == 1
        # no target step leaves the step to the run
        assert EvolverConfig.for_duration(grid, 1.0, None, 3) == EvolverConfig(
            grid=grid, dt=None, T=1.0, snapshot_every=3)

    @pytest.mark.parametrize("target_dt, duration", [
        (1e-3, math.nan), (1e-3, math.inf), (math.nan, 1.0), (None, math.nan),
        (None, -1.0)])
    def test_for_duration_refuses_non_finite_duration(self, target_dt, duration):
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        with pytest.raises(DomainError):
            EvolverConfig.for_duration(grid, duration=duration, target_dt=target_dt)

    # True is not a step or a duration of 1, and a string is refused, not
    # left to a comparison's TypeError; inf still asks for one step
    @pytest.mark.parametrize("duration, target_dt", [
        (1.0, True), (1.0, np.True_), (1.0, "1e-3"), (1.0, 1j), (1.0, 0.0),
        (1.0, -math.inf), (True, 1e-3), ("1", 1e-3), ("1", None), (1j, None)])
    def test_for_duration_refuses_what_is_not_a_positive_number(self, duration, target_dt):
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        with pytest.raises(DomainError, match="must be positive"):
            EvolverConfig.for_duration(grid, duration=duration, target_dt=target_dt)

    def test_for_duration_refuses_an_overflowing_step_count(self):
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        with pytest.raises(DomainError, match="overflows"):
            EvolverConfig.for_duration(grid, duration=1e300, target_dt=1e-10)

    def test_step_budget_refused(self):
        # 1e11 steps: roundoff alone would exceed the error target
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        with pytest.raises(DomainError, match="steps"):
            EvolverConfig(grid=grid, dt=1e-11, T=1.0)
        with pytest.raises(DomainError, match="steps"):
            EvolverConfig.for_duration(grid, duration=1.0, target_dt=1e-11)

    def test_config_at_the_step_budget_is_built(self):
        # built only: running it would take hours
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        budget = math.floor(ERROR_TARGET / np.finfo(float).eps)
        assert EvolverConfig(grid=grid, dt=1.0, T=float(budget)).steps == budget
        with pytest.raises(DomainError, match="steps"):
            EvolverConfig(grid=grid, dt=1.0, T=float(budget + 1))

    # True is not a step or a time of 1, and a string is refused, not
    # left to math's TypeError
    @pytest.mark.parametrize("dt,T", [
        (0.0, 1.0), (-1e-3, 1.0), (1e-3, 0.0), (1e-3, -1.0), (True, 2.0),
        (np.True_, 2.0), ("1e-3", 1.0), (1j, 1.0), (1e-3, True), (1e-3, "1")])
    def test_positive_durations(self, dt, T):
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        with pytest.raises(DomainError):
            EvolverConfig(grid=grid, dt=dt, T=T)

    def test_duration_must_be_whole_steps(self):
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        with pytest.raises(DomainError):
            EvolverConfig(grid=grid, dt=3e-4, T=1e-3)

    def test_snapshot_interval_nonnegative(self):
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        with pytest.raises(DomainError):
            EvolverConfig(grid=grid, dt=1e-4, T=1e-2, snapshot_every=-1)

    def test_snapshot_interval_must_be_an_integer(self):
        # 1.5 kept steps 3, 6 and 9 through n % 1.5 == 0, and True every
        # step; a numpy integer is an integer
        params, grid = cnoidal_setup(n=64)
        for every in (1.5, 2.0, True, np.True_, "2", None):
            with pytest.raises(DomainError, match="snapshot_every must be an integer"):
                EvolverConfig(grid, 1e-3, 0.01, every)
        config = EvolverConfig(grid, 1e-3, 0.01, np.int64(3))
        traj = evolve_trajectory(params.sample(grid, 0.0), config)
        assert traj.times == pytest.approx([0.0, 0.003, 0.006, 0.009, 0.01], rel=1e-12)

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf, True, np.True_, "1", 1j])
    def test_config_without_a_step_still_checks_T(self, T):
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        with pytest.raises(DomainError, match="T must be positive"):
            EvolverConfig(grid=grid, dt=None, T=T)

    def test_config_without_a_step_still_checks_snapshots(self):
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        with pytest.raises(DomainError, match="snapshot_every"):
            EvolverConfig(grid=grid, dt=None, T=1e-2, snapshot_every=-1)
        unchosen = EvolverConfig(grid=grid, dt=None, T=1e-2, snapshot_every=0)
        # the run chooses the step count; until then there is none to read
        with pytest.raises(DomainError, match="no step count"):
            unchosen.steps


class TestAccuracy:
    def test_constant_state_is_a_fixed_point(self):
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        config = EvolverConfig(grid=grid, dt=1e-4, T=1e-2)
        u0 = np.full(64, 0.7)
        assert np.max(np.abs(evolve_trajectory(u0, config).final - 0.7)) < 1e-14

    def test_cnoidal_wave_translates(self):
        params, grid = cnoidal_setup()
        config = EvolverConfig.for_duration(grid, duration=0.05, target_dt=1e-4)
        u_final = evolve_trajectory(params.sample(grid, 0.0), config).final
        exact = params.sample(grid, config.T)
        assert np.max(np.abs(u_final - exact)) < 1e-10

    def test_fourth_order_self_convergence(self):
        # N = 128 keeps both step sizes inside the CFL cap while the
        # time-stepping error stays far above roundoff
        params, grid = cnoidal_setup(n=128)
        u0 = params.sample(grid, 0.0)
        errors = []
        for dt in (4e-4, 2e-4):
            config = EvolverConfig.for_duration(grid, duration=0.2, target_dt=dt)
            exact = params.sample(grid, config.T)
            errors.append(np.max(np.abs(evolve_trajectory(u0, config).final - exact)))
        ratio = errors[0] / errors[1]
        assert 8.0 < ratio < 32.0

    def test_wrong_shape_rejected(self):
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        config = EvolverConfig(grid=grid, dt=1e-4, T=1e-2)
        with pytest.raises(DomainError):
            evolve_trajectory(np.zeros(128), config)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_field_rejected(self, bad):
        # refused as the kernel refuses it, not as a blow-up after step 1
        # or a pilot that finds no step
        params, grid = cnoidal_setup(n=128)
        u0 = params.sample(grid, 0.0)
        u0[5] = bad
        with pytest.raises(DomainError, match="finite"):
            evolve_trajectory(u0, EvolverConfig.for_duration(grid, 0.02, 1e-4))
        with pytest.raises(DomainError, match="finite"):
            evolve_trajectory(u0, EvolverConfig(grid, None, 0.02))

    # a float conversion would drop the imaginary part with only a
    # ComplexWarning and run on another field
    @pytest.mark.parametrize("imag", [1e-3, 0.0])
    def test_complex_field_rejected(self, imag):
        params, grid = cnoidal_setup(n=64)
        u0 = params.sample(grid, 0.0) + 1j * imag
        for config in (EvolverConfig(grid, None, 0.01), EvolverConfig(grid, 1e-3, 0.01)):
            with pytest.raises(DomainError, match="u0 must be real"):
                evolve_trajectory(u0, config)
            with pytest.raises(DomainError, match="u0 must be real"):
                evolve_trajectory(list(u0), config)


def textbook_step(grid, dt, v_hat, tables):
    """The ETDRK4 step of v = u - ubar written out on its half spectrum.

    The linear operator i (k^3 + 6 ubar k) carries dispersion and the
    advection 6 ubar u_x by the mean ubar, and tables = (E, E_half, Q, f1,
    f2, f3) are its coefficients at dt; the stages step 6 v v_x alone, in
    Kassam and Trefethen's order, with the real transform pair and the 2/3
    rule written out on the half spectrum's modes.
    """
    e, e_half, q, f1, f2, f3 = tables
    modes = _half_modes(grid.N)
    coeff = 3j * (2.0 * np.pi / grid.L * modes) * (np.abs(modes) < grid.N // 3)

    def nonlinear(w_hat):
        v = _irfft(w_hat)
        return coeff * _rfft(v * v)

    a = nonlinear(v_hat)
    s = e_half * v_hat + q * a
    b = nonlinear(s)
    c = nonlinear(e_half * v_hat + q * b)
    d = nonlinear(e_half * s + q * (2.0 * c - a))
    return e * v_hat + f1 * a + 2.0 * f2 * (b + c) + f3 * d


def fresh_tables(grid, u0, dt):
    """The step-size-dt tables of a scheme for u0 that has built no other."""
    return grid_steps(grid, u0)[0]._factor(dt)


def exact_tables(z, h):
    """(Q, f1, f2, f3) at z = L h from the closed forms, in 40-digit mpmath.

    At z = 0 they are the limits h/2, h/6, h/6 and h/6.
    """
    with mpmath.workdps(40):
        z, h = mpmath.mpc(z), mpmath.mpf(h)
        if z == 0:
            return (complex(h / 2),) + (complex(h / 6),) * 3
        e = mpmath.exp(z)
        return tuple(complex(x) for x in (
            h * (mpmath.exp(z / 2) - 1) / z,
            h * (-4 - z + e * (4 - 3 * z + z * z)) / z**3,
            h * (2 + z + e * (z - 2)) / z**3,
            h * (-4 - 3 * z - z * z + e * (4 - z)) / z**3))


class TestStep:
    @pytest.mark.parametrize("n", [256, 512])  # a square plan, and not
    def test_full_and_half_steps_are_the_textbook_expression(self, n):
        # in the pilot's order, the dt/2 tables read their full-step
        # exponential from the dt tables' half-step one, and equal the
        # tables a scheme builds at dt/2 alone
        params, grid = cnoidal_setup(n=n)
        u0 = params.sample(grid, 0.0)
        tables, v_hat = grid_steps(grid, u0)
        before = v_hat.copy()
        dt = 1e-4
        stage = tables.nonlinear(v_hat)
        for h in (dt, dt / 2.0):
            fresh = fresh_tables(grid, u0, h)
            expected = textbook_step(grid, h, v_hat, fresh).view(np.uint64)
            assert np.array_equal(tables.step(v_hat, h).view(np.uint64), expected)
            assert np.array_equal(tables.step(v_hat, h, stage.copy()).view(np.uint64),
                                  expected)
            for ours, theirs in zip(tables._factor(h), fresh):
                assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))
        assert tables._factor(dt / 2.0)[0] is tables._factor(dt)[1]
        assert np.array_equal(v_hat, before)

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_step_is_the_textbook_expression_bit_for_bit(self, n):
        # the step keeps every operand order of the textbook ETDRK4 step
        # written with the real transform pair over the same tables
        params, grid = cnoidal_setup(n=n)
        dt = 1e-4
        tables, v_hat = grid_steps(grid, params.sample(grid, 0.0))
        expected = textbook_step(grid, dt, v_hat, tables._factor(dt))
        before = v_hat.copy()
        ours = tables.step(v_hat, dt)
        assert np.array_equal(ours.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(v_hat, before)

    def test_step_writes_neither_its_spectrum_nor_its_stage(self):
        # the pilot hands one first stage to its dt and its dt/2 step
        params, grid = cnoidal_setup(n=256)
        tables, v_hat = grid_steps(grid, params.sample(grid, 0.0))
        stage = tables.nonlinear(v_hat)
        before, stage_before = v_hat.copy(), stage.copy()
        tables.step(v_hat, 1e-4, stage)
        assert np.array_equal(v_hat.view(np.uint64), before.view(np.uint64))
        assert np.array_equal(stage.view(np.uint64), stage_before.view(np.uint64))

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_start_is_the_read_less_its_mean_entry(self, n):
        # the run starts from fourier's one read of u0, its floored half
        # spectrum, with entry 0 zeroed: the floor has zeroed the debris,
        # which the raw transform holds
        params, grid = cnoidal_setup(n=n)
        u0 = params.sample(grid, 0.0)
        read = _floored_spectrum(u0, n, "u0")[1]
        assert np.any((read[1:] == 0.0) & (_rfft(u0)[1:] != 0.0))
        tables = evolve_module._GridSteps(grid, u0)
        assert tables.mean == read[0].real / n
        read[0] = 0.0
        assert np.array_equal(tables.start.view(np.uint64), read.view(np.uint64))

    def test_mean_plus_debris_is_a_fixed_point(self):
        # debris of a few ulps about a mean is under the read's floor: the
        # run starts from v_hat = 0, and every snapshot is ubar to the last
        # bit, where an unfloored start would rotate the debris
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        u0 = 0.7 + 1e-15 * np.random.default_rng(7).standard_normal(64)
        assert np.max(np.abs(u0 - 0.7)) > np.spacing(0.7)
        config = EvolverConfig.for_duration(grid, 0.5, 0.05, snapshot_every=1)
        traj = evolve_trajectory(u0, config)
        assert len(traj.fields) == 11
        for field in traj.fields[1:]:
            assert np.array_equal(field, np.full(64, half_mean(u0)))

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_half_spectrum_is_the_full_spectrum_of_v(self, n):
        # the state and the nonlinear term on the half spectrum are the
        # full-spectrum ones, fft(u0) under the read's floor less its mean
        # mode and the dealiased 3 i k fft(v^2), on the modes 0..N/2, with
        # a zero mean entry.  The floor is the read's rule,
        # DROP_FLOOR eps ||fft(u0)|| / sqrt(N), applied to numpy's spectrum:
        # the debris it drops, 3.7e-13 at N = 128 and 1.5e-12 at N = 512,
        # is far above the bound below.  The term's rounding is measured in
        # eps times its scale, the largest |3 k| times the largest
        # |fft(v^2)|.  numpy's transforms are the oracle, independent of the
        # real pair the evolver steps on; against them the mean reads at
        # most 3.05e-16 relative, v_hat 3.24 and the stage 0.50 at
        # N = 128, 256, 512
        params, grid = cnoidal_setup(n=n)
        u0 = params.sample(grid, 0.0)
        tables, v_hat = grid_steps(grid, u0)
        assert tables.mean == half_mean(u0)
        full = np.fft.fft(u0)
        assert tables.mean == pytest.approx(full[0].real / n, rel=4e-16)
        eps, h = np.finfo(float).eps, n // 2 + 1
        full[np.abs(full) < DROP_FLOOR * eps * np.linalg.norm(full) / np.sqrt(n)] = 0.0
        full[0] = 0.0
        v = np.fft.ifft(full).real
        # the half spectrum holds numpy's modes 0..N/2
        coeff, square = 3.0 * grid.k * kept_modes(n), np.fft.fft(v * v)[:h]
        stage = tables.nonlinear(v_hat)
        assert v_hat.shape == stage.shape == (h,)
        assert v_hat[0] == 0.0 and stage[0] == 0.0
        assert np.max(np.abs(v_hat - full[:h])) <= 4.0 * eps * np.max(np.abs(full))
        assert np.max(np.abs(stage - 1j * coeff * square)) <= (
            4.0 * eps * np.max(np.abs(coeff)) * np.max(np.abs(square)))


class TestTables:
    """The ETDRK4 coefficients against their closed forms in mpmath."""

    # absolute error allowed, in eps * h: the largest measured over the
    # cases below is 1.7
    TOL = 8.0

    def scheme(self):
        params, grid = cnoidal_setup(n=64)
        return grid_steps(grid, params.sample(grid, 0.0))[0]

    def check(self, tables, h, modes):
        e, e_half, *coefficients = tables._factor(h)
        z = tables.linear * h
        assert np.array_equal(e, np.exp(z))
        assert np.array_equal(e_half, np.exp(tables.linear * (h / 2.0)))
        for j in modes:
            for ours, exact in zip((c[j] for c in coefficients), exact_tables(z[j], h)):
                assert abs(ours - exact) <= self.TOL * np.finfo(float).eps * h

    @pytest.mark.parametrize("h", [1e-9, 1e-6, 1e-4, 1e-2, 1.0])
    def test_every_mode_from_small_to_large_z(self, h):
        # |z| runs over 9e-9 .. 2e5 across these h and the 64 modes; the
        # smallest h takes every mode through the series, the largest all
        # but k = 0 through the recurrence
        tables = self.scheme()
        z = np.abs(tables.linear * h)
        assert z[0] == 0.0
        self.check(tables, h, range(z.size))

    @pytest.mark.parametrize("side", [1.0 - 1e-9, 1.0 + 1e-9])
    def test_either_side_of_the_branch(self, side):
        # the j = 1 mode just under |z| = 1 takes the series, just over
        # it the recurrence; both stay within the same bound
        tables = self.scheme()
        h = side / abs(tables.linear[1])
        assert (abs(tables.linear[1] * h) < 1.0) == (side < 1.0)
        self.check(tables, h, [0, 1, -1, 2])

    def test_k_zero_leaves_the_mean_alone(self):
        # E = 1 and the limits h/2, h/6, h/6, h/6 at k = 0, so the mean
        # mode comes out of every step bit for bit
        tables = self.scheme()
        e, e_half, q, f1, f2, f3 = tables._factor(0.01)
        assert e[0] == e_half[0] == 1.0
        assert q[0] == 0.005
        for f in (f1, f2, f3):
            assert f[0] == pytest.approx(0.01 / 6.0, rel=4 * np.finfo(float).eps)


class TestTrajectory:
    def test_snapshot_bookkeeping(self):
        params, grid = cnoidal_setup(n=128)
        config = EvolverConfig.for_duration(
            grid, duration=0.02, target_dt=1e-4, snapshot_every=50)
        traj = evolve_trajectory(params.sample(grid, 0.0), config)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(config.T, rel=1e-12)
        assert len(traj.times) == len(traj.fields)
        assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
        assert np.array_equal(traj.final, traj.fields[-1])

    def test_no_snapshots_keeps_endpoints(self):
        params, grid = cnoidal_setup(n=128)
        config = EvolverConfig.for_duration(grid, duration=0.02, target_dt=1e-4)
        traj = evolve_trajectory(params.sample(grid, 0.0), config)
        assert len(traj.times) == 2

    def test_fixed_step_run_keeps_its_config(self):
        params, grid = cnoidal_setup(n=128)
        u0 = params.sample(grid, 0.0)
        config = EvolverConfig.for_duration(grid, duration=0.02, target_dt=1e-4)
        traj = evolve_trajectory(u0, config)
        assert traj.config is config
        assert traj.error_estimate is None
        assert traj.cfl == cfl_rate(u0, grid) * config.dt

    def test_cfl_reads_the_mean_the_integrating_factor_uses(self):
        # ubar = u_hat[0].real / N from the half spectrum u_hat of u0, not
        # the sampled mean sum(u0) / N, which rounds differently: one mean
        # for the linear operator and the rate
        params = DnWaveParams(alpha=1.0, beta=-1.0, m=0.6, p=3)
        grid = params.natural_grid(n=256)
        u0 = params.sample(grid, 0.0)
        duration = 0.05 * grid.L / abs(params.velocity)
        traj = evolve_trajectory(u0, EvolverConfig(grid, None, duration))
        k_max = (2.0 / 3.0) * np.pi * grid.N / grid.L
        mean = half_mean(u0)
        assert traj.cfl == 6.0 * float(np.abs(u0 - mean).max()) * k_max * traj.config.dt


# Sampled-mean drift allowed, in ulps of 1: the mean of ubar + irfft(v_hat)
# rounds differently from step to step even though v_hat[0] does not.  The
# worst measured over 24 runs (m 0.3/0.5/0.7/0.9, p 1-3, N 128/256,
# T = 0.01, every step sampled) was 2.3 ulps.
MASS_DRIFT_ULPS = 4


class TestConservation:
    def test_mean_is_conserved_exactly(self, monkeypatch):
        # exact is the k = 0 coefficient of v: the nonlinear term carries a
        # factor i k and E is 1 there, so every step returns v_hat[0] = 0.0,
        # and the mean is one number; only sampling the mean adds rounding
        params, grid = cnoidal_setup()
        u0 = params.sample(grid, 0.0)
        step = evolve_module._GridSteps.step
        zero_modes = []

        def recorded(self, v_hat, dt, a=None):
            out = step(self, v_hat, dt, a)
            zero_modes.append(complex(out[0]))
            return out

        monkeypatch.setattr(evolve_module._GridSteps, "step", recorded)
        config = EvolverConfig.for_duration(
            grid, duration=0.05, target_dt=1e-4, snapshot_every=100)
        traj = evolve_trajectory(u0, config)
        assert len(zero_modes) == config.steps
        assert set(zero_modes) == {0.0}
        report = conservation_report(traj)
        assert isinstance(report, ConservationReport)
        assert report.mass_drift <= MASS_DRIFT_ULPS * np.finfo(float).eps
        assert report.momentum_drift < 1e-12


def no_step(self, v_hat, dt, a=None):
    raise AssertionError("the refusal must come before any step")


class TestInstability:
    def test_oversized_step_rejected_before_integration(self, monkeypatch):
        params, grid = cnoidal_setup()
        u0 = params.sample(grid, 0.0)
        cap = CFL_MAX / cfl_rate(u0, grid)

        monkeypatch.setattr(evolve_module._GridSteps, "step", no_step)
        config = EvolverConfig(grid=grid, dt=1.01 * cap, T=20 * 1.01 * cap)
        with pytest.raises(InstabilityError, match="CFL"):
            evolve_trajectory(u0, config)

    def test_blowup_detected_mid_run(self, monkeypatch):
        # a step that doubles every mode stands in for an unstable scheme
        # at a step the CFL check accepts.  The limit is 1e6 times the
        # initial peak of v_hat, 63.6, so after step n the peak is 2^n
        # times the limit's base: 2^20 = 1.05e6 is the first power of two
        # past 1e6, and the guard fires after step 20.  With the mean mode,
        # N |ubar| = 373, in the base it fired after step 23
        params, grid = cnoidal_setup()
        monkeypatch.setattr(evolve_module._GridSteps, "step",
                            lambda self, v_hat, dt, a=None: 2.0 * v_hat)
        config = EvolverConfig.for_duration(grid, duration=0.05, target_dt=1e-4)
        with pytest.raises(InstabilityError, match="spectral peak .* after step 20 "):
            evolve_trajectory(params.sample(grid, 0.0), config)

    def test_blowup_of_a_mostly_mean_wave_is_stopped_within_20_steps(self, monkeypatch):
        # criterion 7's three-copy wave: N |ubar| = 1279 against a peak of
        # v_hat of 2.2, so a limit based on the mean mode let the doubling
        # step grow v 5.8e8-fold and fired after step 30.  On v_hat's own
        # peak the limit fires after step 20, as for any wave
        params = DnWaveParams(alpha=1.0, beta=-1.0, m=0.6, p=3)
        grid = params.natural_grid(n=256)
        monkeypatch.setattr(evolve_module._GridSteps, "step",
                            lambda self, v_hat, dt, a=None: 2.0 * v_hat)
        config = EvolverConfig.for_duration(grid, duration=0.05, target_dt=1e-4)
        with pytest.raises(InstabilityError, match="spectral peak .* after step 20 "):
            evolve_trajectory(params.sample(grid, 0.0), config)

    def test_three_copy_wave_refused_at_coarse_step(self):
        # the oscillation about the mean sets the cap: max|u - ubar| = 0.49
        # against max|u| = 3.1, and dt = 4e-3 is 2.5 times the cap
        params = DnWaveParams(alpha=1.0, beta=-1.0, m=0.99, p=3)
        grid = params.natural_grid(n=256)
        config = EvolverConfig.for_duration(grid, duration=0.04, target_dt=4e-3)
        u0 = params.sample(grid, 0.0)
        assert cfl_rate(u0, grid) * config.dt > 2.0 * CFL_MAX
        with pytest.raises(InstabilityError, match="CFL"):
            evolve_trajectory(u0, config)

    # a huge offset: the sampled oscillation rounds to 0, so the CFL cap is
    # off, and the stages run on the transforms' rounding of the mean.  At
    # beta = 1e20 the pilot's one step would end 4.9e4 off with an error
    # estimate of 1e-11.  The roundoff of one step, eps * max|u0|, already
    # exceeds the error target: a typed refusal before any step, with no
    # numpy warning
    @pytest.mark.parametrize("beta", [1e20, 1e150])
    def test_huge_offset_pilot_raises(self, beta, monkeypatch):
        params = DnWaveParams(alpha=1.0, beta=beta, m=0.5, p=3)
        grid = params.natural_grid(n=256)
        u0 = params.sample(grid, 0.0)
        assert grid_steps(grid, u0)[0].rate == 0.0
        monkeypatch.setattr(evolve_module._GridSteps, "step", no_step)
        with pytest.raises(InstabilityError, match=r"roundoff of one step, eps \* max\|u0\|"):
            evolve_trajectory(u0, EvolverConfig(grid, None, 0.01))

    def test_huge_offset_fixed_step_run_raises(self, monkeypatch):
        params = DnWaveParams(alpha=1.0, beta=1e150, m=0.5, p=3)
        grid = params.natural_grid(n=256)
        config = EvolverConfig.for_duration(grid, duration=0.01, target_dt=1e-3)
        monkeypatch.setattr(evolve_module._GridSteps, "step", no_step)
        with pytest.raises(InstabilityError, match=r"roundoff of one step, eps \* max\|u0\|"):
            evolve_trajectory(params.sample(grid, 0.0), config)

    def test_largest_field_within_the_roundoff_rule_runs(self):
        # just under ERROR_TARGET / eps = 4.5e7, a run still steps
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        u0 = 4.4e7 + np.cos(grid.x)
        traj = evolve_trajectory(u0, EvolverConfig.for_duration(grid, 1e-3, 1e-4))
        assert traj.config.steps == 10 and np.isfinite(traj.final).all()

    # an offset near the float range: the field is finite but its sum is
    # not, which the CFL number read as inf; refused as an input, for a
    # chosen and a given step alike, with no numpy warning
    @pytest.mark.parametrize("dt", [None, 1e-3])
    def test_offset_whose_sum_overflows_is_refused(self, dt):
        params = DnWaveParams(alpha=1.0, beta=1e306, m=0.5, p=3)
        grid = params.natural_grid(n=256)
        u0 = params.sample(grid, 0.0)
        assert np.isfinite(u0).all()
        with pytest.raises(DomainError, match=r"sum of u0 overflows \(max\|u0\| = 1e\+306\)"):
            evolve_trajectory(u0, EvolverConfig.for_duration(grid, 0.01, dt))


class TestStepChoice:
    def test_pilot_catches_what_the_cfl_cap_misses(self):
        # u_2 at m = 0.2, alpha = 2: the CFL cap alone crosses in 10 steps
        # and ends 2.3e-5 from the exact wave; the pilot takes 208
        params = DnWaveParams(alpha=2.0, beta=0.0, m=0.2, p=2)
        grid = params.natural_grid(n=128)
        duration = grid.L / abs(params.velocity)  # one full period crossing
        u0 = params.sample(grid, 0.0)
        chosen = evolve_trajectory(u0, EvolverConfig(grid, None, duration))
        cfl_only = EvolverConfig.for_duration(
            grid, duration, CFL_MAX / cfl_rate(u0, grid))
        exact = params.sample(grid, duration)
        assert chosen.error_estimate <= ERROR_TARGET
        assert np.max(np.abs(chosen.final - exact)) <= 1e-6
        assert np.max(np.abs(evolve_trajectory(u0, cfl_only).final - exact)) > 1e-6

    @pytest.fixture
    def builds(self, monkeypatch):
        """The grids of the _GridSteps built and the dt of each step taken on them."""
        tables, built = [], []
        init, step = evolve_module._GridSteps.__init__, evolve_module._GridSteps.step
        monkeypatch.setattr(evolve_module._GridSteps, "__init__",
                            lambda self, grid, *u: tables.append(grid) or init(self, grid, *u))
        monkeypatch.setattr(evolve_module._GridSteps, "step",
                            lambda self, v_hat, dt, a=None:
                            built.append(dt) or step(self, v_hat, dt, a))
        return tables, built

    def test_one_table_build_per_evolve_run(self, builds, capsys):
        # the pilot rounds share the run's one set of tables and the run
        # takes the accepted step; a run with --dt steps at its dt alone
        tables, built = builds
        wave = ["evolve", "--family", "u1", "-m", "0.5", "--n", "128", "--json"]
        assert main([*wave, "--periods-crossed", "0.05"]) == 0
        assert len(tables) == 1
        tables.clear()
        built.clear()
        assert main([*wave, "--T", "0.02", "--dt", "1e-4"]) == 0
        assert (len(tables), built) == (1, [1e-4] * 200)
        capsys.readouterr()

    def test_chosen_run_pilots_on_one_set_of_tables(self, builds, monkeypatch):
        # each pilot round steps at dt, dt/2 and dt/2 on the run's tables,
        # and the run takes its remaining steps at the accepted round's dt
        tables, built = builds
        pilot, rounds = evolve_module._pilot_error, []
        monkeypatch.setattr(evolve_module, "_pilot_error",
                            lambda *args: rounds.append(args[2].dt) or pilot(*args))
        params, grid = cnoidal_setup(n=128)
        traj = evolve_trajectory(params.sample(grid, 0.0), EvolverConfig(grid, None, 0.02))
        assert tables == [grid]
        assert len(rounds) >= 1 and rounds[-1] == traj.config.dt
        assert built == ([h for dt in rounds for h in (dt, dt / 2.0, dt / 2.0)]
                         + [traj.config.dt] * (traj.config.steps - 1))

    @pytest.mark.parametrize("dt", [None, 1e-4], ids=["chosen", "given"])
    def test_each_factor_is_computed_once(self, monkeypatch, dt):
        # a pilot round steps at dt and dt/2: two sets of tables, and the
        # dt/2 set reuses the dt set's half-step exponential; a run given
        # its step builds one
        schemes, rounds = [], []
        init, pilot = evolve_module._GridSteps.__init__, evolve_module._pilot_error
        monkeypatch.setattr(evolve_module._GridSteps, "__init__",
                            lambda self, *args: schemes.append(self) or init(self, *args))
        monkeypatch.setattr(evolve_module, "_pilot_error",
                            lambda *args: rounds.append(args[2].dt) or pilot(*args))
        params, grid = cnoidal_setup()
        traj = evolve_trajectory(params.sample(grid, 0.0),
                                 EvolverConfig.for_duration(grid, 0.05, dt))
        if dt is None:
            assert len(rounds) == 2
            assert list(schemes[0]._factors) == [h for r in rounds for h in (r, r / 2.0)]
        else:
            assert rounds == [] and list(schemes[0]._factors) == [traj.config.dt]

    def test_shared_first_stage_leaves_the_pilot_unchanged(self):
        # the dt step and the first dt/2 step share nonlinear(v_hat); the
        # pilot equals step doubling with every stage computed afresh
        params, grid = cnoidal_setup(n=256)
        u0 = params.sample(grid, 0.0)
        tables, v_hat = grid_steps(grid, u0)
        before = v_hat.copy()
        config = EvolverConfig.for_duration(grid, 0.02, 1e-3)
        estimate, first = evolve_module._pilot_error(tables, v_hat, config)
        dt = config.dt
        full, half = fresh_tables(grid, u0, dt), fresh_tables(grid, u0, dt / 2.0)
        expected_first = textbook_step(grid, dt, v_hat, full)
        halves = textbook_step(grid, dt / 2.0, textbook_step(grid, dt / 2.0, v_hat, half), half)
        local = float(np.max(np.abs(_irfft(expected_first - halves))))
        assert np.array_equal(first.view(np.uint64), expected_first.view(np.uint64))
        assert np.array_equal(tables.step(v_hat, dt).view(np.uint64),
                              expected_first.view(np.uint64))
        assert estimate == config.steps * local
        assert np.array_equal(v_hat, before)

    def test_stage_evaluations_per_pilot_round_and_step(self, monkeypatch):
        # a pilot round evaluates the shared first stage once, three more
        # stages in each step given it and four in the last dt/2 step:
        # 11, not 12; a run evaluates four per step after the handed step 1
        calls, rounds = [], []
        nonlinear, pilot = evolve_module._GridSteps.nonlinear, evolve_module._pilot_error
        monkeypatch.setattr(evolve_module._GridSteps, "nonlinear",
                            lambda self, v_hat: calls.append(1) or nonlinear(self, v_hat))
        monkeypatch.setattr(evolve_module, "_pilot_error",
                            lambda *args: rounds.append(args) or pilot(*args))
        params, grid = cnoidal_setup(n=128)
        u0 = params.sample(grid, 0.0)
        tables, v_hat = grid_steps(grid, u0)
        evolve_module._pilot_error(tables, v_hat, EvolverConfig.for_duration(grid, 0.02, 1e-3))
        assert len(calls) == 11
        calls.clear()
        given = EvolverConfig.for_duration(grid, 0.02, 1e-4)
        evolve_trajectory(u0, given)
        assert len(calls) == 4 * given.steps
        calls.clear()
        rounds.clear()
        chosen = evolve_trajectory(u0, EvolverConfig(grid, None, 0.02)).config
        assert len(calls) == 11 * len(rounds) + 4 * (chosen.steps - 1)

    def test_chosen_run_equals_a_fixed_run_at_its_config(self):
        # the pilot's step 1 is the run's own, so every snapshot
        # is the one a run given the chosen step computes afresh
        params, grid = cnoidal_setup(n=128)
        u0 = params.sample(grid, 0.0)
        chosen = evolve_trajectory(u0, EvolverConfig(grid, None, 0.05, snapshot_every=7))
        assert chosen.config.dt is not None and chosen.config.snapshot_every == 7
        fixed = evolve_trajectory(u0, chosen.config)
        assert fixed.error_estimate is None and fixed.cfl == chosen.cfl
        assert fixed.times == chosen.times
        assert len(fixed.fields) == len(chosen.fields) > 2
        for ours, theirs in zip(chosen.fields, fixed.fields):
            assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))

    def test_non_finite_handed_step_is_caught(self, monkeypatch):
        # the pilot hands the run its step 1, which the peak check guards
        # as it guards every step
        pilot = evolve_module._pilot_error

        def poisoned(*args):
            estimate, first = pilot(*args)
            first = first.copy()
            first[3] = complex(np.nan, 0.0)
            return estimate, first

        monkeypatch.setattr(evolve_module, "_pilot_error", poisoned)
        params, grid = cnoidal_setup(n=128)
        with pytest.raises(InstabilityError, match="spectral peak .* after step 1 "):
            evolve_trajectory(params.sample(grid, 0.0), EvolverConfig(grid, None, 0.05))

    def test_three_copy_criterion_7_wave_takes_under_400_steps(self):
        # the mean, 99.7% of max|u|, rides in the linear operator: 81
        # steps cross; the count moves only with the scheme
        params = DnWaveParams(alpha=1.0, beta=-1.0, m=0.6, p=3)
        grid = params.natural_grid(n=256)
        duration = grid.L / abs(params.velocity)
        traj = evolve_trajectory(params.sample(grid, 0.0), EvolverConfig(grid, None, duration))
        assert traj.error_estimate <= ERROR_TARGET
        assert traj.config.steps == 81

    def test_single_criterion_7_wave_step_count(self):
        # 797 steps cross; the count moves only with the scheme
        params, grid = cnoidal_setup()
        duration = grid.L / abs(params.velocity)
        traj = evolve_trajectory(params.sample(grid, 0.0), EvolverConfig(grid, None, duration))
        assert traj.error_estimate <= ERROR_TARGET
        assert traj.config.steps == 797

    def test_mostly_mean_wave_crosses_in_one_step(self):
        # eight copies at m = 0.7: an oscillation of 5.7e-7 about a mean of
        # -6.5 crosses in one step and ends 6.8e-14 from the exact wave
        params = DnWaveParams(alpha=1.0, beta=0.2, m=0.7, p=8)
        grid = params.natural_grid(n=256)
        duration = grid.L / abs(params.velocity)
        u0 = params.sample(grid, 0.0)
        traj = evolve_trajectory(u0, EvolverConfig(grid, None, duration))
        assert traj.config.steps == 1
        oscillation = np.max(np.abs(u0 - np.mean(u0)))
        final = traj.final
        assert np.max(np.abs(final - params.sample(grid, duration))) <= 1e-6 * oscillation

    def test_slow_small_oscillation_wave_gets_a_step(self, monkeypatch):
        # three copies at m = 0.2, beta = 0 barely move and barely oscillate:
        # the cap allows dt = 1.97, and the pilot's first round, 12 steps,
        # meets the target
        params = DnWaveParams(alpha=1.0, beta=0.0, m=0.2, p=3)
        grid = params.natural_grid(n=128)
        duration = grid.L / abs(params.velocity)
        pilot, rounds = evolve_module._pilot_error, []
        monkeypatch.setattr(evolve_module, "_pilot_error",
                            lambda *args: rounds.append(args) or pilot(*args))
        traj = evolve_trajectory(params.sample(grid, 0.0), EvolverConfig(grid, None, duration))
        assert traj.error_estimate <= ERROR_TARGET
        assert len(rounds) == 1 and traj.config.steps == 12

    def test_pilot_rescales_a_stalled_estimate_as_dt(self, monkeypatch):
        # three copies at m = 0.5, beta = 0 barely oscillate: from the cap
        # the estimate falls about as dt (4.7e-8 at 35 steps, 3.2e-8 at
        # 54), so rescaling every round as dt^4 ends 8 rounds at 1.6e-8;
        # rescaling as dt after a round that did not halve the estimate
        # reaches the target at 512 steps in 4 rounds
        params = DnWaveParams(alpha=1.0, beta=0.0, m=0.5, p=3)
        grid = params.natural_grid(n=128)
        duration = grid.L / abs(params.velocity)
        pilot, rounds = evolve_module._pilot_error, []
        monkeypatch.setattr(evolve_module, "_pilot_error",
                            lambda *args: rounds.append(args[2].steps) or pilot(*args))
        traj = evolve_trajectory(params.sample(grid, 0.0), EvolverConfig(grid, None, duration))
        assert rounds == [35, 54, 189, 512] and traj.config.steps == 512
        assert traj.error_estimate <= ERROR_TARGET
        assert np.max(np.abs(traj.final - params.sample(grid, duration))) <= 1e-6

    @pytest.mark.parametrize("p, m", [
        # 5.8e-11 off in 3353 steps; 9e-3 off under IF-RK4 at a cap of 0.5
        (1, 0.9),
        # 6.9e-11 off in 2451 steps; IF-RK4 under its pilot's step ended
        # 1.2e-5 off with no guard firing
        (2, 0.99),
    ])
    def test_pilot_step_crosses_accurately_at_n_512(self, p, m):
        params = DnWaveParams(alpha=1.0, beta=0.0, m=m, p=p)
        grid = params.natural_grid(n=512)
        duration = grid.L / abs(params.velocity)
        u0 = params.sample(grid, 0.0)
        final = evolve_trajectory(u0, EvolverConfig(grid, None, duration)).final
        assert np.max(np.abs(final - params.sample(grid, duration))) <= 1e-6

    # IF-RK4 blew up on all three under its pilot's step; ETDRK4 ends
    # 5.9e-11, 4.3e-11 and 3.4e-11 off in 3343, 6679 and 2932 steps
    @pytest.mark.parametrize("p, m", [(1, 0.9), (1, 0.99), (2, 0.99)])
    def test_pilot_step_crosses_accurately_at_n_1024(self, p, m):
        params = DnWaveParams(alpha=1.0, beta=0.0, m=m, p=p)
        grid = params.natural_grid(n=1024)
        duration = grid.L / abs(params.velocity)
        u0 = params.sample(grid, 0.0)
        final = evolve_trajectory(u0, EvolverConfig(grid, None, duration)).final
        assert np.max(np.abs(final - params.sample(grid, duration))) <= 1e-6

    def test_unreachable_target_raises(self):
        # a huge field: steps short enough to tame truncation error are so
        # many that their summed roundoff stays far above the target
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        with pytest.raises(InstabilityError, match="error target"):
            evolve_trajectory(1e9 * np.sin(grid.x), EvolverConfig(grid, None, 1e-6))


class TestTranslationLag:
    def test_recovers_circular_shift(self):
        params, grid = cnoidal_setup()
        u0 = params.sample(grid, 0.0)
        shifted = np.roll(u0, 37)
        assert translation_lag(u0, shifted, grid) == pytest.approx(
            37 * grid.spacing, abs=1e-12)
        # the k = 0 cross term, a constant, is left out: offsets do not
        # move the lag
        for a, b in ((5.0, 0.0), (0.0, -3.0), (1e3, 1e3)):
            assert translation_lag(u0 + a, shifted + b, grid) == 37 * grid.spacing

    # the cross spectrum of 1e200 waves overflows, and of 1e-170 and
    # 1e-300 waves underflows to all zeros, unless each is scaled first
    @pytest.mark.parametrize("a", [1e150, 1e200, 1e-170, 1e-300])
    def test_lag_holds_at_extreme_amplitudes(self, a):
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        u0, shifted = np.cos(grid.x), np.cos(grid.x - 0.5)
        assert translation_lag(a * u0, a * shifted, grid) == translation_lag(u0, shifted, grid)
        assert translation_lag(u0, shifted, grid) == 5 * grid.spacing

    def test_evolved_lag_matches_velocity(self):
        params, grid = cnoidal_setup()
        config = EvolverConfig.for_duration(grid, duration=0.05, target_dt=1e-4)
        u_final = evolve_trajectory(params.sample(grid, 0.0), config).final
        expected = (params.velocity * config.T) % grid.L
        assert translation_lag(params.sample(grid, 0.0), u_final, grid) == pytest.approx(
            expected, abs=grid.spacing)

    @pytest.mark.parametrize("shapes", [((128,), (256,)), ((256,), (128,)), ((16, 16), (256,))])
    def test_fields_off_the_grid_are_refused(self, shapes):
        _, grid = cnoidal_setup()
        name = "u0" if shapes[0] != (256,) else "u_final"
        with pytest.raises(DomainError, match=rf"{name} must have shape \(256,\)"):
            translation_lag(np.zeros(shapes[0]), np.zeros(shapes[1]), grid)

    @pytest.mark.parametrize("flat", ["u0", "u_final"])
    def test_flat_field_is_refused(self, flat):
        # with the k = 0 term dropped a flat field's correlation is all zero,
        # and its argmax, index 0, would read as "no lag"
        params, grid = cnoidal_setup(n=64)
        fields = {"u0": params.sample(grid, 0.0), "u_final": params.sample(grid, 0.1)}
        fields[flat] = np.ones(64)
        with pytest.raises(DomainError, match=f"{flat} is constant to roundoff"):
            translation_lag(fields["u0"], fields["u_final"], grid)
