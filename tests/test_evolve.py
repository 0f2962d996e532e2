"""Time-integrator tests.

The analytic traveling waves double as exact solutions, so accuracy is
checked against them directly; self-convergence at dt halving pins the
fourth-order rate.
"""

import math

import numpy as np
import pytest

import landen_kdv.evolve as evolve_module
from landen_kdv import (
    DnWaveParams,
    DomainError,
    InstabilityError,
    PeriodicGrid,
    fft,
    ifft,
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
from landen_kdv.fourier import kept_modes


def cnoidal_setup(n=256, m=0.5):
    params = DnWaveParams(alpha=1.0, beta=0.0, m=m)
    grid = params.natural_grid(n=n)
    return params, grid


def cfl_rate(u0, grid):
    """6 max|u0 - ubar| k_max, ubar = fft(u0)[0].real / N: the CFL number at dt = 1."""
    k_max = (2.0 / 3.0) * np.pi * grid.N / grid.L
    return 6.0 * float(np.abs(u0 - fft(u0)[0].real / grid.N).max()) * k_max


def grid_steps(grid, u0):
    """The run's scheme for u0, built as evolve_trajectory builds it."""
    u_hat = fft(u0)
    return evolve_module._GridSteps(grid, u0, u_hat), u_hat


class TestConfig:
    def test_steps_and_cap(self):
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        config = EvolverConfig(grid=grid, dt=1e-4, T=1e-2)
        assert config.steps == 100
        # the cap reads the oscillation about the mean, not the mean
        u = -0.7 + 0.2 * np.cos(grid.x)
        k_max = (2.0 / 3.0) * np.pi * grid.N / grid.L
        assert grid_steps(grid, u)[0].rate == pytest.approx(6.0 * 0.2 * k_max, rel=1e-13)
        # a short run of the cnoidal wave is accurate at the cap, so the
        # CFL cap alone sets dt: 95 steps, with an estimate of 1.5e-9
        params, wave_grid = cnoidal_setup()
        u = params.sample(wave_grid, 0.0)
        cap = CFL_MAX / cfl_rate(u, wave_grid)
        traj = evolve_trajectory(u, EvolverConfig(wave_grid, None, 0.05))
        assert traj.error_estimate <= ERROR_TARGET
        assert traj.config.steps == int(np.ceil(0.05 / cap)) > 1
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

    @pytest.mark.parametrize("dt,T", [(0.0, 1.0), (-1e-3, 1.0), (1e-3, 0.0), (1e-3, -1.0)])
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

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
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


def textbook_step(grid, dt, u_hat):
    """The IF-RK4 step of u = ubar + v written out with the public transforms.

    The integrating factor carries dispersion and the advection 6 ubar u_x
    by the mean ubar = u_hat[0].real / N; the stages step 6 v v_x alone.
    """
    k = grid.k
    mean = u_hat[0].real / grid.N
    linear = 1j * (k * k * k + 6.0 * mean * k)
    e_full = np.exp(linear * dt)
    e_half = np.exp(linear * (dt / 2.0))
    coeff = 3j * k * kept_modes(grid.N)

    def nonlinear(w_hat):
        v = ifft(w_hat).real - mean
        return coeff * fft(v * v)

    a = nonlinear(u_hat)
    b = nonlinear(e_half * (u_hat + (dt / 2.0) * a))
    c = nonlinear(e_half * u_hat + (dt / 2.0) * b)
    d = nonlinear(e_full * u_hat + dt * e_half * c)
    return e_full * u_hat + (dt / 6.0) * (e_full * a + 2.0 * e_half * (b + c) + d)


class TestStep:
    @pytest.mark.parametrize("n", [256, 512])  # a square plan, and not
    def test_full_and_half_steps_are_the_textbook_expression(self, n):
        # in the pilot's order, the dt/2 step reads its full-step factor
        # from the dt step's half-step arrays
        params, grid = cnoidal_setup(n=n)
        tables, u_hat = grid_steps(grid, params.sample(grid, 0.0))
        before = u_hat.copy()
        dt = 1e-4
        stage = tables.nonlinear(u_hat)
        for h in (dt, dt / 2.0):
            expected = textbook_step(grid, h, u_hat).view(np.uint64)
            assert np.array_equal(tables.step(u_hat, h).view(np.uint64), expected)
            assert np.array_equal(tables.step(u_hat, h, stage.copy()).view(np.uint64),
                                  expected)
        assert np.array_equal(u_hat, before)

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_step_is_the_textbook_expression_bit_for_bit(self, n):
        # the step's in-place stages keep every operand order of the
        # textbook IF-RK4 step written with the public transforms
        params, grid = cnoidal_setup(n=n)
        dt = 1e-4
        tables, u_hat = grid_steps(grid, params.sample(grid, 0.0))
        expected = textbook_step(grid, dt, u_hat)
        before = u_hat.copy()
        ours = tables.step(u_hat, dt)
        assert np.array_equal(ours.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(u_hat, before)


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
        # ubar = fft(u0)[0].real / N, not the sampled mean sum(u0) / N,
        # which rounds differently: one mean for the factor and the rate
        params = DnWaveParams(alpha=1.0, beta=-1.0, m=0.6, p=3)
        grid = params.natural_grid(n=256)
        u0 = params.sample(grid, 0.0)
        duration = 0.05 * grid.L / abs(params.velocity)
        traj = evolve_trajectory(u0, EvolverConfig(grid, None, duration))
        k_max = (2.0 / 3.0) * np.pi * grid.N / grid.L
        mean = fft(u0)[0].real / grid.N
        assert traj.cfl == 6.0 * float(np.abs(u0 - mean).max()) * k_max * traj.config.dt


# Sampled-mean drift allowed, in ulps of 1: mean(ifft(u_hat).real) rounds
# differently from step to step even though u_hat[0] does not change.  The
# worst measured over 24 runs (m 0.3/0.5/0.7/0.9, p 1-3, N 128/256,
# T = 0.01, every step sampled) was 2.3 ulps.
MASS_DRIFT_ULPS = 4


class TestConservation:
    def test_mean_is_conserved_exactly(self, monkeypatch):
        # exact is the k = 0 coefficient: the nonlinear term carries a factor
        # i k and the integrating factor is 1 there, so every step returns
        # u_hat[0] bit for bit; only sampling the mean adds rounding
        params, grid = cnoidal_setup()
        u0 = params.sample(grid, 0.0)
        step = evolve_module._GridSteps.step
        zero_modes = []

        def recorded(self, u_hat, dt, a=None):
            out = step(self, u_hat, dt, a)
            zero_modes.append(out[0].tobytes())
            return out

        monkeypatch.setattr(evolve_module._GridSteps, "step", recorded)
        config = EvolverConfig.for_duration(
            grid, duration=0.05, target_dt=1e-4, snapshot_every=100)
        traj = evolve_trajectory(u0, config)
        assert len(zero_modes) == config.steps
        assert set(zero_modes) == {fft(u0)[0].tobytes()}
        report = conservation_report(traj)
        assert isinstance(report, ConservationReport)
        assert report.mass_drift <= MASS_DRIFT_ULPS * np.finfo(float).eps
        assert report.momentum_drift < 1e-12


class TestInstability:
    def test_oversized_step_rejected_before_integration(self, monkeypatch):
        params, grid = cnoidal_setup()
        u0 = params.sample(grid, 0.0)
        cap = CFL_MAX / cfl_rate(u0, grid)

        def no_step(self, u_hat, dt, a=None):
            raise AssertionError("the refusal must come before any step")

        monkeypatch.setattr(evolve_module._GridSteps, "step", no_step)
        config = EvolverConfig(grid=grid, dt=1.01 * cap, T=20 * 1.01 * cap)
        with pytest.raises(InstabilityError, match="CFL"):
            evolve_trajectory(u0, config)

    def test_blowup_detected_mid_run(self, monkeypatch):
        # a step that doubles every mode stands in for an unstable scheme
        # at a step the CFL check accepts: 2^20 is the first power of two
        # past the 1e6 growth limit, so the guard fires after step 20
        params, grid = cnoidal_setup()
        monkeypatch.setattr(evolve_module._GridSteps, "step",
                            lambda self, u_hat, dt, a=None: 2.0 * u_hat)
        config = EvolverConfig.for_duration(grid, duration=0.05, target_dt=1e-4)
        with pytest.raises(InstabilityError, match="spectral peak .* after step 20 "):
            evolve_trajectory(params.sample(grid, 0.0), config)

    def test_three_copy_wave_refused_at_coarse_step(self):
        # the oscillation about the mean sets the cap: max|u - ubar| = 0.49
        # against max|u| = 3.1, and dt = 8e-4 is twice the cap
        params = DnWaveParams(alpha=1.0, beta=-1.0, m=0.99, p=3)
        grid = params.natural_grid(n=256)
        config = EvolverConfig.for_duration(grid, duration=0.04, target_dt=8e-4)
        u0 = params.sample(grid, 0.0)
        assert cfl_rate(u0, grid) * config.dt > 2.0 * CFL_MAX
        with pytest.raises(InstabilityError, match="CFL"):
            evolve_trajectory(u0, config)

    # a huge offset: the sampled oscillation rounds to 0, so the CFL cap is
    # off, while ifft(fft(u0)) - ubar keeps the transforms' rounding of the
    # mean, and the stages overflow on it; a typed refusal, no numpy warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("beta", [1e20, 1e150])
    def test_huge_offset_pilot_raises(self, beta):
        params = DnWaveParams(alpha=1.0, beta=beta, m=0.5, p=3)
        grid = params.natural_grid(n=256)
        u0 = params.sample(grid, 0.0)
        assert grid_steps(grid, u0)[0].rate == 0.0
        with pytest.raises(InstabilityError, match="error target"):
            evolve_trajectory(u0, EvolverConfig(grid, None, 0.01))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_offset_fixed_step_run_raises(self):
        params = DnWaveParams(alpha=1.0, beta=1e150, m=0.5, p=3)
        grid = params.natural_grid(n=256)
        config = EvolverConfig.for_duration(grid, duration=0.01, target_dt=1e-3)
        with pytest.raises(InstabilityError, match="spectral peak .* after step 1 "):
            evolve_trajectory(params.sample(grid, 0.0), config)

    # an offset near the float range: the field is finite but its sum is
    # not, which the CFL number read as inf; refused as an input, for a
    # chosen and a given step alike, with no numpy warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
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
                            lambda self, u_hat, dt, a=None:
                            built.append(dt) or step(self, u_hat, dt, a))
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

    @pytest.mark.parametrize("dt, factors", [
        (None, lambda dt: [dt, dt / 2.0, dt / 4.0]),
        (1e-4, lambda dt: [dt, dt / 2.0]),
    ], ids=["chosen", "given"])
    def test_each_factor_is_computed_once(self, monkeypatch, dt, factors):
        # a pilot round steps at dt and dt/2, and its dt/2 step reuses the
        # dt step's half-step factor: three exponentials, not four; a run
        # given its step computes two
        schemes, rounds = [], []
        init, pilot = evolve_module._GridSteps.__init__, evolve_module._pilot_error
        monkeypatch.setattr(evolve_module._GridSteps, "__init__",
                            lambda self, *args: schemes.append(self) or init(self, *args))
        monkeypatch.setattr(evolve_module, "_pilot_error",
                            lambda *args: rounds.append(args[2].dt) or pilot(*args))
        params, grid = cnoidal_setup()
        traj = evolve_trajectory(params.sample(grid, 0.0),
                                 EvolverConfig.for_duration(grid, 0.05, dt))
        assert len(rounds) == (dt is None)
        assert list(schemes[0]._factors) == factors(traj.config.dt)

    def test_shared_first_stage_leaves_the_pilot_unchanged(self):
        # the dt step and the first dt/2 step share nonlinear(u_hat); the
        # pilot equals step doubling with every stage computed afresh
        params, grid = cnoidal_setup(n=256)
        tables, u_hat = grid_steps(grid, params.sample(grid, 0.0))
        before = u_hat.copy()
        config = EvolverConfig.for_duration(grid, 0.02, 1e-3)
        estimate, first = evolve_module._pilot_error(tables, u_hat, config)
        dt = config.dt
        expected_first = textbook_step(grid, dt, u_hat)
        halves = textbook_step(grid, dt / 2.0, textbook_step(grid, dt / 2.0, u_hat))
        local = float(np.max(np.abs(ifft(expected_first - halves).real)))
        assert np.array_equal(first.view(np.uint64), expected_first.view(np.uint64))
        assert np.array_equal(tables.step(u_hat, dt).view(np.uint64),
                              expected_first.view(np.uint64))
        assert estimate == config.steps * local
        assert np.array_equal(u_hat, before)

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
        # the mean, 99.7% of max|u|, rides in the integrating factor: 333
        # steps cross where stepping it took 1221
        params = DnWaveParams(alpha=1.0, beta=-1.0, m=0.6, p=3)
        grid = params.natural_grid(n=256)
        duration = grid.L / abs(params.velocity)
        traj = evolve_trajectory(params.sample(grid, 0.0), EvolverConfig(grid, None, duration))
        assert traj.error_estimate <= ERROR_TARGET
        assert traj.config.steps < 400

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
        # the cap allows dt = 0.49, far outside the dt^4 regime, and the
        # pilot needs 5 rounds to reach the target
        params = DnWaveParams(alpha=1.0, beta=0.0, m=0.2, p=3)
        grid = params.natural_grid(n=128)
        duration = grid.L / abs(params.velocity)
        pilot, rounds = evolve_module._pilot_error, []
        monkeypatch.setattr(evolve_module, "_pilot_error",
                            lambda *args: rounds.append(args) or pilot(*args))
        traj = evolve_trajectory(params.sample(grid, 0.0), EvolverConfig(grid, None, duration))
        assert traj.error_estimate <= ERROR_TARGET
        assert len(rounds) == 5

    @pytest.mark.parametrize("p, m", [
        # ended 2.6e-2 off under the old cap of 2 on max|u|, and 9e-3 off
        # under a cap of 0.5 on max|u - ubar|; 3.1e-8 at the swept cap
        (1, 0.9),
        pytest.param(2, 0.99, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=(
                "the pilot's own step ends 1.2e-5 from the exact wave and no "
                "guard fires: the pilot sees one step, not the slow growth of "
                "the top kept modes"))),
    ])
    def test_pilot_step_crosses_accurately_at_n_512(self, p, m):
        params = DnWaveParams(alpha=1.0, beta=0.0, m=m, p=p)
        grid = params.natural_grid(n=512)
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

    def test_evolved_lag_matches_velocity(self):
        params, grid = cnoidal_setup()
        config = EvolverConfig.for_duration(grid, duration=0.05, target_dt=1e-4)
        u_final = evolve_trajectory(params.sample(grid, 0.0), config).final
        expected = (params.velocity * config.T) % grid.L
        assert translation_lag(params.sample(grid, 0.0), u_final, grid) == pytest.approx(
            expected, abs=grid.spacing)
