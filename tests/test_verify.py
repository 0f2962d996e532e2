"""Verification-layer tests: residuals, equivalence, limits and the suites."""

import contextlib
import dataclasses
import hashlib
import inspect
import json
import math
import warnings

import numpy as np
import pytest

import landen_kdv.elliptic as elliptic_module
import landen_kdv.fourier as fourier_module
import landen_kdv.landen as landen_module
import landen_kdv.verify as verify_module
import landen_kdv.waves as waves_module
from landen_kdv import (
    AliasingWarning,
    DnWaveParams,
    DomainError,
    PeriodMismatchError,
    PeriodicGrid,
    PmWaveParams,
    TOLERANCES,
    TravelingProfile,
    equivalence_check,
    kdv_residual,
    landen_map,
    run_suite,
    soliton_limit_check,
    transform_params,
)
from landen_kdv.verify import SUITES, CheckResult, _as_written, _upm_sum
from landen_kdv.waves import _pm_as_dn2


class TestKdvResidual:
    def test_single_cnoidal_wave_solves(self):
        params = DnWaveParams(alpha=1.0, beta=0.0, m=0.5)
        report = kdv_residual(params, params.natural_grid(n=256))
        assert report.normalized < 1e-9

    def test_superposition_solves(self):
        params = DnWaveParams(alpha=1.0, beta=0.2, m=0.7, p=3)
        report = kdv_residual(params, params.natural_grid(n=256))
        assert report.normalized < 1e-8

    def test_report_internal_consistency(self):
        params = DnWaveParams(alpha=1.3, beta=-0.1, m=0.6, p=2)
        grid = params.natural_grid(n=256)
        report = kdv_residual(params, grid, t=0.15)
        u = params.sample(grid, 0.15)
        u_hat = fourier_module.drop_noise_floor(fourier_module.fft(u))
        u_x, u_xxx = (fourier_module._derivative_of_spectrum(u_hat, grid.k, order)
                      for order in (1, 3))
        terms = (-params.velocity * u_x, 6.0 * u * u_x, u_xxx)
        assert report.scale == pytest.approx(max(np.max(np.abs(v)) for v in terms), rel=1e-12)
        assert report.linf == pytest.approx(
            np.max(np.abs(terms[0] - terms[1] + terms[2])), rel=1e-12)
        assert report.normalized == pytest.approx(report.linf / report.scale, rel=1e-12)

    def test_residual_plateau_under_refinement(self):
        # once the spectrum is resolved, doubling N must not inflate the
        # normalized residual: the noise-floor truncation keeps the k^3
        # amplification off the roundoff rubble
        params = DnWaveParams(alpha=1.0, beta=0.0, m=0.5)
        levels = [
            kdv_residual(params, params.natural_grid(n=n)).normalized
            for n in (128, 256, 512, 1024)
        ]
        assert all(r < 1e-9 for r in levels)

    def test_time_slices_agree(self):
        params = DnWaveParams(alpha=1.0, beta=0.0, m=0.5, p=2)
        grid = params.natural_grid(n=256)
        r0 = kdv_residual(params, grid, t=0.0).normalized
        r1 = kdv_residual(params, grid, t=0.4).normalized
        assert abs(r0 - r1) < 1e-10

    def test_grid_must_hold_whole_periods(self):
        params = DnWaveParams(alpha=1.0, beta=0.0, m=0.5)
        with pytest.raises(PeriodMismatchError):
            kdv_residual(params, PeriodicGrid(N=256, L=1.0))

    @pytest.mark.parametrize("period", [math.nan, 0.0, math.inf, -1.0])
    def test_degenerate_period_is_refused(self, period):
        wave = TravelingProfile(profile=np.cos, velocity=1.0, spatial_period=period)
        with pytest.raises(PeriodMismatchError):
            kdv_residual(wave, PeriodicGrid(N=256, L=2.0 * math.pi))

    def test_multiple_periods_accepted(self):
        params = DnWaveParams(alpha=1.0, beta=0.0, m=0.5)
        report = kdv_residual(params, params.natural_grid(n=512, periods=3))
        assert report.normalized < 1e-9

    def test_non_solution_is_loud(self):
        # dn^3 with the cnoidal dispersion relation is not a solution and
        # the residual must say so at order one, not order epsilon
        from landen_kdv import jacobi_sn_cn_dn

        class Dn3Wave:
            velocity = 8.0 - 4.0 * 0.5
            spatial_period = DnWaveParams(alpha=1.0, beta=0.0, m=0.5).spatial_period

            def sample(self, grid, t):
                return -2.0 * jacobi_sn_cn_dn(grid.x - self.velocity * t, 0.5)[2] ** 3

        wave = Dn3Wave()
        grid = PeriodicGrid(N=256, L=wave.spatial_period)
        assert kdv_residual(wave, grid).normalized > 1e-2

    def test_mixed_wave_standard_scaling_solves(self):
        params = PmWaveParams(alpha=1.3, m=0.5, sign=1)
        grid = params.natural_grid(n=256)
        assert kdv_residual(params, grid, t=0.1).normalized < 1e-7

    def test_mixed_wave_linear_scaling_fails_off_unit_alpha(self):
        params = PmWaveParams(alpha=1.3, m=0.5, sign=1)
        grid = params.natural_grid(n=256)
        assert kdv_residual(_as_written(params), grid, t=0.1).normalized > 1e-3

    def test_aliasing_warning_on_coarse_grid(self):
        params = DnWaveParams(alpha=1.0, beta=0.0, m=1.0 - 1e-9)
        grid = params.natural_grid(n=64)
        with pytest.warns(AliasingWarning):
            kdv_residual(params, grid)

    def test_warns_on_top_third_energy(self):
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        wave = TravelingProfile(lambda xs: np.cos(25 * xs), 1.0, 2 * np.pi)
        with pytest.warns(AliasingWarning):
            kdv_residual(wave, grid)

    def test_no_warning_for_resolved_field(self):
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        wave = TravelingProfile(lambda xs: np.cos(3 * xs), 1.0, 2 * np.pi)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AliasingWarning)
            kdv_residual(wave, grid)

    def test_nyquist_only_field_is_refused_without_warning(self):
        # the Nyquist mode is all top third, but an odd derivative zeroes it:
        # every term of the equation is zero, so the field is refused as flat
        # before its spectrum is read for aliasing
        grid = PeriodicGrid(N=64, L=2 * np.pi)
        wave = TravelingProfile(lambda xs: 1.0 + 1e-3 * np.cos(32 * xs), 1.0, 2 * np.pi)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AliasingWarning)
            with pytest.raises(DomainError, match="constant to roundoff"):
                kdv_residual(wave, grid)

    def test_one_forward_transform(self, monkeypatch):
        # one forward fft of the field; the inverses of u_x and u_xxx run
        # on their own plan and make no fft call
        count = [0]
        original = fourier_module.fft

        def counted(a):
            count[0] += 1
            return original(a)

        for module in (fourier_module, verify_module):
            monkeypatch.setattr(module, "fft", counted)
        params = DnWaveParams(alpha=1.0, beta=0.2, m=0.7, p=3)
        kdv_residual(params, params.natural_grid(n=256))
        assert count[0] == 1

    @pytest.mark.parametrize("p, m", [(13, 0.5), (3, 1e-4), (8, 0.3)])
    def test_flat_superposition_does_not_warn(self, p, m):
        # m_tilde underflows and the field is its mean plus roundoff; the
        # debris is not high-mode content.  Where every term of the equation
        # is zero the residual measures nothing and is refused; at (8, 0.3)
        # the field still oscillates (scale ~1.6e-7)
        params = DnWaveParams(alpha=1.0, beta=0.0, m=m, p=p)
        outcome = (contextlib.nullcontext() if (p, m) == (8, 0.3)
                   else pytest.raises(DomainError, match="constant to roundoff"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", AliasingWarning)
            with outcome:
                kdv_residual(params, params.natural_grid(n=256))


    @pytest.mark.parametrize("n", [256, 512])
    def test_small_oscillation_on_large_mean_solves(self, n):
        # oscillates by 4.6e-5 on a mean of -11.7; a drop floor tied to the
        # spectral peak (the mean mode) cut its second harmonic, ~1.3e-12,
        # and the residual read 3.3e-7
        params = DnWaveParams(alpha=1.3, beta=0.2, m=0.99, p=13)
        report = kdv_residual(params, params.natural_grid(n=n))
        assert report.normalized < TOLERANCES["residual_up"]


class TestEquivalence:
    def test_identity_map_is_exact(self):
        params = DnWaveParams(alpha=1.0, beta=0.0, m=0.5)
        dev = equivalence_check(params, params.natural_grid(n=256))
        assert dev < 1e-13

    def test_two_term_collapse(self):
        params = DnWaveParams(alpha=1.0, beta=0.0, m=0.5, p=2)
        dev = equivalence_check(params, params.natural_grid(n=512, periods=2))
        assert dev < 1e-10

    def test_stressed_parameters(self):
        params = DnWaveParams(alpha=1.7, beta=-0.4, m=0.9, p=5)
        dev = equivalence_check(params, params.natural_grid(n=512, periods=2))
        assert dev < 1e-9

    def test_time_shift_invariance(self):
        for p, m in ((2, 0.5), (3, 0.7)):
            params = DnWaveParams(alpha=1.0, beta=0.1, m=m, p=p)
            grid = params.natural_grid(n=512, periods=2)
            d0 = equivalence_check(params, grid, t=0.0)
            d1 = equivalence_check(params, grid, t=0.25)
            assert abs(d0 - d1) < 2e-11

    def test_shifted_offset_constant_fails_the_later_slices(self, monkeypatch):
        # both A determinations go through _consistency_A, so a 1e-6 shift
        # there passes landen_map's A-agreement gate; the single wave's own
        # speed reads no A, so the slices at t = 0.1 and 0.5 must see the
        # superposition's b_p
        pms = [(p, m) for p in verify_module._EQUIV_PS for m in verify_module._EQUIV_MS]
        unshifted = {pm: landen_map(*pm).A for pm in pms}
        original = landen_module._consistency_A
        try:
            with monkeypatch.context() as patch:
                patch.setattr(landen_module, "_consistency_A",
                              lambda *args: original(*args) + 1e-6)
                landen_map.cache_clear()
                shifted = run_suite("equivalence")
                maps = {pm: landen_map(*pm) for pm in pms}
                nome_A = {pm: landen_module._nome(*pm)[3] for pm in pms}
        finally:
            landen_map.cache_clear()
        for pm, lmap in maps.items():
            assert lmap.A - unshifted[pm] == pytest.approx(1e-6, abs=1e-12)
            assert abs(lmap.A - nome_A[pm]) < 1e-13
        assert sum(not r.passed for r in shifted) >= 40
        assert all(r.passed for r in run_suite("equivalence"))


class TestLimits:
    def test_soliton_limit_default_epsilon(self):
        assert soliton_limit_check(1.0, 0.0) < 1e-5
        assert soliton_limit_check(2.0, 1.0) < 1e-5

    def test_soliton_exact_endpoint(self):
        assert soliton_limit_check(1.0, 0.0, epsilon=0.0) < 1e-12

    def test_limit_tightens_with_epsilon(self):
        coarse = soliton_limit_check(1.0, 0.0, epsilon=1e-6)
        fine = soliton_limit_check(1.0, 0.0, epsilon=1e-10)
        assert fine < coarse

    @pytest.mark.parametrize("kwargs", [{"epsilon": -1e-3}, {"epsilon": 1.0}, {"epsilon": math.nan}])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            soliton_limit_check(1.0, 0.0, **kwargs)


class TestMixedSuperpositionProbe:
    """Speeds of p-term u_pm sums, predicted by their dn^2 form.

    The pins are the speeds a least-squares fit of the sampled sums gives.
    """

    BASE = PmWaveParams(alpha=1.0, m=0.5, sign=1)

    def _speed_and_residual(self, p):
        speed = _pm_as_dn2(self.BASE, p)[0].velocity
        wave = TravelingProfile(_upm_sum(self.BASE, p), speed, self.BASE.spatial_period)
        return speed, kdv_residual(wave, self.BASE.natural_grid(512)).normalized

    def test_single_copy_recovers_base_speed(self):
        speed, res = self._speed_and_residual(1)
        assert res < 1e-9
        assert speed == pytest.approx(-1.5, rel=1e-14)

    def test_two_copies_travel_rigidly(self):
        # the two-copy sum collapses to a pure sn^2 profile moving at -6
        speed, res = self._speed_and_residual(2)
        assert res < 1e-9
        assert speed == pytest.approx(-6.0, rel=1e-14)

    def test_three_copies_travel_rigidly(self):
        speed, res = self._speed_and_residual(3)
        assert res < 1e-9
        assert speed == pytest.approx(-11.3348963228472, rel=1e-14)

    @staticmethod
    def _run(name):
        checks = [c for suite in SUITES.values() for c in suite() if c.name == name]
        assert len(checks) == 6
        return [c.run(TOLERANCES) for c in checks]

    def test_shifted_offset_constant_fails_every_sum(self, monkeypatch):
        # A(p, m1) off by 1e-6 moves the predicted speed by 12e-6 lam^2 alpha^2;
        # the residual of every sum must see it
        original = waves_module.landen_map

        def shifted(p, m):
            lmap = original(p, m)
            return dataclasses.replace(lmap, A=lmap.A + 1e-6)

        assert all(r.passed for r in self._run("residual_upm_sum"))
        monkeypatch.setattr(waves_module, "landen_map", shifted)
        results = self._run("residual_upm_sum")
        assert not any(r.passed for r in results)
        assert min(r.metric for r in results) > 1e-7

    def test_dropped_branch_offset_fails_identity(self, monkeypatch):
        original = verify_module._pm_as_dn2
        monkeypatch.setattr(verify_module, "_pm_as_dn2",
                            lambda params, p: (original(params, p)[0], 0.0))
        results = self._run("upm_dn2_identity")
        assert [r.passed for r in results] == [r.params["sign"] == -1 for r in results]


class TestSuites:
    def test_all_suites_pass(self):
        for name in SUITES:
            results = run_suite(name)
            assert results, name
            failed = [r for r in results if not r.passed]
            assert not failed, (name, [r.check for r in failed])

    def test_combined_suite_is_concatenation(self):
        combined = run_suite("all")
        total = sum(len(run_suite(name)) for name in SUITES)
        assert len(combined) == total

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            run_suite("nonsense")

    def test_every_tolerance_is_cited_by_a_check(self):
        # a family deleted without its knob, or a knob left without a family,
        # would leave a --tol name that changes nothing
        assert set(TOLERANCES) == {c.tol_key for c in _all_checks()}

    def test_unknown_tolerance_key(self):
        with pytest.raises(DomainError):
            run_suite("limits", tolerances={"bogus": 1.0})

    def test_tolerance_override_forces_failures(self):
        results = run_suite("equivalence", tolerances={"equivalence": 1e-18})
        assert any(not r.passed for r in results)

    def test_json_line_schema(self):
        result = run_suite("limits")[0]
        assert isinstance(result, CheckResult)
        record = json.loads(result.json_line())
        assert set(record) == {"check", "params", "metric", "tol", "pass"}
        assert isinstance(record["pass"], bool)
        assert isinstance(record["metric"], float)

    def test_no_tolerance_is_vacuous(self):
        # every key is cited, and no upper bound is loose enough to pass
        # whatever the metric; 1e-5 is the loosest real one (soliton_limit)
        checks = [c for name in SUITES for c in SUITES[name]()]
        assert {c.tol_key for c in checks} == set(TOLERANCES)
        loose = {c.tol_key for c in checks
                 if not c.lower_bound and TOLERANCES[c.tol_key] > 1e-5}
        assert not loose

    def test_deterministic_output(self):
        lines_a = [r.json_line() for r in run_suite("identities")]
        lines_b = [r.json_line() for r in run_suite("identities")]
        assert lines_a == lines_b

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0,
                                       "abc", None, [1], 1e-3 + 0j, True, np.True_])
    def test_vacuous_tolerance_override_is_refused(self, value):
        # inf or a bound <= 0 would pass every check of its family; nan
        # would fail every one; a non-number is no bound, and True would
        # read as 1.0
        with pytest.raises(DomainError, match="finite and > 0"):
            run_suite("limits", tolerances={"soliton_limit": value})
        with pytest.raises(DomainError, match="finite and > 0"):
            run_suite("limits", tolerances={"residual_non_solution": value})

    def test_report_structure_is_pinned(self):
        # sha256 of the `verify --suite all` report with each line's metric
        # dropped: a reordered, renamed, re-parameterized or re-toleranced
        # check changes it, a last-bit metric difference does not
        lines = []
        for result in run_suite("all"):
            record = json.loads(result.json_line())
            del record["metric"]
            lines.append(json.dumps(record, sort_keys=True) + "\n")
        assert len(lines) == 206
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "c3d9e675c6811f167d50b0658cc4d579f56e1e472bbdc76d2aec29dadb6f1f97"

    def test_cold_run_builds_the_entries_the_cache_comments_cite(self):
        # the comments above landen_map and elliptic._modulus cite these
        # counts; a suite change that moves them must edit those comments
        caches = (landen_module.landen_map, elliptic_module._modulus)
        for cache in caches:
            cache.cache_clear()
        run_suite("all")
        assert [cache.cache_info().misses for cache in caches] == [77, 62]

    def test_no_line_compares_a_value_with_itself(self):
        # p = 1 identity and equivalence lines read exactly 0 whatever the
        # code does (see the next test)
        vacuous = {("dn_identity", 1), ("dn2_identity", 1), ("equivalence", 1)}
        assert [c for c in _all_checks()
                if (c.name, c.params.get("p")) in vacuous] == []

    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
    def test_p1_map_and_transform_are_the_identity(self, m):
        # why the p = 1 lines went: both sides of each made the same call
        lmap = landen_map(1, m)
        assert (lmap.gamma, lmap.m_tilde, lmap.shifts) == (1.0, m, (0.0,))
        assert (transform_params(1.7, -0.4, lmap)
                == DnWaveParams(alpha=1.7, beta=-0.4, m=m))


def test_constancy_probes_avoid_construction_probes():
    # the cyclic_constancy check must not re-read the u values landen_map
    # already tested at construction
    gap = np.abs(verify_module._CONSTANCY_PROBES[:, None] - landen_module._PROBES)
    assert np.min(gap) > 0.01


def _all_checks():
    return [c for build in SUITES.values() for c in build()]


class TestChecksAreData:
    """Each check's reported params are exactly its metric's arguments."""

    def test_params_bind_to_metric_signature(self):
        for check in _all_checks():
            inspect.signature(check.metric).bind(**check.params)

    @pytest.mark.parametrize("name, key, value", [
        ("residual_u1", "N", 512),
        ("residual_up", "beta", 0.3),
        ("residual_non_solution", "m", 0.6),
        ("residual_upm", "alpha", 1.5),
        ("residual_upm_rejected", "alpha", 1.5),
        ("residual_upm_sum", "N", 512),
        ("upm_dn2_identity", "alpha", 1.5),
        ("equivalence", "p", 3),  # the first check is p = 2
        ("soliton_limit", "epsilon", 1e-10),
    ])
    def test_edited_param_changes_metric(self, name, key, value):
        check = next(c for c in _all_checks() if c.name == name)
        edited = dataclasses.replace(check, params={**check.params, key: value})
        before, after = check.run(TOLERANCES), edited.run(TOLERANCES)
        assert after.params[key] == value
        assert after.metric != before.metric

    @pytest.mark.parametrize("name, key, value", [
        ("equivalence", "t", [0.0, 0.2]),
        ("residual_non_solution", "profile", "dn^4"),
        ("residual_upm", "scaling", "linear"),
    ])
    def test_param_the_metric_cannot_honour_is_refused(self, name, key, value):
        check = next(c for c in _all_checks() if c.name == name)
        with pytest.raises(DomainError):
            dataclasses.replace(check, params={**check.params, key: value}).run(TOLERANCES)
