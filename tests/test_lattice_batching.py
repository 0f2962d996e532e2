"""Shift lattices and time slices go to the elliptic kernel in one call.

Each batched evaluator is compared with a per-shift (or per-slice) loop
written here, the way the library evaluated them one kernel call at a
time.  The arithmetic per element is the same, so every comparison is
exact: np.array_equal, no tolerance.  A call counter then pins the number
of kernel calls, so a per-shift loop cannot come back unnoticed.
"""

import math
from collections import Counter

import numpy as np
import pytest

import landen_kdv.landen as landen_module
import landen_kdv.verify as verify_module
import landen_kdv.waves as waves_module
from landen_kdv import (
    DnWaveParams,
    PmWaveParams,
    complete_K,
    dn2_landen_rhs,
    dn_landen_rhs,
    equivalence_check,
    jacobi_sn_cn_dn,
    landen_map,
    run_suite,
    transform_params,
    u_p,
    u_pm,
)
from landen_kdv.cli import main
from landen_kdv.landen import _dn_on_lattice, cyclic_sums
from landen_kdv.verify import (
    _cyclic_constancy_metric,
    _dn2_identity_metric,
    _dn_identity_metric,
    _quarter_period_metric,
    _residual_non_solution_metric,
    _upm_sum,
)
from test_package import memo_caches

MS = (1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-9)
XS = (
    0.37,
    np.linspace(-3.0, 5.0, 41),
    np.linspace(-2.0, 2.0, 24).reshape(4, 6),
)


def loop_u_p(x, t, params):
    alpha = params.alpha
    xi = alpha * (np.asarray(x, dtype=float) - params.velocity * t)
    total = np.zeros_like(xi)
    for shift in landen_map(params.p, params.m).shifts:
        total += jacobi_sn_cn_dn(xi + shift, params.m)[2] ** 2
    return -2.0 * alpha**2 * total + params.beta * alpha**2


def loop_dn_rhs(x, lmap):
    x_arr = np.asarray(x, dtype=float)
    total = np.zeros_like(x_arr)
    for s in lmap.shifts:
        total += jacobi_sn_cn_dn(lmap.gamma * x_arr + s, lmap.m)[2]
    return total * lmap.gamma


def loop_dn2_rhs(x, lmap):
    x_arr = np.asarray(x, dtype=float)
    total = np.full_like(x_arr, math.fsum(lmap.a))
    for s in lmap.shifts:
        total += jacobi_sn_cn_dn(lmap.gamma * x_arr + s, lmap.m)[2] ** 2
    return total * lmap.gamma**2


def loop_cyclic_sums(m, shifts, probes):
    d = np.stack([jacobi_sn_cn_dn(probes + s, m)[2] for s in shifts])
    rows = [np.sum(d * np.roll(d, -r, axis=0), axis=0) for r in range(1, len(shifts))]
    return np.array(rows).reshape(len(shifts) - 1, len(probes))


def assert_cyclic_reductions_match_loops(p, m, n):
    # the sums over the gathered partner stack, and std and mean along its
    # rows, against a per-shift product loop and one call per row
    shifts = landen_map(p, m).shifts
    probes = 0.05 + 0.3 * np.arange(n)
    sums = cyclic_sums(_dn_on_lattice(probes, shifts, m))
    rows = loop_cyclic_sums(m, shifts, probes)
    assert np.array_equal(sums, rows)
    assert np.array_equal(np.std(sums, axis=1), [np.std(row) for row in rows])
    assert np.array_equal(np.mean(sums, axis=1), [np.mean(row) for row in rows])


def loop_equivalence(params, lmap, grid):
    single = transform_params(params.alpha, params.beta, lmap)
    lhs = loop_u_p(grid.x, 0.0, params)
    rhs = loop_u_p(grid.x, 0.0, single)
    return float(np.max(np.abs(lhs - rhs)))


def loop_upm_sum(params, p, xs):
    root_m = math.sqrt(params.m)
    total = np.zeros_like(xs)
    for i in range(p):
        eta = params.alpha * (xs + i * params.spatial_period / p)
        s, c, d = jacobi_sn_cn_dn(eta, params.m)
        total += params.alpha**2 * (params.m * s * s + params.sign * root_m * c * d)
    return total


@pytest.mark.parametrize("m", MS)
@pytest.mark.parametrize("p", range(1, 9))
class TestBitwiseAgainstPerShiftLoop:
    def test_u_p(self, p, m):
        params = DnWaveParams(alpha=1.3, beta=0.4, m=m, p=p)
        for x in XS:
            for t in (0.0, -0.75):
                assert np.array_equal(u_p(x, t, params), loop_u_p(x, t, params))

    def test_dn_rhs(self, p, m):
        lmap = landen_map(p, m)
        for x in XS:
            assert np.array_equal(dn_landen_rhs(x, lmap), loop_dn_rhs(x, lmap))

    def test_dn2_rhs(self, p, m):
        lmap = landen_map(p, m)
        for x in XS:
            assert np.array_equal(dn2_landen_rhs(x, lmap), loop_dn2_rhs(x, lmap))

    def test_cyclic_sums(self, p, m):
        for n in (11, 1, 2, 100):
            assert_cyclic_reductions_match_loops(p, m, n)

    def test_identity_metrics(self, p, m):
        # the dn and dn^2 lines share one evaluation and read the bits that
        # separate evaluations of each side give
        lmap = landen_map(p, m)
        x = verify_module._identity_grid(lmap.m_tilde)
        lhs = jacobi_sn_cn_dn(x, lmap.m_tilde)[2]
        assert _dn_identity_metric(p, m) == float(np.max(np.abs(lhs - loop_dn_rhs(x, lmap))))
        assert _dn2_identity_metric(p, m) == float(
            np.max(np.abs(lhs**2 - loop_dn2_rhs(x, lmap))))


@pytest.mark.parametrize("n", [1, 2, 100])
@pytest.mark.parametrize("m", MS)
@pytest.mark.parametrize("p", [9, 16, 32])
def test_cyclic_reductions_match_loops_at_large_p(p, m, n):
    assert_cyclic_reductions_match_loops(p, m, n)


@pytest.mark.parametrize("p, m", [(1, 0.5), (2, 0.3), (3, 0.7), (5, 0.9), (8, 0.5)])
def test_equivalence_check_matches_per_slice_loop(p, m):
    params = DnWaveParams(alpha=0.8, beta=-0.3, m=m, p=p)
    lmap = landen_map(p, m)
    grid = params.natural_grid(128, periods=2)
    assert equivalence_check(params, grid) == loop_equivalence(params, lmap, grid)


def test_sample_broadcasts_time_slices():
    params = DnWaveParams(alpha=1.1, beta=0.2, m=0.6, p=4)
    grid = params.natural_grid(64)
    ts = np.array([0.0, 0.1, 0.5])
    stacked = params.sample(grid, ts[:, np.newaxis])
    assert stacked.shape == (3, 64)
    assert np.array_equal(stacked, np.stack([params.sample(grid, t) for t in ts]))


def loop_quarter_period(m):
    big_k = complete_K(m)
    x = np.linspace(0.0, 2.0 * big_k, 257)
    d0 = jacobi_sn_cn_dn(x, m)[2]
    d1 = jacobi_sn_cn_dn(x + big_k, m)[2]
    return float(np.max(np.abs(d0 * d1 - math.sqrt(1.0 - m))))


@pytest.mark.parametrize("m", [0.0, *MS])
def test_quarter_period_metric_matches_two_calls(m):
    assert _quarter_period_metric(m) == loop_quarter_period(m)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_upm_sum_matches_per_phase_loop(p, sign):
    # the p-phase u_pm sum whose predicted speed the residual_upm_sum checks probe
    params = PmWaveParams(alpha=1.5, m=0.6, sign=sign)
    x = params.natural_grid(128).x
    assert np.array_equal(_upm_sum(params, p)(x), loop_upm_sum(params, p, x))


class TestOneKernelCallPerLattice:
    @pytest.fixture
    def calls(self, monkeypatch):
        # counts calls into the one kernel entry, by output: "dn_only" for
        # dn alone, "sn_cn_dn" for all three
        count = Counter()

        def counted(x, m, *, dn_only=False):
            count["dn_only" if dn_only else "sn_cn_dn"] += 1
            return jacobi_sn_cn_dn(x, m, dn_only=dn_only)

        for module in (landen_module, verify_module, waves_module):
            monkeypatch.setattr(module, "jacobi_sn_cn_dn", counted)
        return count

    def test_u_p(self, calls):
        params = DnWaveParams(alpha=1.0, beta=0.0, m=0.5, p=5)
        x = np.linspace(0.0, 3.0, 50)
        calls.clear()
        u_p(x, 0.2, params)
        assert calls == {"dn_only": 1}

    def test_landen_rhs_and_cyclic_sums(self, calls):
        lmap = landen_map(6, 0.4)
        x = np.linspace(0.0, 3.0, 50)
        for evaluate in (lambda: dn_landen_rhs(x, lmap), lambda: dn2_landen_rhs(x, lmap)):
            calls.clear()
            evaluate()
            assert calls.total() == 1
        # a cold constancy metric makes the identity evaluation's two calls:
        # dn on the identity grid, and the lattice with the probes appended
        verify_module._identity_gaps.cache_clear()
        calls.clear()
        _cyclic_constancy_metric(6, 0.4)
        assert calls.total() == 2

    def test_equivalence_check(self, calls):
        params = DnWaveParams(alpha=1.0, beta=0.1, m=0.7, p=5)
        grid = params.natural_grid(64)
        landen_map(5, 0.7)  # warm: a cold map build makes a kernel call of its own
        calls.clear()
        equivalence_check(params, grid)
        assert calls.total() == 2

    def test_equivalence_speed_line(self, calls):
        # the speeds are read from the cached map: no kernel call at all
        landen_map(5, 0.7)
        calls.clear()
        verify_module._equivalence_speed_metric(5, 0.7, 1.0, 0.1)
        assert calls.total() == 0

    def test_upm_sum_profile(self, calls):
        profile = _upm_sum(PmWaveParams(alpha=1.0, m=0.5, sign=1), 3)
        calls.clear()
        profile(np.linspace(0.0, 3.0, 64))
        assert calls.total() == 1

    def test_u_pm(self, calls):
        # u_pm reads sn and cn: it is the one three-output caller
        params = PmWaveParams(alpha=1.0, m=0.5, sign=1)
        calls.clear()
        u_pm(np.linspace(0.0, 3.0, 64), 0.0, params)
        assert calls == {"sn_cn_dn": 1}

    def test_cold_landen_map(self, calls):
        # dn(shifts) rides in column u = 0 of the cyclic-sum stack
        landen_map.cache_clear()
        try:
            calls.clear()
            landen_map(6, 0.4)
            assert calls.total() == 1
        finally:
            landen_map.cache_clear()

    def test_quarter_period_metric(self, calls):
        calls.clear()
        _quarter_period_metric(0.7)
        assert calls.total() == 1

    def test_dn2_identity_reads_the_dn_identity_evaluation(self, calls):
        # and so does the constancy metric
        _dn_identity_metric(3, 0.6)
        calls.clear()
        _dn2_identity_metric(3, 0.6)
        _cyclic_constancy_metric(3, 0.6)
        assert calls.total() == 0

    def test_cold_verify_all(self, calls):
        # the dn, dn^2 and constancy lines of each of the 35 identity maps
        # share one dn call and one lattice call
        for cache in memo_caches().values():
            cache.cache_clear()
        calls.clear()
        run_suite("all")
        assert calls.total() == 283
        # the 24 three-output calls are the u_pm checks'; the rest read dn alone
        assert calls == {"dn_only": 259, "sn_cn_dn": 24}

    def test_cold_evolve(self, calls, capsys):
        # u0 and the exact field at T are two time slices of one call; the
        # other dn-only call is the cold landen_map build
        for cache in memo_caches().values():
            cache.cache_clear()
        calls.clear()
        assert main(["evolve", "--family", "up", "-p", "3", "-m", "0.6", "--n", "128",
                     "--periods-crossed", "0.05", "--json"]) == 0
        capsys.readouterr()
        assert calls == {"dn_only": 2}

    @pytest.mark.parametrize("check", [
        lambda: _dn_identity_metric(3, 0.6),
        lambda: _dn2_identity_metric(3, 0.6),
        lambda: _cyclic_constancy_metric(4, 0.6),
        lambda: _quarter_period_metric(0.6),
        lambda: _residual_non_solution_metric("dn^3", 0.5),
    ], ids=["dn_identity", "dn2_identity", "cyclic_constancy", "quarter_period",
            "non_solution"])
    def test_dn_only_checks_make_no_three_output_call(self, calls, check):
        # a cold map build is a dn-only path too; the identity memo is
        # cleared so each identity case evaluates its own lattice
        landen_map.cache_clear()
        verify_module._identity_gaps.cache_clear()
        try:
            calls.clear()
            check()
            assert calls["dn_only"] > 0
            assert calls["sn_cn_dn"] == 0
        finally:
            landen_map.cache_clear()
            verify_module._identity_gaps.cache_clear()


class TestOneReductionPerLattice:
    """The cyclic sums' spread and mean are taken once per lattice, not per row."""

    @pytest.fixture
    def reductions(self, monkeypatch):
        count = Counter()

        def counting(name, reduce):
            def counted(*args, **kwargs):
                count[name] += 1
                return reduce(*args, **kwargs)
            return counted

        for name in ("std", "mean"):
            monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
        return count

    def test_cold_landen_map(self, reductions):
        landen_map.cache_clear()
        try:
            landen_map(8, 0.5)
            assert reductions == {"std": 1, "mean": 1}
        finally:
            landen_map.cache_clear()

    def test_cyclic_constancy_metric(self, reductions):
        landen_map(8, 0.5)
        verify_module._identity_gaps.cache_clear()  # the metric reads this memo
        reductions.clear()
        _cyclic_constancy_metric(8, 0.5)
        assert reductions == {"std": 1}
