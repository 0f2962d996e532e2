"""Shift lattices and time slices go to the elliptic kernel in one call.

Each batched evaluator is compared with a per-shift (or per-slice) loop
written here, the way the library evaluated them one kernel call at a
time.  The arithmetic per element is the same, so every comparison is
exact: np.array_equal, no tolerance.  A call counter then pins the number
of kernel calls, so a per-shift loop cannot come back unnoticed.
"""

import math

import numpy as np
import pytest

import landen_kdv.landen as landen_module
import landen_kdv.verify as verify_module
from landen_kdv import (
    DnWaveParams,
    PeriodicGrid,
    PmWaveParams,
    dn2_landen_rhs,
    dn_landen_rhs,
    equivalence_check,
    jacobi_sn_cn_dn,
    kdv_residual,
    landen_map,
    transform_params,
    u_p,
)
from landen_kdv.fourier import fit_traveling_velocity
from landen_kdv.landen import cyclic_sums
from landen_kdv.verify import TravelingProfile, pm_superposition_velocity_search

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
    for shift in params.shifts:
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


def loop_equivalence(params, lmap, grid, t):
    tp = transform_params(params.alpha, params.beta, lmap)
    worst = 0.0
    for offset in (0.0, 0.1, 0.5):
        ts = t + offset
        lhs = loop_u_p(grid.x, ts, params)
        xi = tp.alpha_tilde * (grid.x - tp.c_tilde * ts)
        dn_t = jacobi_sn_cn_dn(xi, tp.m_tilde)[2]
        rhs = -2.0 * tp.alpha_tilde**2 * dn_t**2 + tp.beta_tilde * tp.alpha_tilde**2
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def loop_speed_probe(base, p, n=512):
    grid = PeriodicGrid(N=n, L=base.spatial_period)
    root_m = math.sqrt(base.m)

    def profile(xs):
        total = np.zeros_like(xs)
        for i in range(p):
            eta = base.alpha * (xs + i * base.spatial_period / p)
            s, c, d = jacobi_sn_cn_dn(eta, base.m)
            total += base.m * s * s + base.sign * root_m * c * d
        return base.alpha**2 * total

    v_fit = fit_traveling_velocity(profile(grid.x), grid.L)
    return v_fit, kdv_residual(TravelingProfile(profile, v_fit, grid.L), grid).normalized


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
        shifts = landen_map(p, m).shifts
        probes = 0.05 + 0.3 * np.arange(11)
        assert np.array_equal(cyclic_sums(m, shifts, probes),
                              loop_cyclic_sums(m, shifts, probes))


@pytest.mark.parametrize("p, m", [(1, 0.5), (2, 0.3), (3, 0.7), (5, 0.9), (8, 0.5)])
def test_equivalence_check_matches_per_slice_loop(p, m):
    params = DnWaveParams(alpha=0.8, beta=-0.3, m=m, p=p)
    lmap = landen_map(p, m)
    grid = params.natural_grid(128, periods=2)
    for t in (0.0, 1.25):
        assert equivalence_check(params, lmap, grid, t) == loop_equivalence(params, lmap, grid, t)


def test_sample_broadcasts_time_slices():
    params = DnWaveParams(alpha=1.1, beta=0.2, m=0.6, p=4)
    grid = params.natural_grid(64)
    ts = np.array([0.0, 0.1, 0.5])
    stacked = params.sample(grid, ts[:, np.newaxis])
    assert stacked.shape == (3, 64)
    assert np.array_equal(stacked, np.stack([params.sample(grid, t) for t in ts]))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_speed_probe_matches_per_phase_loop(p, sign):
    base = PmWaveParams(alpha=1.5, m=0.6, sign=sign)
    assert pm_superposition_velocity_search(base, p) == loop_speed_probe(base, p)


class TestOneKernelCallPerLattice:
    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]

        def counted(x, m):
            count[0] += 1
            return jacobi_sn_cn_dn(x, m)

        for module in (landen_module, verify_module):
            monkeypatch.setattr(module, "jacobi_sn_cn_dn", counted)
        return count

    def test_u_p(self, calls):
        params = DnWaveParams(alpha=1.0, beta=0.0, m=0.5, p=5)
        x = np.linspace(0.0, 3.0, 50)
        calls[0] = 0
        u_p(x, 0.2, params)
        assert calls[0] == 1

    def test_landen_rhs_and_cyclic_sums(self, calls):
        lmap = landen_map(6, 0.4)
        x = np.linspace(0.0, 3.0, 50)
        for evaluate in (lambda: dn_landen_rhs(x, lmap), lambda: dn2_landen_rhs(x, lmap),
                         lambda: cyclic_sums(lmap.m, lmap.shifts, x)):
            calls[0] = 0
            evaluate()
            assert calls[0] == 1

    def test_equivalence_check(self, calls):
        params = DnWaveParams(alpha=1.0, beta=0.1, m=0.7, p=5)
        lmap = landen_map(5, 0.7)
        grid = params.natural_grid(64)
        calls[0] = 0
        equivalence_check(params, lmap, grid)
        assert calls[0] == 2

    def test_speed_probe_profile(self, calls):
        # the profile is evaluated twice: once for the fit, once for the residual
        calls[0] = 0
        pm_superposition_velocity_search(PmWaveParams(alpha=1.0, m=0.5, sign=1), 3, n=64)
        assert calls[0] == 2
